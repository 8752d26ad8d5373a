/**
 * @file
 * The workload characterization behind the paper's motivation:
 * Table 1 (the simulated system), Tables 2-3 (benchmark classes and
 * mixes) and Figures 1, 2, 3 and 6 (why dependent misses need more
 * than a prefetcher).
 */

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "bench/campaign.hh"
#include "workload/profile.hh"

namespace emc::bench
{

namespace
{

/** Four copies of @p app with a full warmup pass: cache-resident
 *  kernels need one for their steady-state MPKI to emerge. */
RunJob
fullyWarmed(const std::string &app)
{
    SystemConfig cfg = quadConfig();
    cfg.warmup_uops = cfg.target_uops;
    return {cfg, homo(app)};
}

// ---- Table 1: echo the simulated system configuration so a reader
// can check it against the paper's table line by line.

void
table1Render(const Results &, std::FILE *out, std::FILE *)
{
    banner(out, "Table 1", "system configuration", "");

    SystemConfig q = quadConfig();
    std::fprintf(out, "Core            %u-wide issue, %u-entry ROB, "
                      "%u-entry RS, 3.2 GHz\n",
                 q.core.issue_width, q.core.rob_size, q.core.rs_size);
    std::fprintf(out, "L1 D-cache      %u KB, %u-way, %llu-cycle, "
                      "write-through\n",
                 q.core.l1d_bytes / 1024, q.core.l1d_ways,
                 static_cast<unsigned long long>(q.core.l1d_latency));
    std::fprintf(out, "LLC             distributed shared, %zu KB "
                      "slice/core x %u cores, %u-way, %llu-cycle, "
                      "write-back, inclusive\n",
                 q.llc_slice_bytes / 1024, q.num_cores, q.llc_ways,
                 static_cast<unsigned long long>(q.llc_latency));
    std::fprintf(out, "Interconnect    2 bidirectional rings (8 B "
                      "control / 64 B data), 1-cycle links, %u stops\n",
                 q.num_cores + q.num_mcs);
    std::fprintf(out, "EMC compute     %u contexts, %u-wide, %u-entry "
                      "RS, %u B dcache (%u-way, %llu-cycle), %u-entry "
                      "TLB/core, %u-uop buffer, %u EPRs\n",
                 q.emc.contexts, q.emc.issue_width, q.emc.rs_entries,
                 q.emc.dcache_bytes, q.emc.dcache_ways,
                 static_cast<unsigned long long>(q.emc.dcache_latency),
                 q.emc.tlb_entries, kChainMaxUops, kEmcPhysRegs);
    std::fprintf(out, "EMC ISA         integer add/sub/mov + logical "
                      "and/or/xor/not/shift/sext + load/store (+branch "
                      "direction checks)\n");
    std::fprintf(out, "Mem controller  batch scheduling (PAR-BS), "
                      "%zu-entry queue\n",
                 q.mc_queue_entries);
    std::fprintf(out, "DRAM            DDR3-1600, %u channels x %u rank "
                      "x %u banks, %u B rows, tCL=%llu tRCD=%llu "
                      "tRP=%llu core cycles\n",
                 q.dram.channels, q.dram.ranks_per_channel,
                 q.dram.banks_per_rank, q.dram.row_bytes,
                 static_cast<unsigned long long>(q.timing.tCL),
                 static_cast<unsigned long long>(q.timing.tRCD),
                 static_cast<unsigned long long>(q.timing.tRP));
    std::fprintf(out, "Prefetchers     stream (32 streams, distance "
                      "32), GHB G/DC (1k entries); all with FDP degree "
                      "1-32, fill into LLC\n");

    SystemConfig e8 = eightConfig(PrefetchConfig::kNone, true, true);
    std::fprintf(out, "8-core scaling  %u cores, %u MCs, %u channels, "
                      "%zu-entry queue, %u EMC contexts/MC\n",
                 e8.num_cores, e8.num_mcs, e8.dram.channels,
                 e8.mc_queue_entries, e8.emc.contexts);
}

// ---- Tables 2 and 3: benchmark classification by measured MPKI
// (high intensity: MPKI >= 10) checked against the paper's Table 2
// split, and the quad-core workload mixes.

std::vector<RunJob>
table23Jobs()
{
    std::vector<RunJob> jobs;
    for (const auto &p : allProfiles())
        jobs.push_back(fullyWarmed(p.name));
    return jobs;
}

void
table23Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Tables 2-3", "benchmark classification + workload mixes",
           "high intensity: MPKI >= 10 (8 benchmarks); 21 low");

    std::fprintf(out, "%-12s %8s %10s %10s %8s\n", "benchmark", "mpki",
                 "dep-frac", "ipc", "class-ok");
    unsigned correct = 0, total = 0;
    for (const auto &p : allProfiles()) {
        const StatDump &d = res[total].stats;
        double mpki = 0, dep = 0, ipc = 0;
        for (int i = 0; i < 4; ++i) {
            const std::string k = "core" + std::to_string(i) + ".";
            mpki += d.get(k + "mpki") / 4;
            dep += d.get(k + "dep_miss_frac") / 4;
            ipc += d.get(k + "ipc") / 4;
        }
        const bool measured_high = mpki >= 10.0;
        const bool ok = measured_high == p.high_intensity;
        std::fprintf(out, "%-12s %8.1f %9.1f%% %10.3f %8s\n",
                     p.name.c_str(), mpki, 100 * dep, ipc,
                     ok ? "yes" : "NO");
        correct += ok ? 1 : 0;
        ++total;
    }
    std::fprintf(out, "\nclassification agreement: %u / %u\n", correct,
                 total);

    std::fprintf(out, "\nTable 3 quad-core mixes:\n");
    for (std::size_t h = 0; h < quadWorkloads().size(); ++h) {
        std::fprintf(out, "  %-4s", quadWorkloadName(h).c_str());
        for (const auto &b : quadWorkloads()[h])
            std::fprintf(out, " %s", b.c_str());
        std::fprintf(out, "\n");
    }
}

// ---- Figure 1: memory access latency split into the DRAM access and
// all other on-chip delay, per benchmark running as four copies.

/** A sweep across the intensity spectrum (all 29 benchmarks is
 *  possible but slow; the shape needs the class boundary visible). */
const std::vector<std::string> kFig01Apps = {
    "gcc", "astar", "leslie3d",                        // low MPKI
    "sphinx3", "omnetpp", "soplex", "milc",
    "bwaves", "libquantum", "lbm", "mcf",              // high MPKI
};

std::vector<RunJob>
fig01Jobs()
{
    std::vector<RunJob> jobs;
    for (const auto &app : kFig01Apps)
        jobs.push_back(fullyWarmed(app));
    return jobs;
}

void
fig01Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 1", "memory latency: DRAM vs on-chip delay",
           "on-chip delay dominates for high-MPKI applications");

    std::fprintf(out, "%-12s %8s %10s %10s %10s %8s\n", "benchmark",
                 "mpki", "total(c)", "dram(c)", "onchip(c)", "onchip%");
    std::vector<std::pair<std::string, std::vector<double>>> chart;
    for (std::size_t a = 0; a < kFig01Apps.size(); ++a) {
        const std::string &app = kFig01Apps[a];
        const StatDump &d = res[a].stats;
        // DRAM service (issue -> data) against everything else the
        // miss spends on chip: ring, LLC lookup, MC queue, fill path.
        const double total = d.get("phase.core.total_avg");
        const double dram = d.get("phase.core.dram_avg");
        const double onchip = total - dram;
        double mpki = 0;
        for (int i = 0; i < 4; ++i)
            mpki += d.get("core" + std::to_string(i) + ".mpki") / 4;
        std::fprintf(out, "%-12s %8.1f %10.1f %10.1f %10.1f %7.1f%%\n",
                     app.c_str(), mpki, total, dram, onchip,
                     total > 0 ? 100.0 * onchip / total : 0.0);
        chart.push_back({app, {dram, onchip}});
    }
    note(out, "");
    groupedChart(out, {"dram cycles", "on-chip cycles"}, chart);
    note(out, "");
    note(out, "expected shape: the on-chip share grows with memory"
              " intensity; for the high-MPKI group it is a large"
              " fraction of total latency (paper: more than half).");
}

// ---- Figure 2: the share of LLC misses that depend on a prior LLC
// miss, and the gain if those dependent misses had been LLC hits.

std::vector<RunJob>
fig02Jobs()
{
    std::vector<RunJob> jobs;
    for (const auto &app : highIntensityNames()) {
        SystemConfig ideal = quadConfig();
        ideal.ideal_dependent_hits = true;
        jobs.push_back({quadConfig(), homo(app)});
        jobs.push_back({ideal, homo(app)});
    }
    return jobs;
}

void
fig02Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 2", "dependent-miss fraction + ideal-hit speedup",
           "mcf: highest fraction, +95% if dependent misses were hits");

    std::fprintf(out, "%-12s %10s %12s\n", "benchmark", "dep-frac",
                 "ideal-gain");
    std::vector<std::pair<std::string, double>> chart;
    for (std::size_t a = 0; a < highIntensityNames().size(); ++a) {
        const std::string &app = highIntensityNames()[a];
        const StatDump &b = res[2 * a].stats;
        const StatDump &i = res[2 * a + 1].stats;
        const double frac = b.get("llc.dep_miss_frac");
        const double gain = relPerf(i, b, 4) - 1.0;
        std::fprintf(out, "%-12s %9.1f%% %+11.1f%%\n", app.c_str(),
                     100 * frac, 100 * gain);
        chart.push_back({app, 100 * frac});
    }
    note(out, "");
    note(out, "dependent-miss fraction (%):");
    barChart(out, chart, "%");
    note(out, "");
    note(out, "expected shape: pointer chasers (mcf, omnetpp) show large"
              " dependent fractions and large ideal gains; streamers"
              " show ~0 for both.");
}

// ---- Figure 3: the share of dependent misses the GHB and stream
// prefetchers cover (turn into hits), and the bandwidth each costs.

const PrefetchConfig kFig03Pfs[] = {PrefetchConfig::kGhb,
                                    PrefetchConfig::kStream};
constexpr unsigned kFig03NumPfs = std::size(kFig03Pfs);

/** The dependent-miss-relevant subset: streamers have no dependent
 *  misses to cover, as Figure 2 establishes. */
const std::vector<std::string> kFig03Apps = {"mcf", "omnetpp", "soplex",
                                             "sphinx3"};

std::vector<RunJob>
fig03Jobs()
{
    std::vector<RunJob> jobs;
    for (const auto &app : kFig03Apps) {
        jobs.push_back({quadConfig(), homo(app)});
        for (PrefetchConfig pf : kFig03Pfs)
            jobs.push_back({quadConfig(pf), homo(app)});
    }
    return jobs;
}

void
fig03Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 3", "dependent-miss coverage by prefetchers",
           "GHB/stream/Markov cover <20% of dependent misses on "
           "average; +20%/+22%/+42% bandwidth");

    std::fprintf(out, "%-12s", "benchmark");
    for (PrefetchConfig pf : kFig03Pfs)
        std::fprintf(out, " %14s", prefetchConfigName(pf));
    std::fprintf(out, "\n");

    double bw_base_total = 0;
    double bw_pf_total[kFig03NumPfs] = {};
    for (std::size_t a = 0; a < kFig03Apps.size(); ++a) {
        const RunResult *app_res = &res[(1 + kFig03NumPfs) * a];
        bw_base_total += app_res[0].stats.get("traffic.total");
        std::fprintf(out, "%-12s", kFig03Apps[a].c_str());
        for (unsigned p = 0; p < kFig03NumPfs; ++p) {
            const StatDump &d = app_res[1 + p].stats;
            const double covered =
                d.get("llc.dep_misses_covered_by_pf");
            const double dep_total = d.get("llc.dep_misses") + covered;
            const double cov =
                dep_total > 0 ? covered / dep_total : 0.0;
            std::fprintf(out, " %13.1f%%", 100 * cov);
            bw_pf_total[p] += d.get("traffic.total");
        }
        std::fprintf(out, "\n");
    }

    std::fprintf(out, "\nbandwidth increase vs no-prefetch baseline:\n");
    const char *paper[kFig03NumPfs] = {"+20%", "+22%"};
    for (unsigned p = 0; p < kFig03NumPfs; ++p) {
        std::fprintf(out, "  %-14s %+6.1f%%  (paper: %s)\n",
                     prefetchConfigName(kFig03Pfs[p]),
                     100 * (bw_pf_total[p] / bw_base_total - 1.0),
                     paper[p]);
    }
    note(out, "");
    note(out, kMarkovNotModelled);
    note(out, "expected shape: low dependent-miss coverage across both"
              " prefetchers.");
}

// ---- Figure 6: average number of operations in the dependence chain
// between a source miss and its dependent miss.

std::vector<RunJob>
fig06Jobs()
{
    std::vector<RunJob> jobs;
    for (const auto &app : highIntensityNames())
        jobs.push_back({quadConfig(), homo(app)});
    return jobs;
}

void
fig06Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 6", "ops between source and dependent miss",
           "a small number of simple integer ops (chain of <= 16 "
           "uops suffices)");

    std::fprintf(out, "%-12s %12s %14s\n", "benchmark", "avg-ops",
                 "dep-miss-frac");
    double worst = 0;
    for (std::size_t a = 0; a < highIntensityNames().size(); ++a) {
        const StatDump &d = res[a].stats;
        double dist = 0, frac = 0;
        unsigned n = 0;
        for (int i = 0; i < 4; ++i) {
            const std::string p = "core" + std::to_string(i) + ".";
            if (d.get(p + "dependent_llc_misses") > 0) {
                dist += d.get(p + "dep_distance");
                frac += d.get(p + "dep_miss_frac");
                ++n;
            }
        }
        if (n) {
            dist /= n;
            frac /= n;
        }
        worst = std::max(worst, dist);
        std::fprintf(out, "%-12s %12.2f %13.1f%%\n",
                     highIntensityNames()[a].c_str(), dist, 100 * frac);
    }
    std::fprintf(out, "\nmax average distance: %.2f uops "
                      "(chain capacity: %u uops)\n",
                 worst, kChainMaxUops);
    note(out, "expected shape: distances well under the 16-uop chain"
              " capacity for every benchmark that has dependent"
              " misses.");
}

} // namespace

std::vector<Figure>
motivationFigures()
{
    return {
        {"table1_config", [] { return std::vector<RunJob>{}; },
         table1Render},
        {"table2_3_workloads", table23Jobs, table23Render},
        {"fig01_latency_breakdown", fig01Jobs, fig01Render},
        {"fig02_dependent_misses", fig02Jobs, fig02Render},
        {"fig03_prefetch_coverage", fig03Jobs, fig03Render},
        {"fig06_dependence_distance", fig06Jobs, fig06Render},
    };
}

} // namespace emc::bench
