/**
 * @file
 * The paper's headline results: performance on the quad-core
 * heterogeneous and homogeneous workloads (Figures 12, 13), on eight
 * cores (Figure 14), across DRAM configurations (Figure 20), and the
 * energy of the same runs (Figures 23, 24).
 */

#include <cmath>
#include <cstdio>
#include <iterator>

#include "bench/campaign.hh"
#include "workload/profile.hh"

namespace emc::bench
{

namespace
{

const PrefetchConfig kPfs[] = {PrefetchConfig::kNone, PrefetchConfig::kGhb,
                               PrefetchConfig::kStream};
constexpr unsigned kNumPfs = std::size(kPfs);

/** Figures 12 and 23: per mix H1-H10, the three prefetch configs
 *  without the EMC, then the same three with it (6 jobs per mix). */
std::vector<RunJob>
heteroJobs()
{
    std::vector<RunJob> jobs;
    for (const auto &mix : quadWorkloads()) {
        for (bool emc : {false, true}) {
            for (PrefetchConfig pf : kPfs)
                jobs.push_back({quadConfig(pf, emc), mix});
        }
    }
    return jobs;
}

// ---- Figure 12: quad-core performance on H1-H10 across {no-PF, GHB,
// stream} x {without, with EMC}, normalized to each workload's
// no-prefetch baseline.

void
fig12Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 12", "quad-core performance, H1-H10",
           "EMC: +15%/+13%/+10%/+11% over noPF/GHB/stream/Markov");

    std::fprintf(out, "%-5s", "mix");
    for (PrefetchConfig pf : kPfs)
        std::fprintf(out, " %9s %9s", prefetchConfigName(pf), "+emc");
    std::fprintf(out, "\n");

    // Geometric means of the EMC gain per prefetcher config.
    double gain_log[kNumPfs] = {};
    unsigned count = 0;
    for (std::size_t h = 0; h < quadWorkloads().size(); ++h) {
        const RunResult *mix_res = &res[2 * kNumPfs * h];
        const StatDump &base = mix_res[0].stats;
        std::fprintf(out, "%-5s", quadWorkloadName(h).c_str());
        for (unsigned p = 0; p < kNumPfs; ++p) {
            const double perf_noemc = relPerf(mix_res[p].stats, base, 4);
            const double perf_emc =
                relPerf(mix_res[kNumPfs + p].stats, base, 4);
            std::fprintf(out, " %9.3f %9.3f", perf_noemc, perf_emc);
            gain_log[p] += std::log(perf_emc / perf_noemc);
        }
        std::fprintf(out, "\n");
        ++count;
    }

    std::fprintf(out, "\naverage EMC gain over each baseline:\n");
    const char *paper[kNumPfs] = {"+15%", "+13%", "+10%"};
    for (unsigned p = 0; p < kNumPfs; ++p) {
        std::fprintf(out, "  over %-14s %+6.1f%%   (paper: %s)\n",
                     prefetchConfigName(kPfs[p]),
                     100 * (std::exp(gain_log[p] / count) - 1.0),
                     paper[p]);
    }
    note(out, "");
    note(out, kMarkovNotModelled);
    note(out, "expected shape: positive EMC gains, largest for mixes"
              " with mcf/omnetpp (H3-H6, H8, H9), smallest for"
              " lbm-heavy mixes (H1, H5 contain lbm).");
}

// ---- Figure 13: quad-core homogeneous workloads (four copies of each
// high-intensity benchmark), without and with the EMC.

std::vector<RunJob>
fig13Jobs()
{
    std::vector<RunJob> jobs;
    for (const auto &app : highIntensityNames()) {
        jobs.push_back({quadConfig(), homo(app)});
        jobs.push_back({quadConfig(PrefetchConfig::kNone, true), homo(app)});
        jobs.push_back({quadConfig(PrefetchConfig::kGhb, false), homo(app)});
        jobs.push_back({quadConfig(PrefetchConfig::kGhb, true), homo(app)});
    }
    return jobs;
}

void
fig13Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 13", "quad-core homogeneous workloads",
           "EMC: +9.5% average; mcf +30%; lbm ~0%");

    std::fprintf(out, "%-12s %9s %9s %9s %9s\n", "benchmark", "base",
                 "+emc", "ghb", "ghb+emc");
    const auto &apps = highIntensityNames();
    double log_gain = 0;
    unsigned n = 0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const StatDump &base = res[4 * a].stats;
        const double g = relPerf(res[4 * a + 1].stats, base, 4);
        std::fprintf(out, "%-12s %9.3f %9.3f %9.3f %9.3f\n",
                     apps[a].c_str(), 1.0, g,
                     relPerf(res[4 * a + 2].stats, base, 4),
                     relPerf(res[4 * a + 3].stats, base, 4));
        log_gain += std::log(g);
        ++n;
    }
    std::fprintf(out,
                 "\naverage EMC gain over no-PF: %+.1f%% (paper: +9.5%%)\n",
                 100 * (std::exp(log_gain / n) - 1.0));
    note(out, "expected shape: dependent-miss-heavy benchmarks (mcf,"
              " omnetpp) gain; pure streamers (lbm, libquantum, bwaves)"
              " are flat.");
}

// ---- Figure 14: eight-core performance (each mix duplicated to eight
// cores) with one and with two memory controllers, each without and
// with the EMC.

/** A subset of the mixes keeps this figure tractable on one host;
 *  lengthen with EMC_SIM_UOPS for the full sweep. */
const std::size_t kFig14Mixes[] = {2u, 3u, 4u, 7u};  // H3, H4, H5, H8

/** The H-i mix duplicated to eight cores (paper Section 5). */
std::vector<std::string>
eightCoreMix(std::size_t h)
{
    std::vector<std::string> mix = quadWorkloads().at(h);
    mix.insert(mix.end(), quadWorkloads()[h].begin(),
               quadWorkloads()[h].end());
    return mix;
}

std::vector<RunJob>
fig14Jobs()
{
    std::vector<RunJob> jobs;
    for (std::size_t h : kFig14Mixes) {
        for (bool dual_mc : {false, true}) {
            for (bool emc : {false, true}) {
                jobs.push_back({eightConfig(PrefetchConfig::kNone, emc,
                                            dual_mc),
                                eightCoreMix(h)});
            }
        }
    }
    return jobs;
}

void
fig14Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 14", "eight-core, 1 MC vs 2 MC",
           "EMC +17%/+13% (1MC, noPF/GHB); 2MC baseline -0.8%; "
           "2MC EMC gains slightly less");

    std::fprintf(out, "%-5s %9s %9s %9s %9s\n", "mix", "1MC", "1MC+emc",
                 "2MC", "2MC+emc");
    double g1 = 0, g2 = 0, base2 = 0;
    unsigned n = 0;
    for (std::size_t m = 0; m < std::size(kFig14Mixes); ++m) {
        const StatDump &s1 = res[4 * m].stats;
        const double p1e = relPerf(res[4 * m + 1].stats, s1, 8);
        const double p2 = relPerf(res[4 * m + 2].stats, s1, 8);
        const double p2e = relPerf(res[4 * m + 3].stats, s1, 8);
        std::fprintf(out, "%-5s %9.3f %9.3f %9.3f %9.3f\n",
                     quadWorkloadName(kFig14Mixes[m]).c_str(), 1.0, p1e,
                     p2, p2e);
        g1 += std::log(p1e);
        g2 += std::log(p2e / p2);
        base2 += std::log(p2);
        ++n;
    }
    std::fprintf(out, "\n1MC EMC gain: %+.1f%% (paper: +17%% over noPF)\n",
                 100 * (std::exp(g1 / n) - 1.0));
    std::fprintf(out, "2MC baseline vs 1MC: %+.1f%% (paper: -0.8%%)\n",
                 100 * (std::exp(base2 / n) - 1.0));
    std::fprintf(out, "2MC EMC gain: %+.1f%% (paper: +16%%, slightly "
                      "below 1MC)\n",
                 100 * (std::exp(g2 / n) - 1.0));
}

// ---- Figure 20: sensitivity to DRAM channels and ranks, 1C1R up to
// 4C4R, with and without the EMC (normalized to 1C1R without it) on
// the contended, dependent-miss-heavy H4 mix.

struct DramPoint
{
    unsigned channels, ranks;
};
const DramPoint kFig20Points[] = {{1, 1}, {1, 2}, {2, 1}, {2, 2},
                                  {2, 4}, {4, 2}, {4, 4}};

std::vector<RunJob>
fig20Jobs()
{
    std::vector<RunJob> jobs;
    for (const DramPoint &pt : kFig20Points) {
        for (bool emc : {false, true}) {
            SystemConfig c = quadConfig(PrefetchConfig::kNone, emc);
            c.dram.channels = pt.channels;
            c.dram.ranks_per_channel = pt.ranks;
            c.mc_queue_entries = 64 * pt.channels;
            jobs.push_back({c, quadWorkloads()[3]});
        }
    }
    return jobs;
}

void
fig20Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 20", "sensitivity to channels x ranks",
           "EMC benefit persists across DRAM configs (+11% even at "
           "4C4R)");

    std::fprintf(out, "%-8s %10s %10s %10s\n", "config", "base", "+emc",
                 "emc-gain");
    const StatDump &base_1c1r = res[0].stats;
    for (std::size_t p = 0; p < std::size(kFig20Points); ++p) {
        const double pb = relPerf(res[2 * p].stats, base_1c1r, 4);
        const double pe = relPerf(res[2 * p + 1].stats, base_1c1r, 4);
        std::fprintf(out, "%uC%uR     %10.3f %10.3f %+9.1f%%\n",
                     kFig20Points[p].channels, kFig20Points[p].ranks, pb,
                     pe, 100 * (pe / pb - 1.0));
    }
    note(out, "");
    note(out, "expected shape: monotone performance growth with DRAM"
              " resources; the EMC gain is largest in the contended"
              " low-bank configs and remains positive at 4C4R.");
}

// ---- Figure 23: chip + DRAM energy for H1-H10 across the eight
// Figure 12 configurations, as percentage difference from the no-EMC
// no-prefetch baseline.

void
fig23Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 23", "energy consumption, H1-H10",
           "EMC -11% average; prefetchers increase energy");

    std::fprintf(out, "%-5s", "mix");
    for (PrefetchConfig pf : kPfs)
        std::fprintf(out, " %9s %9s", prefetchConfigName(pf), "+emc");
    std::fprintf(out, "   (energy vs no-PF baseline)\n");

    double emc_sum = 0, traffic_base = 0, traffic_stream = 0,
           traffic_emc = 0;
    unsigned n = 0;
    for (std::size_t h = 0; h < quadWorkloads().size(); ++h) {
        const RunResult *mix_res = &res[2 * kNumPfs * h];
        const double e0 = mix_res[0].stats.get("energy.total_mj");
        traffic_base += mix_res[0].stats.get("traffic.total");
        std::fprintf(out, "%-5s", quadWorkloadName(h).c_str());
        for (unsigned p = 0; p < kNumPfs; ++p) {
            const StatDump &noemc = mix_res[p].stats;
            const StatDump &emc = mix_res[kNumPfs + p].stats;
            std::fprintf(out, " %+8.1f%% %+8.1f%%",
                         100 * (noemc.get("energy.total_mj") / e0 - 1),
                         100 * (emc.get("energy.total_mj") / e0 - 1));
            if (p == 0) {
                emc_sum += emc.get("energy.total_mj") / e0 - 1;
                traffic_emc += emc.get("traffic.total");
            }
            if (kPfs[p] == PrefetchConfig::kStream)
                traffic_stream += noemc.get("traffic.total");
        }
        std::fprintf(out, "\n");
        ++n;
    }
    std::fprintf(out,
                 "\naverage EMC energy change: %+.1f%% (paper: -11%%)\n",
                 100 * emc_sum / n);
    std::fprintf(out, "memory traffic: EMC %+.1f%% vs stream %+.1f%% "
                      "(paper: EMC +8%% vs Markov+stream +52%%)\n",
                 100 * (traffic_emc / traffic_base - 1),
                 100 * (traffic_stream / traffic_base - 1));
    note(out, kMarkovNotModelled);
}

// ---- Figure 24: energy for the homogeneous quad-core workloads,
// relative to the no-EMC no-prefetch baseline.

std::vector<RunJob>
fig24Jobs()
{
    std::vector<RunJob> jobs;
    for (const auto &app : highIntensityNames()) {
        jobs.push_back({quadConfig(), homo(app)});
        jobs.push_back({quadConfig(PrefetchConfig::kNone, true), homo(app)});
        for (PrefetchConfig pf : {PrefetchConfig::kGhb,
                                  PrefetchConfig::kStream})
            jobs.push_back({quadConfig(pf), homo(app)});
    }
    return jobs;
}

void
fig24Render(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Figure 24", "energy, homogeneous workloads",
           "EMC -9% average; EMC traffic +3% vs prefetchers +8..45%");

    std::fprintf(out, "%-12s %9s %9s %9s\n", "benchmark", "+emc", "ghb",
                 "stream");
    double emc_sum = 0;
    unsigned n = 0;
    for (std::size_t a = 0; a < highIntensityNames().size(); ++a) {
        double rel[4];
        for (unsigned c = 0; c < 4; ++c) {
            rel[c] = res[4 * a + c].stats.get("energy.total_mj")
                         / res[4 * a].stats.get("energy.total_mj")
                     - 1;
        }
        std::fprintf(out, "%-12s %+8.1f%% %+8.1f%% %+8.1f%%\n",
                     highIntensityNames()[a].c_str(), 100 * rel[1],
                     100 * rel[2], 100 * rel[3]);
        emc_sum += rel[1];
        ++n;
    }
    std::fprintf(out,
                 "\naverage EMC energy change: %+.1f%% (paper: -9%%)\n",
                 100 * emc_sum / n);
    note(out, kMarkovNotModelled);
}

} // namespace

std::vector<Figure>
performanceFigures()
{
    return {
        {"fig12_quadcore_hetero", heteroJobs, fig12Render},
        {"fig13_quadcore_homo", fig13Jobs, fig13Render},
        {"fig14_eightcore", fig14Jobs, fig14Render},
        {"fig20_bandwidth_sensitivity", fig20Jobs, fig20Render},
        {"fig23_energy_hetero", heteroJobs, fig23Render},
        {"fig24_energy_homo", fig24Jobs, fig24Render},
    };
}

} // namespace emc::bench
