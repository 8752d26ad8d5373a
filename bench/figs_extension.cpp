/**
 * @file
 * Studies beyond the paper's figures: an ablation over the EMC's
 * design parameters, runahead execution and every prefetcher engine
 * next to the EMC, and two single-core studies over the irregular
 * kernel library (src/workload/irregular.cc) that also write JSON
 * artifacts: BENCH_diversity.json and BENCH_offchip.json.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/campaign.hh"
#include "workload/profile.hh"

namespace emc::bench
{

namespace
{

// ---- Ablation over the EMC design choices DESIGN.md calls out
// (beyond the paper's sensitivity analysis) on the H4 mix: contexts,
// chain length cap, indirection cap, data cache size, the
// direct-to-DRAM bypass (with its LLC hit/miss predictor) and the EMC
// TLB. Every variant touches only EMC / chain knobs, so all of them
// fork one warmup image taken under the no-EMC baseline (DESIGN.md §7).

struct Variant
{
    const char *name;
    void (*apply)(SystemConfig &);
};
const Variant kVariants[] = {
    {"emc (paper config)", [](SystemConfig &) {}},
    {"contexts=1", [](SystemConfig &c) { c.emc.contexts = 1; }},
    {"contexts=4", [](SystemConfig &c) { c.emc.contexts = 4; }},
    {"chain_cap=4 uops", [](SystemConfig &c) { c.core.chain_max_uops = 4; }},
    {"chain_cap=8 uops", [](SystemConfig &c) { c.core.chain_max_uops = 8; }},
    {"indirection=2 lines",
     [](SystemConfig &c) { c.core.chain_max_indirection = 2; }},
    {"indirection=3 lines",
     [](SystemConfig &c) { c.core.chain_max_indirection = 3; }},
    {"dcache=1 KB", [](SystemConfig &c) { c.emc.dcache_bytes = 1024; }},
    {"dcache=16 KB", [](SystemConfig &c) { c.emc.dcache_bytes = 16384; }},
    {"no direct-DRAM bypass",
     [](SystemConfig &c) { c.emc.direct_dram = false; }},
    {"emc tlb=8 entries", [](SystemConfig &c) { c.emc.tlb_entries = 8; }},
};

std::vector<RunJob>
ablationJobs()
{
    const auto &mix = quadWorkloads()[3];  // H4: mcf+sphinx3+soplex+libq
    const SystemConfig warm = quadConfig();
    std::vector<RunJob> jobs = {{warm, mix, warm}};  // no-EMC baseline
    for (const Variant &v : kVariants) {
        SystemConfig c = quadConfig(PrefetchConfig::kNone, true);
        v.apply(c);
        jobs.push_back({c, mix, warm});
    }
    return jobs;
}

void
ablationRender(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Ablation", "EMC parameter sensitivity (H4 mix)",
           "paper chose 2 contexts / 16-uop chains / 4 KB dcache via "
           "sensitivity analysis");

    const StatDump &base = res[0].stats;
    std::fprintf(out, "%-28s perf=%7.3f (no EMC baseline)\n", "baseline",
                 1.0);
    for (std::size_t i = 0; i < std::size(kVariants); ++i) {
        const StatDump &d = res[i + 1].stats;
        std::fprintf(out, "%-28s perf=%7.3f emcfrac=%5.1f%% "
                          "chains=%6.0f lat_emc=%6.1f\n",
                     kVariants[i].name, relPerf(d, base, 4),
                     100 * d.get("emc.miss_fraction"),
                     d.get("emc.chains_accepted"), d.get("lat.emc_total"));
    }
    note(out, "");
    note(out, "expected shape: the paper config is near the knee;"
              " removing the direct-DRAM bypass or shrinking the TLB"
              " hurts; extra contexts help under contention.");
}

/** A labelled workload of the two comparison studies below. */
struct Labelled
{
    const char *label;
    std::vector<std::string> mix;
};

// ---- Runahead execution [38] versus the EMC. The paper argues that
// pre-execution generates *independent* misses and must discard
// dependent ones, exactly the misses the EMC exists for. This
// quantifies that on a pointer chaser (runahead has nothing useful to
// prefetch), a streamer (runahead's best case) and a mix.

std::vector<Labelled>
runaheadWorkloads()
{
    return {{"4x mcf (dependent)", homo("mcf")},
            {"4x libquantum (streams)", homo("libquantum")},
            {"H4 mix", quadWorkloads()[3]}};
}

/** Runahead / EMC on-off per workload; the first is the baseline. */
const struct
{
    const char *name;
    bool runahead, emc;
} kRunaheadCfgs[] = {{"base", false, false},
                     {"runahead", true, false},
                     {"emc", false, true},
                     {"runahead+emc", true, true}};

std::vector<RunJob>
runaheadJobs()
{
    std::vector<RunJob> jobs;
    for (const Labelled &w : runaheadWorkloads()) {
        for (const auto &c : kRunaheadCfgs) {
            SystemConfig cfg = quadConfig(PrefetchConfig::kNone, c.emc);
            cfg.core.runahead_enabled = c.runahead;
            jobs.push_back({cfg, w.mix});
        }
    }
    return jobs;
}

void
runaheadRender(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Extension", "runahead execution vs the EMC",
           "runahead targets independent misses and discards "
           "dependent ones (paper Section 2)");

    std::size_t job = 0;
    for (const Labelled &w : runaheadWorkloads()) {
        const StatDump &base = res[job].stats;
        std::fprintf(out, "\n%s\n", w.label);
        std::fprintf(out, "  %-14s %9s %12s %12s\n", "config", "perf",
                     "ra-prefetch", "ra-dropped");
        std::fprintf(out, "  %-14s %9.3f\n", "base", 1.0);
        for (const auto &c : kRunaheadCfgs) {
            const StatDump &d = res[job++].stats;
            if (!c.runahead && !c.emc)
                continue;
            double ra_pf = 0, ra_drop = 0;
            for (unsigned i = 0; i < 4; ++i) {
                const std::string p = "core" + std::to_string(i) + ".";
                ra_pf += d.get(p + "runahead_prefetches");
                ra_drop += d.get(p + "runahead_dropped_loads");
            }
            std::fprintf(out, "  %-14s %9.3f %12.0f %12.0f\n", c.name,
                         relPerf(d, base, 4), ra_pf, ra_drop);
        }
    }
    note(out, "");
    note(out, "expected shape: runahead drops a flood of dependent loads"
              " on mcf (and its useless prefetches cost bandwidth),"
              " while the EMC serves exactly those loads; on streaming"
              " workloads the two mechanisms do not conflict.");
}

// ---- Every prefetcher engine side by side, including the Baer-Chen
// stride engine (an extra baseline beyond the paper's three):
// performance, accuracy, lateness, pollution and traffic.

std::vector<Labelled>
prefetcherWorkloads()
{
    return {{"4x libquantum (streams)", homo("libquantum")},
            {"4x mcf (pointers)", homo("mcf")},
            {"H2 mix", quadWorkloads()[1]}};
}

const PrefetchConfig kEngines[] = {
    PrefetchConfig::kGhb, PrefetchConfig::kStream, PrefetchConfig::kStride};

std::vector<RunJob>
prefetcherJobs()
{
    std::vector<RunJob> jobs;
    for (const Labelled &w : prefetcherWorkloads()) {
        jobs.push_back({quadConfig(), w.mix});
        for (PrefetchConfig pf : kEngines)
            jobs.push_back({quadConfig(pf), w.mix});
    }
    return jobs;
}

void
prefetcherRender(const Results &res, std::FILE *out, std::FILE *)
{
    banner(out, "Extension", "prefetcher engine comparison",
           "stream/stride excel on regular access, none helps "
           "dependent misses (Figure 3's point)");

    std::size_t job = 0;
    for (const Labelled &w : prefetcherWorkloads()) {
        const StatDump &base = res[job++].stats;
        const double traffic0 = base.get("traffic.total");
        std::fprintf(out, "\n%s\n", w.label);
        std::fprintf(out, "  %-14s %8s %9s %9s %8s %8s %9s\n", "engine",
                     "perf", "accuracy", "late", "pollut", "degree",
                     "traffic");
        for (PrefetchConfig pf : kEngines) {
            const StatDump &d = res[job++].stats;
            const double issued = std::max(1.0, d.get("prefetch.issued"));
            std::fprintf(out, "  %-14s %8.3f %8.1f%% %8.1f%% %7.1f%% %8.0f"
                              " %+8.1f%%\n",
                         prefetchConfigName(pf), relPerf(d, base, 4),
                         100 * d.get("prefetch.accuracy"),
                         100 * d.get("prefetch.late") / issued,
                         100 * d.get("prefetch.polluted") / issued,
                         d.get("prefetch.degree"),
                         100 * (d.get("traffic.total") / traffic0 - 1));
        }
    }
    note(out, "");
    note(out, kMarkovNotModelled);
    note(out, "expected shape: stream/stride help streams at high"
              " accuracy and modest traffic; nothing helps pure pointer"
              " chasing.");
}

/** Kernel family of an irregular profile (matches its dominant mix):
 *  graph = CSR frontier walks, hash = bucket-chain probes, gather =
 *  embedding-row gathers through a skewed index. */
const char *
familyOf(const std::string &name)
{
    if (name == "bfs" || name == "pagerank")
        return "graph";
    if (name == "hashjoin" || name == "btree")
        return "hash";
    return "gather";
}

/** A single-core Table 1 machine, without or with the EMC. */
SystemConfig
oneCore(bool emc)
{
    SystemConfig cfg = quadConfig(PrefetchConfig::kNone, emc);
    cfg.num_cores = 1;
    return cfg;
}

// ---- Workload diversity: how the EMC fares on the irregular kernel
// families beyond SPEC pointer chasing. Per profile, a single core
// without and with the EMC: the dependent-miss fraction, the dependent
// miss latency each side sees (core- vs EMC-issued), the share of
// dependent misses the EMC takes over and the relative performance.
// The JSON artifact lets CI assert every family is covered.

std::vector<RunJob>
diversityJobs()
{
    std::vector<RunJob> jobs;
    for (const std::string &name : irregularNames()) {
        jobs.push_back({oneCore(false), {name}});
        jobs.push_back({oneCore(true), {name}});
    }
    return jobs;
}

void
diversityRender(const Results &res, std::FILE *out, std::FILE *json)
{
    banner(out, "Extension", "EMC across irregular-workload families",
           "dependent-miss acceleration beyond SPEC pointer chasing");

    // Profile i's run without the EMC, with it, and the share of its
    // dependent misses the EMC issued (DRAM-serviced requests, the
    // sampled set of DESIGN.md §6).
    const auto &names = irregularNames();
    auto base = [&](std::size_t i) -> const StatDump & {
        return res[2 * i].stats;
    };
    auto with = [&](std::size_t i) -> const StatDump & {
        return res[2 * i + 1].stats;
    };
    auto emcShare = [&](std::size_t i) {
        const double cs = with(i).get("phase.core_dep.total_samples");
        const double es = with(i).get("phase.emc.total_samples");
        return (cs + es) > 0 ? es / (cs + es) : 0;
    };

    std::fprintf(out, "%-9s %-7s %8s %10s %10s %8s %8s\n", "profile",
                 "family", "dep%", "base(cyc)", "emc(cyc)", "emcshare",
                 "perf");
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(out, "%-9s %-7s %7.1f%% %10.1f %10.1f %7.1f%% %8.3f\n",
                     names[i].c_str(), familyOf(names[i]),
                     100 * base(i).get("core0.dep_miss_frac"),
                     base(i).get("phase.core_dep.total_avg"),
                     with(i).get("phase.emc.total_avg"), 100 * emcShare(i),
                     relPerf(with(i), base(i), 1));
    }

    note(out, "");
    note(out, "dep%     share of LLC misses whose address depends on a");
    note(out, "         prior miss (the chains the EMC targets)");
    note(out, "emc(cyc) latency of EMC-issued dependent misses; compare");
    note(out, "         base(cyc), the same misses issued from the core");
    note(out, "emcshare share of the dependent misses DRAM serviced");
    note(out, "         that the EMC issued");
    note(out, "");
    note(out, "bypass-predictor view (pred.emc.*, DESIGN.md §13):");
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(out, "  %-9s accuracy %5.1f%%  coverage %5.1f%%  "
                          "trainings %8.0f\n",
                     names[i].c_str(),
                     100 * with(i).get("pred.emc.accuracy"),
                     100 * with(i).get("pred.emc.coverage"),
                     with(i).get("pred.emc.trainings"));
    }
    note(out, "a zero emcshare with healthy predictor coverage (embed)");
    note(out, "means the misses were predictable but the chains halt at");
    note(out, "the EMC before issuing a load: the gather's scattered");
    note(out, "pages never fit the 32-entry EMC TLB (emc.halts_tlb), so");
    note(out, "every chain bounces back to the core on translation");
    std::vector<std::pair<std::string, std::vector<double>>> chart;
    for (std::size_t i = 0; i < names.size(); ++i) {
        chart.push_back({names[i], {base(i).get("phase.core_dep.total_avg"),
                                    with(i).get("phase.emc.total_avg")}});
    }
    groupedChart(out, {"core-issued", "emc-issued"}, chart);

    std::fprintf(json, "{\n  \"families\": [\n");
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(json,
                     "    {\"profile\": \"%s\", \"family\": \"%s\", "
                     "\"dep_miss_frac\": %.4f, "
                     "\"lat_base\": %.2f, \"lat_core\": %.2f, "
                     "\"lat_emc\": %.2f, \"emc_share\": %.4f, "
                     "\"rel_perf\": %.4f, "
                     "\"pred_accuracy\": %.4f, "
                     "\"pred_coverage\": %.4f, "
                     "\"pred_trainings\": %.0f}%s\n",
                     names[i].c_str(), familyOf(names[i]),
                     base(i).get("core0.dep_miss_frac"),
                     base(i).get("phase.core_dep.total_avg"),
                     with(i).get("phase.core_dep.total_avg"),
                     with(i).get("phase.emc.total_avg"), emcShare(i),
                     relPerf(with(i), base(i), 1),
                     with(i).get("pred.emc.accuracy"),
                     with(i).get("pred.emc.coverage"),
                     with(i).get("pred.emc.trainings"),
                     i + 1 < names.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fprintf(out, "\nwrote BENCH_diversity.json\n");
}

// ---- Off-chip predictor head-to-head. The paper gates the EMC's LLC
// bypass on a PC-hashed 3-bit table (Section 4.3); Hermes (Bera et
// al., MICRO 2022) instead predicts off-chip loads at the core with a
// perceptron and launches speculative DRAM probes at dispatch. Both
// sit behind the src/pred interface (DESIGN.md §13); five single-core
// machines per irregular profile, differing only in the prediction
// attach points:
//
//   base        no EMC, no prediction
//   emc-table   EMC, bypass gated on the paper's 3-bit table
//   emc-perc    EMC, bypass gated on the hashed perceptron
//   hermes      Hermes-at-core probes, no EMC
//   emc+hermes  EMC (table bypass) plus Hermes probes
//
// reporting each predictor's accuracy/coverage on the same LLC outcome
// stream plus the latency each mechanism saves.

enum OffchipCfg
{
    kBase = 0,
    kEmcTable,
    kEmcPerc,
    kHermes,
    kEmcHermes,
    kNumCfgs
};

std::vector<RunJob>
offchipJobs()
{
    std::vector<RunJob> jobs;
    for (const std::string &name : irregularNames()) {
        for (int c = 0; c < kNumCfgs; ++c) {
            SystemConfig cfg =
                oneCore(c == kEmcTable || c == kEmcPerc || c == kEmcHermes);
            if (c == kEmcPerc)
                cfg.emc.pred = pred::PredConfig::perceptron();
            if (c == kHermes || c == kEmcHermes)
                cfg.core.hermes_enabled = true;
            jobs.push_back({cfg, {name}});
        }
    }
    return jobs;
}

void
offchipRender(const Results &res, std::FILE *out, std::FILE *json)
{
    banner(out, "Extension", "off-chip predictor zoo head-to-head",
           "table vs perceptron vs Hermes-at-core vs EMC+Hermes");

    // Profile i's run under config c, and its relPerf against base.
    const auto &names = irregularNames();
    auto d = [&](std::size_t i, int c) -> const StatDump & {
        return res[i * kNumCfgs + c].stats;
    };
    auto perf = [&](std::size_t i, int c) {
        return relPerf(d(i, c), d(i, kBase), 1);
    };

    std::fprintf(out, "%-9s %-7s | %9s %9s | %9s %9s | %9s %9s\n",
                 "profile", "family", "tbl_acc", "tbl_cov", "perc_acc",
                 "perc_cov", "herm_acc", "herm_cov");
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(out, "%-9s %-7s | %8.1f%% %8.1f%% | %8.1f%% %8.1f%% "
                          "| %8.1f%% %8.1f%%\n",
                     names[i].c_str(), familyOf(names[i]),
                     100 * d(i, kEmcTable).get("pred.emc.accuracy"),
                     100 * d(i, kEmcTable).get("pred.emc.coverage"),
                     100 * d(i, kEmcPerc).get("pred.emc.accuracy"),
                     100 * d(i, kEmcPerc).get("pred.emc.coverage"),
                     100 * d(i, kHermes).get("pred.hermes.accuracy"),
                     100 * d(i, kHermes).get("pred.hermes.coverage"));
    }

    note(out, "");
    note(out, "accuracy  trained-outcome agreement on the LLC stream the");
    note(out, "          attach point sees (EMC engines share one stream,");
    note(out, "          so table vs perceptron is like-for-like)");
    note(out, "coverage  fraction of actual off-chip misses predicted");
    std::fprintf(out, "\n%-9s %10s %10s %10s %10s\n", "profile",
                 "emc-table", "emc-perc", "hermes", "emc+hermes");
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(out, "%-9s %10.4f %10.4f %10.4f %10.4f\n",
                     names[i].c_str(), perf(i, kEmcTable),
                     perf(i, kEmcPerc), perf(i, kHermes),
                     perf(i, kEmcHermes));
    }
    std::vector<std::pair<std::string, std::vector<double>>> chart;
    for (std::size_t i = 0; i < names.size(); ++i) {
        chart.push_back({names[i],
                         {d(i, kEmcTable).get("pred.emc.accuracy"),
                          d(i, kEmcPerc).get("pred.emc.accuracy"),
                          d(i, kHermes).get("pred.hermes.accuracy")}});
    }
    groupedChart(out, {"table", "perceptron", "hermes"}, chart);

    std::fprintf(json, "{\n  \"profiles\": [\n");
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(
            json,
            "    {\"profile\": \"%s\", \"family\": \"%s\",\n"
            "     \"table\": {\"accuracy\": %.4f, \"coverage\": %.4f, "
            "\"bypass_cycles_saved\": %.0f, \"rel_perf\": %.4f},\n"
            "     \"perceptron\": {\"accuracy\": %.4f, "
            "\"coverage\": %.4f, \"rel_perf\": %.4f},\n"
            "     \"hermes\": {\"accuracy\": %.4f, \"coverage\": %.4f, "
            "\"saved_cycles\": %.0f, \"avg_head_start\": %.2f, "
            "\"rel_perf\": %.4f},\n"
            "     \"emc_hermes\": {\"rel_perf\": %.4f}}%s\n",
            names[i].c_str(), familyOf(names[i]),
            d(i, kEmcTable).get("pred.emc.accuracy"),
            d(i, kEmcTable).get("pred.emc.coverage"),
            d(i, kEmcTable).get("pred.emc.bypass_cycles_saved"),
            perf(i, kEmcTable), d(i, kEmcPerc).get("pred.emc.accuracy"),
            d(i, kEmcPerc).get("pred.emc.coverage"), perf(i, kEmcPerc),
            d(i, kHermes).get("pred.hermes.accuracy"),
            d(i, kHermes).get("pred.hermes.coverage"),
            d(i, kHermes).get("hermes.saved_cycles"),
            d(i, kHermes).get("hermes.avg_head_start"), perf(i, kHermes),
            perf(i, kEmcHermes), i + 1 < names.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fprintf(out, "\nwrote BENCH_offchip.json\n");
}

} // namespace

std::vector<Figure>
extensionFigures()
{
    return {
        {"ablation_emc_params", ablationJobs, ablationRender},
        {"ext_runahead_vs_emc", runaheadJobs, runaheadRender},
        {"ext_prefetcher_comparison", prefetcherJobs, prefetcherRender},
        {"ext_workload_diversity", diversityJobs, diversityRender,
         "BENCH_diversity.json"},
        {"ext_offchip_prediction", offchipJobs, offchipRender,
         "BENCH_offchip.json"},
    };
}

} // namespace emc::bench
