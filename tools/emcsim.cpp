/**
 * @file
 * emcsim — command-line driver for the simulator.
 *
 * Runs any mix of benchmark profiles under any of the paper's
 * configurations and prints (or exports) the full statistics dump.
 *
 *   emcsim --workload mcf,sphinx3,soplex,libquantum --emc --pf ghb
 *   emcsim --mix H4 --emc --uops 50000 --warmup 25000 --csv out.csv
 *   emcsim --workload mcf --cores 1 --runahead --stats lat,emc
 *   emcsim --list
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "sim/system.hh"
#include "trace/format.hh"
#include "workload/profile.hh"

namespace
{

using namespace emc;

void
usage()
{
    std::printf(
        "emcsim — Enhanced Memory Controller simulator driver\n"
        "\n"
        "workload selection (one of):\n"
        "  --workload a,b,c,...   benchmark per core (repeat last to"
        " fill)\n"
        "  --mix H1..H10          a paper Table 3 mix\n"
        "  --list                 list benchmark profiles and mixes\n"
        "\n"
        "configuration:\n"
        "  --cores N              core count (default 4; 8 supported)\n"
        "  --dual-mc              two memory controllers (8-core)\n"
        "  --pf none|ghb|stream|stride|pickle  prefetcher\n"
        "  --emc                  enable the Enhanced Memory"
        " Controller\n"
        "  --runahead             enable runahead execution\n"
        "\n"
        "off-chip prediction (DESIGN.md §13):\n"
        "  --predictor table|perceptron\n"
        "                         EMC LLC-bypass predictor engine\n"
        "                         (default table, the paper's 3-bit"
        " PC\n"
        "                         hash; perceptron is Hermes-style)\n"
        "  --hermes               core-side off-chip prediction:"
        " loads\n"
        "                         predicted to miss launch"
        " speculative\n"
        "                         DRAM probes at dispatch\n"
        "  --perc-entries N       perceptron weight rows per feature\n"
        "                         (default 2048)\n"
        "  --perc-activation N    perceptron activation threshold\n"
        "                         (default 2)\n"
        "  --perc-theta N         perceptron training threshold\n"
        "                         (default 16)\n"
        "  --ideal-dep-hits       Figure 2 idealization\n"
        "  --channels N --ranks N DRAM geometry\n"
        "  --sched batch|frfcfs   memory scheduler (default batch)\n"
        "  --emc-contexts N       EMC issue contexts\n"
        "  --chain-cap N          max uops per chain\n"
        "  --indirection N        max new lines per chain\n"
        "\n"
        "run control:\n"
        "  --uops N               retired uops per core (default"
        " 50000)\n"
        "  --capture PREFIX       record uop streams to"
        " PREFIX.coreN.emct\n"
        "  --trace-in f1,f2,...   replay v2 trace containers; workload\n"
        "                         names come from their headers\n"
        "  --warmup N             warmup uops (default uops/2)\n"
        "  --seed N               RNG seed\n"
        "\n"
        "checkpointing (DESIGN.md §7):\n"
        "  --save-ckpt FILE       save a checkpoint to FILE\n"
        "  --ckpt-at N            with --save-ckpt (full level): save\n"
        "                         at the first cycle >= N, keep"
        " running\n"
        "  --ckpt-level full|warmup\n"
        "                         full (default): complete state,\n"
        "                         restore needs the identical config;\n"
        "                         warmup: warmed caches/predictors"
        " only,\n"
        "                         restorable into differing EMC/\n"
        "                         prefetcher configs (saves and"
        " exits)\n"
        "  --restore-ckpt FILE    restore FILE before running\n"
        "  --ckpt-compress        deflate-compress saved images (zlib\n"
        "                         builds; reads are always"
        " transparent)\n"
        "\n"
        "functional warming + sampling (DESIGN.md §8):\n"
        "  --fastwarm-to N        with --save-ckpt: fast-forward N"
        " uops\n"
        "                         per core through tag-only warming,\n"
        "                         write a warmup-level image and exit\n"
        "  --fastwarm-validate    warm once detailed and once fast,\n"
        "                         compare predictor/TLB/cache state"
        " and\n"
        "                         exit nonzero on disagreement\n"
        "  --sample-period N      SMARTS sampling: total uops per core\n"
        "                         per window (fast-forward + detail)\n"
        "  --sample-detail N      uops per core simulated in detail"
        " at\n"
        "                         each window head (default"
        " period/10)\n"
        "\n"
        "observability (DESIGN.md §6):\n"
        "  --trace FILE           write a Chrome trace_event JSON of\n"
        "                         every transaction lifecycle\n"
        "  --trace-interval N     with --trace: also stream the stat\n"
        "                         registry to FILE.jsonl every N"
        " cycles\n"
        "\n"
        "output:\n"
        "  --stats prefix[,..]    print only stats matching prefixes\n"
        "  --csv FILE             append name,value rows\n"
        "  --json FILE            write the full dump as JSON\n"
        "  --quiet                print only the summary line\n");
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end && *end == '\0';
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

void
listWorkloads()
{
    std::printf("high-intensity benchmarks (MPKI >= 10):\n ");
    for (const auto &n : highIntensityNames())
        std::printf(" %s", n.c_str());
    std::printf("\nlow-intensity benchmarks:\n ");
    for (const auto &n : lowIntensityNames())
        std::printf(" %s", n.c_str());
    std::printf("\nirregular-workload families (trace library):\n ");
    for (const auto &n : irregularNames())
        std::printf(" %s", n.c_str());
    std::printf("\nmixes (Table 3):\n");
    for (std::size_t h = 0; h < quadWorkloads().size(); ++h) {
        std::printf("  %-4s", quadWorkloadName(h).c_str());
        for (const auto &b : quadWorkloads()[h])
            std::printf(" %s", b.c_str());
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace emc;

    SystemConfig cfg;
    cfg.target_uops = 50000;
    std::uint64_t warmup = ~0ull;
    std::vector<std::string> workload;
    std::vector<std::string> stat_prefixes;
    std::string csv_path;
    std::string json_path;
    bool quiet = false;
    bool dual_mc = false;
    unsigned cores = 0;
    std::string save_ckpt;
    std::string restore_ckpt;
    std::uint64_t ckpt_at = ~0ull;
    ckpt::Level ckpt_level = ckpt::Level::kFull;
    bool ckpt_compress = false;
    std::uint64_t fastwarm_to = 0;
    bool fastwarm_validate = false;
    std::uint64_t sample_period = 0;
    std::uint64_t sample_detail = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--list") {
            listWorkloads();
            return 0;
        } else if (a == "--workload") {
            workload = splitCommas(need("--workload"));
        } else if (a == "--mix") {
            const std::string m = need("--mix");
            bool found = false;
            for (std::size_t h = 0; h < quadWorkloads().size(); ++h) {
                if (quadWorkloadName(h) == m) {
                    workload = quadWorkloads()[h];
                    found = true;
                }
            }
            if (!found) {
                std::fprintf(stderr, "unknown mix %s\n", m.c_str());
                return 2;
            }
        } else if (a == "--cores") {
            std::uint64_t v;
            if (!parseU64(need("--cores"), v)) return 2;
            cores = static_cast<unsigned>(v);
        } else if (a == "--dual-mc") {
            dual_mc = true;
        } else if (a == "--pf") {
            const std::string p = need("--pf");
            if (p == "none") cfg.prefetch = PrefetchConfig::kNone;
            else if (p == "ghb") cfg.prefetch = PrefetchConfig::kGhb;
            else if (p == "stream")
                cfg.prefetch = PrefetchConfig::kStream;
            else if (p == "stride")
                cfg.prefetch = PrefetchConfig::kStride;
            else if (p == "pickle")
                cfg.prefetch = PrefetchConfig::kPickle;
            else {
                std::fprintf(stderr, "unknown prefetcher %s\n",
                             p.c_str());
                return 2;
            }
        } else if (a == "--emc") {
            cfg.emc_enabled = true;
        } else if (a == "--predictor") {
            const std::string p = need("--predictor");
            if (p == "table")
                cfg.emc.pred.kind = pred::PredKind::kTable;
            else if (p == "perceptron")
                cfg.emc.pred.kind = pred::PredKind::kPerceptron;
            else {
                std::fprintf(stderr, "unknown predictor %s\n",
                             p.c_str());
                return 2;
            }
        } else if (a == "--hermes") {
            cfg.core.hermes_enabled = true;
        } else if (a == "--perc-entries") {
            std::uint64_t v;
            if (!parseU64(need("--perc-entries"), v)) return 2;
            cfg.emc.pred.perc_entries = static_cast<unsigned>(v);
            cfg.core.hermes_pred.perc_entries =
                static_cast<unsigned>(v);
        } else if (a == "--perc-activation") {
            std::uint64_t v;
            if (!parseU64(need("--perc-activation"), v)) return 2;
            cfg.emc.pred.perc_activation = static_cast<int>(v);
            cfg.core.hermes_pred.perc_activation =
                static_cast<int>(v);
        } else if (a == "--perc-theta") {
            std::uint64_t v;
            if (!parseU64(need("--perc-theta"), v)) return 2;
            cfg.emc.pred.perc_training_threshold =
                static_cast<int>(v);
            cfg.core.hermes_pred.perc_training_threshold =
                static_cast<int>(v);
        } else if (a == "--runahead") {
            cfg.core.runahead_enabled = true;
        } else if (a == "--ideal-dep-hits") {
            cfg.ideal_dependent_hits = true;
        } else if (a == "--channels") {
            std::uint64_t v;
            if (!parseU64(need("--channels"), v)) return 2;
            cfg.dram.channels = static_cast<unsigned>(v);
        } else if (a == "--ranks") {
            std::uint64_t v;
            if (!parseU64(need("--ranks"), v)) return 2;
            cfg.dram.ranks_per_channel = static_cast<unsigned>(v);
        } else if (a == "--sched") {
            const std::string p = need("--sched");
            cfg.sched = p == "frfcfs" ? SchedPolicy::kFrFcfs
                                      : SchedPolicy::kBatch;
        } else if (a == "--emc-contexts") {
            std::uint64_t v;
            if (!parseU64(need("--emc-contexts"), v)) return 2;
            cfg.emc.contexts = static_cast<unsigned>(v);
        } else if (a == "--chain-cap") {
            std::uint64_t v;
            if (!parseU64(need("--chain-cap"), v)) return 2;
            cfg.core.chain_max_uops = static_cast<unsigned>(v);
        } else if (a == "--indirection") {
            std::uint64_t v;
            if (!parseU64(need("--indirection"), v)) return 2;
            cfg.core.chain_max_indirection = static_cast<unsigned>(v);
        } else if (a == "--uops") {
            if (!parseU64(need("--uops"), cfg.target_uops)) return 2;
        } else if (a == "--warmup") {
            if (!parseU64(need("--warmup"), warmup)) return 2;
        } else if (a == "--seed") {
            if (!parseU64(need("--seed"), cfg.seed)) return 2;
        } else if (a == "--stats") {
            stat_prefixes = splitCommas(need("--stats"));
        } else if (a == "--capture") {
            cfg.capture_prefix = need("--capture");
        } else if (a == "--trace-in") {
            cfg.trace_files = splitCommas(need("--trace-in"));
        } else if (a == "--save-ckpt") {
            save_ckpt = need("--save-ckpt");
        } else if (a == "--restore-ckpt") {
            restore_ckpt = need("--restore-ckpt");
        } else if (a == "--ckpt-at") {
            if (!parseU64(need("--ckpt-at"), ckpt_at)) return 2;
        } else if (a == "--ckpt-level") {
            const std::string l = need("--ckpt-level");
            if (l == "full") ckpt_level = ckpt::Level::kFull;
            else if (l == "warmup") ckpt_level = ckpt::Level::kWarmup;
            else {
                std::fprintf(stderr, "unknown checkpoint level %s\n",
                             l.c_str());
                return 2;
            }
        } else if (a == "--ckpt-compress") {
            ckpt_compress = true;
        } else if (a == "--fastwarm-to") {
            if (!parseU64(need("--fastwarm-to"), fastwarm_to)) return 2;
        } else if (a == "--fastwarm-validate") {
            fastwarm_validate = true;
        } else if (a == "--sample-period") {
            if (!parseU64(need("--sample-period"), sample_period))
                return 2;
        } else if (a == "--sample-detail") {
            if (!parseU64(need("--sample-detail"), sample_detail))
                return 2;
        } else if (a == "--trace") {
            cfg.trace_path = need("--trace");
        } else if (a == "--trace-interval") {
            std::uint64_t v;
            if (!parseU64(need("--trace-interval"), v)) return 2;
            cfg.trace_interval = v;
        } else if (a == "--json") {
            json_path = need("--json");
        } else if (a == "--csv") {
            csv_path = need("--csv");
        } else if (a == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown flag %s (try --help)\n",
                         a.c_str());
            return 2;
        }
    }

    if (!cfg.trace_files.empty()) {
        // Workload names come from the container headers, recorded at
        // capture time — never guessed.
        if (!workload.empty()) {
            std::fprintf(stderr,
                         "--trace-in derives workload names from the"
                         " trace headers; drop --workload/--mix\n");
            return 2;
        }
        for (const auto &path : cfg.trace_files) {
            try {
                const trace::Info info = trace::probeFile(path);
                if (info.provenance.workload.empty()) {
                    std::fprintf(stderr,
                                 "%s: trace carries no workload"
                                 " provenance; re-record it with"
                                 " emctracegen or --capture\n",
                                 path.c_str());
                    return 2;
                }
                workload.push_back(info.provenance.workload);
            } catch (const trace::Error &e) {
                std::fprintf(stderr, "trace error: %s\n", e.what());
                return 1;
            }
        }
    }
    if (workload.empty()) {
        usage();
        return 2;
    }

    if (cores == 0)
        cores = static_cast<unsigned>(workload.size());
    if (cores == 8 || dual_mc)
        cfg.scaleToEightCores(dual_mc);
    cfg.num_cores = cores;
    while (workload.size() < cores)
        workload.push_back(workload.back());
    workload.resize(cores);
    cfg.warmup_uops = warmup == ~0ull ? cfg.target_uops / 2 : warmup;

    if ((!save_ckpt.empty() || !restore_ckpt.empty())
        && (!cfg.trace_path.empty() || !cfg.capture_prefix.empty())) {
        std::fprintf(stderr,
                     "checkpointing cannot be combined with --trace or"
                     " --capture (their file offsets are not"
                     " restorable)\n");
        return 2;
    }
    if (save_ckpt.empty() && ckpt_at != ~0ull) {
        std::fprintf(stderr, "--ckpt-at requires --save-ckpt\n");
        return 2;
    }
    if (ckpt_compress && !ckpt::compressionAvailable()) {
        std::fprintf(stderr, "--ckpt-compress needs a zlib-enabled"
                             " build\n");
        return 2;
    }
    if (fastwarm_to != 0 && save_ckpt.empty()) {
        std::fprintf(stderr, "--fastwarm-to requires --save-ckpt\n");
        return 2;
    }
    if (sample_detail != 0 && sample_period == 0) {
        std::fprintf(stderr,
                     "--sample-detail requires --sample-period\n");
        return 2;
    }
    if (sample_period != 0) {
        if (sample_detail == 0)
            sample_detail = std::max<std::uint64_t>(sample_period / 10, 1);
        if (sample_detail > sample_period) {
            std::fprintf(stderr, "--sample-detail must be <="
                                 " --sample-period\n");
            return 2;
        }
    }
    if (!save_ckpt.empty() && fastwarm_to == 0
        && ckpt_level == ckpt::Level::kFull
        && ckpt_at == ~0ull) {
        std::fprintf(stderr, "--save-ckpt at the full level needs"
                             " --ckpt-at N (warmup level saves after"
                             " the warmup phase instead)\n");
        return 2;
    }

    if (fastwarm_validate) {
        // Warm one machine through the detailed pipeline and one
        // through the tag-only fast path, then compare the warmable
        // state (DESIGN.md §8). Frame allocation order differs, so
        // caches/TLBs are compared in virtual space; the predictors
        // must match bit-for-bit once the fast path replays the exact
        // per-core dispatched uop counts.
        if (cfg.warmup_uops == 0) {
            std::fprintf(stderr,
                         "--fastwarm-validate needs --warmup > 0\n");
            return 2;
        }
        try {
            System detailed(cfg, workload);
            (void)detailed.warmupCheckpointBytes();
            std::vector<std::uint64_t> dispatched(cfg.num_cores);
            for (unsigned i = 0; i < cfg.num_cores; ++i) {
                dispatched[i] =
                    detailed.uopsProduced(i)
                    - (detailed.core(i).hasDeferredUop() ? 1 : 0);
            }
            System fast(cfg, workload);
            fast.fastForward(dispatched);
            const WarmStateDiff d = compareWarmState(detailed, fast);
            std::printf("fastwarm validation:\n"
                        "  branch predictors : %s\n"
                        "  tlb overlap       : %.4f\n"
                        "  l1 overlap        : %.4f (%zu vs %zu lines)\n"
                        "  llc overlap       : %.4f (%zu vs %zu lines)\n",
                        d.bp_equal ? "byte-identical" : "DIVERGED",
                        d.tlb_jaccard, d.l1_jaccard, d.l1_lines_a,
                        d.l1_lines_b, d.llc_jaccard, d.llc_lines_a,
                        d.llc_lines_b);
            const bool ok = d.bp_equal && d.tlb_jaccard >= 0.8
                            && d.l1_jaccard >= 0.6
                            && d.llc_jaccard >= 0.7;
            std::printf("fastwarm validation %s\n",
                        ok ? "PASSED" : "FAILED");
            return ok ? 0 : 1;
        } catch (const ckpt::Error &e) {
            std::fprintf(stderr, "fastwarm validation error: %s\n",
                         e.what());
            return 1;
        }
    }

    std::unique_ptr<System> sys_p;
    try {
        sys_p = std::make_unique<System>(cfg, workload);
    } catch (const trace::Error &e) {
        std::fprintf(stderr, "trace error: %s\n", e.what());
        return 1;
    }
    System &sys = *sys_p;
    sys.setCkptCompress(ckpt_compress);
    try {
        if (!restore_ckpt.empty())
            sys.restoreCheckpoint(restore_ckpt);
        if (fastwarm_to != 0) {
            // Dedicated fast-warming run: produce a warmup-level image
            // without ever entering detailed simulation.
            SystemConfig warm_cfg = cfg;
            warm_cfg.warmup_uops = fastwarm_to;
            System warm(warm_cfg, workload);
            ckpt::writeFile(save_ckpt, warm.fastwarmCheckpointBytes(),
                            ckpt_compress);
            std::printf("wrote fastwarm checkpoint %s\n",
                        save_ckpt.c_str());
            return 0;
        }
        if (!save_ckpt.empty()) {
            if (ckpt_level == ckpt::Level::kWarmup) {
                // Draining to the warmup snapshot perturbs this run's
                // timing, so a warmup-level saver is a dedicated run:
                // write the image and exit.
                sys.saveCheckpoint(save_ckpt, ckpt::Level::kWarmup);
                std::printf("wrote warmup checkpoint %s\n",
                            save_ckpt.c_str());
                return 0;
            }
            sys.scheduleCheckpoint(save_ckpt, ckpt_at);
        }
        if (sample_period != 0) {
            SampleParams p;
            p.period = sample_period;
            p.detail = sample_detail;
            const SampledStats s = sys.runSampled(p);
            std::printf("sampled: windows=%llu ipc=%.4f +-%.4f"
                        " dep_lat=%.1f +-%.1f (95%% CI)\n",
                        static_cast<unsigned long long>(s.windows),
                        s.ipc_mean, s.ipc_ci95, s.dep_lat_mean,
                        s.dep_lat_ci95);
        } else {
            sys.run();
        }
    } catch (const ckpt::Error &e) {
        std::fprintf(stderr, "checkpoint error: %s\n", e.what());
        return 1;
    } catch (const trace::Error &e) {
        std::fprintf(stderr, "trace error: %s\n", e.what());
        return 1;
    }
    const StatDump d = sys.dump();

    if (!quiet) {
        if (stat_prefixes.empty()) {
            std::fputs(d.format().c_str(), stdout);
        } else {
            for (const auto &[name, value] : d.all()) {
                for (const auto &prefix : stat_prefixes) {
                    if (name.rfind(prefix, 0) == 0) {
                        std::printf("%-56s %18.6f\n", name.c_str(),
                                    value);
                        break;
                    }
                }
            }
        }
    }

    std::printf("summary: cycles=%.0f ipc_sum=%.4f llc_misses=%.0f "
                "emc_frac=%.3f energy_mj=%.2f\n",
                d.get("system.cycles"), d.get("system.ipc_sum"),
                d.get("llc.demand_misses"), d.get("emc.miss_fraction"),
                d.get("energy.total_mj"));

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        out << d.toJson();
    }
    if (!csv_path.empty()) {
        std::ofstream out(csv_path, std::ios::app);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
            return 1;
        }
        for (const auto &[name, value] : d.all())
            out << name << "," << value << "\n";
    }
    return 0;
}
