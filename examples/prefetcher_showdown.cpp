/**
 * @file
 * Example: prefetchers versus the EMC on a heterogeneous mix. Shows
 * the paper's central comparison — prefetchers help streaming
 * benchmarks but barely touch dependent misses (and burn bandwidth),
 * while the EMC accelerates exactly the misses prefetchers cannot
 * predict. The two compose.
 */

#include <cmath>
#include <cstdio>

#include "sim/system.hh"
#include "workload/profile.hh"

int
main()
{
    using namespace emc;

    const std::vector<std::string> mix =
        quadWorkloads()[3];  // H4: mcf+sphinx3+soplex+libquantum

    SystemConfig base;
    base.target_uops = targetUopsFromEnv(25000);
    base.warmup_uops = base.target_uops / 2;

    std::printf("prefetcher showdown on H4 (mcf sphinx3 soplex "
                "libquantum)\n\n");
    std::printf("%-18s %8s %8s %9s %10s %9s\n", "config", "perf",
                "mcf-ipc", "traffic", "dep-cover", "energy");

    System b(base, mix);
    b.run();
    const StatDump db = b.dump();
    const double traffic0 = db.get("traffic.total");
    const double energy0 = db.get("energy.total_mj");

    struct Config
    {
        const char *name;
        PrefetchConfig pf;
        bool emc;
    };
    const Config configs[] = {
        {"no-pf", PrefetchConfig::kNone, false},
        {"ghb", PrefetchConfig::kGhb, false},
        {"stream", PrefetchConfig::kStream, false},
        {"emc", PrefetchConfig::kNone, true},
        {"ghb+emc", PrefetchConfig::kGhb, true},
    };

    for (const Config &c : configs) {
        SystemConfig cfg = base;
        cfg.prefetch = c.pf;
        cfg.emc_enabled = c.emc;
        System s(cfg, mix);
        s.run();
        const StatDump d = s.dump();
        double perf = 1;
        {
            double log_sum = 0;
            for (int i = 0; i < 4; ++i) {
                const std::string k = "core" + std::to_string(i)
                                      + ".ipc";
                log_sum += std::log(d.get(k) / db.get(k));
            }
            perf = std::exp(log_sum / 4);
        }
        const double dep_total = d.get("llc.dep_misses")
                                 + d.get("llc.dep_misses_covered_by_pf");
        std::printf("%-18s %8.3f %8.4f %+8.1f%% %9.1f%% %+8.1f%%\n",
                    c.name, perf, d.get("core0.ipc"),
                    100 * (d.get("traffic.total") / traffic0 - 1),
                    dep_total > 0
                        ? 100 * d.get("llc.dep_misses_covered_by_pf")
                              / dep_total
                        : 0.0,
                    100 * (d.get("energy.total_mj") / energy0 - 1));
    }

    std::printf("\nreading guide: prefetchers raise traffic and cover"
                " few dependent misses;\nthe EMC serves dependent"
                " misses directly with little extra traffic, and\n"
                "composes with GHB prefetching.\n");
    return 0;
}
