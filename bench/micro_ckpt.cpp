/**
 * @file
 * Checkpoint/restore microbench (BENCH_ckpt.json).
 *
 * Part 1 proves the full-level roundtrip on a fig13-class config:
 * run straight through, then run again with a checkpoint scheduled
 * mid-run, restore it into a fresh System and run to the end. All
 * three stat dumps must be identical to the last bit (exit 1 if not),
 * and the save / restore wall costs and image size are recorded.
 *
 * Part 2 measures the warm-once-fork-many win: N ablation-style
 * config points run once as warm-shared runMany() jobs and once in a
 * loop that builds each point its own warm image, both on one thread
 * so the wall-clock difference is the redundant warmup work and not
 * scheduling luck. Both modes must produce identical stats.
 *
 * Usage: micro_ckpt [--smoke] [output.json]
 *   --smoke   tiny run lengths (CI sanity run)
 *   default output path: BENCH_ckpt.json
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "ckpt/ckpt.hh"

namespace
{

using namespace emc;

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Exact (bitwise) stat-dump equality; prints the first mismatch. */
bool
sameStats(const StatDump &a, const StatDump &b, const char *what)
{
    if (a.all().size() != b.all().size()) {
        std::printf("ERROR: %s: %zu vs %zu stats\n", what,
                    a.all().size(), b.all().size());
        return false;
    }
    auto ia = a.all().begin();
    auto ib = b.all().begin();
    for (; ia != a.all().end(); ++ia, ++ib) {
        if (ia->first != ib->first || ia->second != ib->second) {
            std::printf("ERROR: %s: %s=%.17g vs %s=%.17g\n", what,
                        ia->first.c_str(), ia->second,
                        ib->first.c_str(), ib->second);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace emc::bench;

    bool smoke = false;
    std::string out_path = "BENCH_ckpt.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            out_path = argv[i];
    }

    const std::uint64_t uops = smoke ? 2000 : 20000;

    SystemConfig cfg;
    cfg.prefetch = PrefetchConfig::kGhb;
    cfg.emc_enabled = true;
    cfg.target_uops = uops;
    cfg.warmup_uops = uops / 2;
    const std::vector<std::string> mix = homo("mcf");

    // ---- Part 1: full-level roundtrip identity + cost -------------
    std::printf("full-level roundtrip (4x mcf, EMC+GHB, %llu "
                "uops/core)\n",
                static_cast<unsigned long long>(uops));
    System straight(cfg, mix);
    straight.run();
    const StatDump d_straight = straight.dump();
    const Cycle mid = straight.cycles() / 2;

    const std::string ckpt_path = out_path + ".roundtrip.ckpt";
    System saver(cfg, mix);
    saver.scheduleCheckpoint(ckpt_path, mid);
    saver.run();
    const StatDump d_saver = saver.dump();

    System restored(cfg, mix);
    const auto t0 = std::chrono::steady_clock::now();
    restored.restoreCheckpoint(ckpt_path);
    const auto t1 = std::chrono::steady_clock::now();
    restored.run();
    const StatDump d_restored = restored.dump();

    const double restore_s = seconds(t0, t1);
    const std::size_t full_bytes = ckpt::readFile(ckpt_path).size();
    std::remove(ckpt_path.c_str());

    if (!sameStats(d_straight, d_saver, "saving run vs straight")
        || !sameStats(d_straight, d_restored,
                      "restored run vs straight")) {
        return 1;
    }
    std::printf("  image: %zu bytes (saved at cycle %llu), restore "
                "%.1f ms, stats identical\n",
                full_bytes, static_cast<unsigned long long>(mid),
                1e3 * restore_s);

    // ---- Part 2: shared vs per-job warmup -------------------------
    SystemConfig warm_cfg;
    warm_cfg.target_uops = uops;
    warm_cfg.warmup_uops = uops / 2;

    std::vector<SystemConfig> cfgs;
    cfgs.push_back(warm_cfg);
    for (bool emc_on : {true, false}) {
        for (PrefetchConfig pf :
             {PrefetchConfig::kGhb, PrefetchConfig::kStream}) {
            SystemConfig c = warm_cfg;
            c.emc_enabled = emc_on;
            c.prefetch = pf;
            cfgs.push_back(c);
        }
    }

    std::printf("shared-warmup sweep (%zu config points, 1 thread)\n",
                cfgs.size());
    setenv("EMC_BENCH_THREADS", "1", 1);
    std::vector<RunJob> jobs;
    for (const SystemConfig &c : cfgs)
        jobs.push_back({c, mix, warm_cfg});

    const auto s0 = std::chrono::steady_clock::now();
    const std::vector<StatDump> shared = runMany(jobs);
    const auto s1 = std::chrono::steady_clock::now();

    unsetenv("EMC_BENCH_THREADS");

    const auto n0 = std::chrono::steady_clock::now();
    std::vector<StatDump> perjob;
    for (const SystemConfig &point : cfgs) {
        const std::vector<std::uint8_t> own =
            System(warm_cfg, mix).warmupCheckpointBytes();
        SystemConfig c = point;
        c.warmup_uops = 0;
        System sys(c, mix);
        sys.restoreCheckpointBytes(own);
        sys.run();
        perjob.push_back(sys.dump());
    }
    const auto n1 = std::chrono::steady_clock::now();

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (!sameStats(shared[i], perjob[i],
                       ("shared vs per-job warmup, config "
                        + std::to_string(i))
                           .c_str())) {
            return 1;
        }
    }

    const double shared_s = seconds(s0, s1);
    const double perjob_s = seconds(n0, n1);
    const std::size_t warm_bytes =
        System(warm_cfg, mix).warmupCheckpointBytes().size();
    std::printf("  shared:  %7.2fs (1 warmup + %zu measured runs)\n",
                shared_s, cfgs.size());
    std::printf("  per-job: %7.2fs (%zu warmups)\n", perjob_s,
                cfgs.size());
    std::printf("  speedup: %7.2fx, stats identical\n",
                perjob_s / shared_s);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::perror("fopen");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"uops_per_core\": %llu,\n",
                 static_cast<unsigned long long>(uops));
    std::fprintf(f, "  \"roundtrip\": {\n");
    std::fprintf(f, "    \"save_cycle\": %llu,\n",
                 static_cast<unsigned long long>(mid));
    std::fprintf(f, "    \"image_bytes\": %zu,\n", full_bytes);
    std::fprintf(f, "    \"restore_seconds\": %.6f,\n", restore_s);
    std::fprintf(f, "    \"stats_identical\": true\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"shared_warmup\": {\n");
    std::fprintf(f, "    \"config_points\": %zu,\n", cfgs.size());
    std::fprintf(f, "    \"threads\": 1,\n");
    std::fprintf(f, "    \"warm_image_bytes\": %zu,\n", warm_bytes);
    std::fprintf(f, "    \"shared_seconds\": %.3f,\n", shared_s);
    std::fprintf(f, "    \"perjob_seconds\": %.3f,\n", perjob_s);
    std::fprintf(f, "    \"speedup\": %.3f,\n", perjob_s / shared_s);
    std::fprintf(f, "    \"stats_identical\": true\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
