/**
 * @file
 * Sharded-sweep + checkpoint-store microbench (BENCH_sweep.json).
 *
 * Part 1 measures what the multi-process engine costs and proves what
 * it preserves: the same config sweep runs on the in-process thread
 * pool, then sharded across 1 worker process (isolating pure
 * coordinator overhead: fork + pipe framing + JSONL parse), then
 * across 2 workers. All three must produce bit-identical stats.
 *
 * Part 2 measures the content-addressed store on its target workload:
 * K config points forked from one warm image, each saving a full
 * checkpoint shortly after the fork (the crash-resume autosave
 * pattern). Storing K near-identical images must cost far less than
 * K full files (a >=10x reduction target). The same images deflated
 * one by one, with no dedup, are the baseline the store has to beat.
 *
 * Usage: micro_sweep [--smoke] [output.json]
 *   --smoke   tiny run lengths (CI sanity run)
 *   default output path: BENCH_sweep.json
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "ckpt/ckpt.hh"
#include "ckpt/store.hh"
#include "sim/system.hh"

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
    std::string out_path = "BENCH_sweep.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            out_path = argv[i];
    }

    const std::uint64_t uops = smoke ? 2000 : 20000;
    const std::vector<std::string> mix = homo("mcf");

    // ---- Part 1: sharded vs threaded engine -----------------------
    SystemConfig base;
    base.target_uops = uops;
    base.warmup_uops = uops / 2;

    std::vector<RunJob> jobs;
    for (bool emc_on : {false, true}) {
        for (PrefetchConfig pf :
             {PrefetchConfig::kNone, PrefetchConfig::kGhb}) {
            SystemConfig c = base;
            c.emc_enabled = emc_on;
            c.prefetch = pf;
            jobs.push_back({c, mix});
        }
    }

    std::printf("sweep engines (%zu config points, 4x mcf, %llu "
                "uops/core)\n",
                jobs.size(), static_cast<unsigned long long>(uops));
    // One compute thread in every mode so the comparison isolates the
    // engine, not the scheduler.
    setenv("EMC_BENCH_THREADS", "1", 1);

    unsetenv("EMC_BENCH_PROCS");
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<StatDump> threaded = runMany(jobs);
    const auto t1 = std::chrono::steady_clock::now();

    setenv("EMC_BENCH_PROCS", "1", 1);
    const auto p0 = std::chrono::steady_clock::now();
    const std::vector<StatDump> sharded1 = runMany(jobs);
    const auto p1 = std::chrono::steady_clock::now();

    setenv("EMC_BENCH_PROCS", "2", 1);
    const auto q0 = std::chrono::steady_clock::now();
    const std::vector<StatDump> sharded2 = runMany(jobs);
    const auto q1 = std::chrono::steady_clock::now();
    unsetenv("EMC_BENCH_PROCS");
    unsetenv("EMC_BENCH_THREADS");

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string what = "job " + std::to_string(i);
        if (!sameStats(threaded[i], sharded1[i],
                       (what + ", threads vs 1 proc").c_str())
            || !sameStats(threaded[i], sharded2[i],
                          (what + ", threads vs 2 procs").c_str())) {
            return 1;
        }
    }

    const double threaded_s = seconds(t0, t1);
    const double sharded1_s = seconds(p0, p1);
    const double sharded2_s = seconds(q0, q1);
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("  threads:  %7.2fs (in-process pool)\n", threaded_s);
    std::printf("  1 proc:   %7.2fs (coordinator overhead %+.2fs)\n",
                sharded1_s, sharded1_s - threaded_s);
    std::printf("  2 procs:  %7.2fs (%u hardware threads on this "
                "host)\n",
                sharded2_s, hw);
    std::printf("  stats bit-identical across all three engines\n");

    // ---- Part 2: content-addressed store on forked images ---------
    SystemConfig warm_cfg;
    warm_cfg.target_uops = uops;
    warm_cfg.warmup_uops = uops / 2;
    const std::vector<std::uint8_t> warm =
        System(warm_cfg, mix).warmupCheckpointBytes();

    std::vector<SystemConfig> points;
    for (bool emc_on : {false, true}) {
        for (PrefetchConfig pf :
             {PrefetchConfig::kNone, PrefetchConfig::kGhb,
              PrefetchConfig::kStream}) {
            SystemConfig c = warm_cfg;
            c.emc_enabled = emc_on;
            c.prefetch = pf;
            c.warmup_uops = 0;
            points.push_back(c);
        }
    }
    // Each point runs a short detailed stretch past the fork before
    // its first autosave lands — the images diverge where the configs
    // make the simulations diverge, and nowhere else.
    const int divergence = smoke ? 200 : 2000;

    const std::string store_dir = out_path + ".store";
    std::filesystem::remove_all(store_dir);
    ckpt::Store store(store_dir);

    std::printf("delta store (%zu config points forked from one warm "
                "image)\n",
                points.size());
    std::uint64_t logical = 0;
    std::uint64_t deflated = 0;
    std::size_t image_bytes = 0;
    double restore_s = 0.0;
    const auto s0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < points.size(); ++k) {
        System sys(points[k], mix);
        const auto r0 = std::chrono::steady_clock::now();
        sys.restoreCheckpointBytes(warm);
        restore_s += seconds(r0, std::chrono::steady_clock::now());
        for (int t = 0; t < divergence; ++t)
            sys.tickOnce();
        const std::vector<std::uint8_t> img =
            sys.saveCheckpointBytes(ckpt::Level::kFull);
        image_bytes = img.size();
        logical += img.size();
        if (ckpt::compressionAvailable())
            deflated += ckpt::compressImage(img).size();
        const ckpt::StorePut put =
            store.put("point" + std::to_string(k), img);
        std::printf("  point %zu: %10zu bytes, %6.1f%% reused\n", k,
                    img.size(),
                    100.0 * static_cast<double>(put.reused_bytes)
                        / static_cast<double>(put.image_bytes));
    }
    const auto s1 = std::chrono::steady_clock::now();

    // Reassembly must be exact for every point.
    for (std::size_t k = 0; k < points.size(); ++k) {
        System sys(points[k], mix);
        sys.restoreCheckpointBytes(
            store.get("point" + std::to_string(k)));
    }

    const ckpt::StoreStats st = store.stats();
    const double ratio = static_cast<double>(logical)
                         / static_cast<double>(st.storedBytes());
    std::filesystem::remove_all(store_dir);

    std::printf("  logical %llu bytes, stored %llu bytes: %.1fx "
                "reduction (target >=10x)\n",
                static_cast<unsigned long long>(logical),
                static_cast<unsigned long long>(st.storedBytes()),
                ratio);
    // The store earns its place only while it beats plain deflate of
    // each image by more than 2x.
    const double vs_deflate =
        static_cast<double>(deflated)
        / static_cast<double>(st.storedBytes());
    if (deflated != 0) {
        std::printf("  plain deflate: %llu bytes (%.1fx); the store "
                    "is %.2fx smaller\n",
                    static_cast<unsigned long long>(deflated),
                    static_cast<double>(logical)
                        / static_cast<double>(deflated),
                    vs_deflate);
    }
    std::printf("  restore: %.3fs per %zu-byte image (seed build "
                "recorded 1.785s)\n",
                restore_s / static_cast<double>(points.size()),
                warm.size());
    if (!smoke && ratio < 10.0)
        std::printf("  WARNING: reduction below the 10x target\n");

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::perror("fopen");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"uops_per_core\": %llu,\n",
                 static_cast<unsigned long long>(uops));
    std::fprintf(f, "  \"engines\": {\n");
    std::fprintf(f, "    \"config_points\": %zu,\n", jobs.size());
    std::fprintf(f, "    \"host_hw_threads\": %u,\n", hw);
    std::fprintf(f, "    \"threaded_seconds\": %.3f,\n", threaded_s);
    std::fprintf(f, "    \"sharded_1proc_seconds\": %.3f,\n",
                 sharded1_s);
    std::fprintf(f, "    \"sharded_2proc_seconds\": %.3f,\n",
                 sharded2_s);
    std::fprintf(f, "    \"coordinator_overhead_seconds\": %.3f,\n",
                 sharded1_s - threaded_s);
    std::fprintf(f, "    \"stats_identical\": true\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"delta_store\": {\n");
    std::fprintf(f, "    \"config_points\": %zu,\n", points.size());
    std::fprintf(f, "    \"divergence_cycles\": %d,\n", divergence);
    std::fprintf(f, "    \"image_bytes\": %zu,\n", image_bytes);
    std::fprintf(f, "    \"logical_bytes\": %llu,\n",
                 static_cast<unsigned long long>(logical));
    std::fprintf(f, "    \"stored_bytes\": %llu,\n",
                 static_cast<unsigned long long>(st.storedBytes()));
    std::fprintf(f, "    \"reduction\": %.3f,\n", ratio);
    std::fprintf(f, "    \"deflated_bytes\": %llu,\n",
                 static_cast<unsigned long long>(deflated));
    std::fprintf(f, "    \"store_vs_deflate\": %.3f,\n", vs_deflate);
    std::fprintf(f, "    \"put_seconds\": %.3f,\n", seconds(s0, s1));
    std::fprintf(f, "    \"roundtrip_exact\": true\n");
    std::fprintf(f, "  },\n");
    // The single-pass loader rework (serial.hh / ckpt.cc / restore
    // path) that this sweep work leans on; the before number is the
    // seed BENCH_ckpt.json recording on this host.
    std::fprintf(f, "  \"restore\": {\n");
    std::fprintf(f, "    \"image_bytes\": %zu,\n", warm.size());
    std::fprintf(f, "    \"seconds_before_seed_recorded\": 1.785,\n");
    std::fprintf(f, "    \"seconds\": %.3f\n",
                 restore_s / static_cast<double>(points.size()));
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
