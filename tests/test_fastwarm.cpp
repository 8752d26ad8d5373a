/**
 * @file
 * Fast-forward functional warming + sampled simulation (DESIGN.md §8):
 *
 *  - validation mode: a fast-warmed machine agrees with a
 *    detailed-warmed one — branch-predictor tables byte-identical when
 *    both consume the identical dispatched uop prefix, cache/TLB
 *    contents overlapping heavily in virtual space (physical frame
 *    order legitimately differs between program order and execute
 *    order)
 *  - fastwarm checkpoints: byte-identical images run-to-run, and a
 *    restored detailed run is deterministic across two restores
 *  - sampled runs: per-window IPC CIs cover the full-run value on a
 *    deterministic workload, and `sampled.*` stats are exported
 *  - compressed checkpoint images roundtrip transparently
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "ckpt/ckpt.hh"
#include "sim/fastwarm.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

using emc::SampleParams;
using emc::StatDump;
using emc::System;
using emc::SystemConfig;
using emc::WarmStateDiff;

namespace
{

/** Quad-core, EMC and GHB prefetcher (the Fig. 12/13 machine). */
SystemConfig
ghbConfig()
{
    SystemConfig cfg;
    cfg.prefetch = emc::PrefetchConfig::kGhb;
    cfg.emc_enabled = true;
    cfg.target_uops = 1000;
    cfg.warmup_uops = 500;
    return cfg;
}

/**
 * The H1 mix: GHB issues prefetches within these run lengths, so the
 * restore and determinism checks also cover prefetcher state. On 4x
 * mcf it issues none, and those checks would hold without it.
 */
std::vector<std::string>
h1Mix()
{
    return emc::quadWorkloads()[0];
}

/** The run issued prefetches, so prefetcher state was exercised. */
void
expectPrefetches(const StatDump &d)
{
    EXPECT_GT(d.get("prefetch.issued"), 0.0);
}

SystemConfig
uniConfig(std::uint64_t warmup)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.emc_enabled = true;
    cfg.target_uops = 1000;
    cfg.warmup_uops = warmup;
    return cfg;
}

void
expectIdentical(const StatDump &a, const StatDump &b, const char *what)
{
    ASSERT_EQ(a.all().size(), b.all().size()) << what;
    auto ia = a.all().begin();
    auto ib = b.all().begin();
    for (; ia != a.all().end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first) << what;
        EXPECT_EQ(ia->second, ib->second)
            << what << ": stat " << ia->first << " diverged";
    }
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "emc_fastwarm_"
           + std::to_string(::getpid()) + "_" + name;
}

} // namespace

// The branch predictor sees dispatched branches in program order, so a
// fast-forward over exactly the uops the detailed warmup dispatched
// (retired + the one deferred uop it may still hold back) must leave
// bit-identical predictor tables; cache and TLB residency agree up to
// ordering effects, measured as virtual-space set overlap.
TEST(FastwarmEquivalence, MatchesDetailedWarmup)
{
    const SystemConfig cfg = uniConfig(4000);

    System detailed(cfg, {"mcf"});
    // warmupCheckpointBytes() runs the warmup phase and drains the
    // pipeline, so every dispatched uop has retired (or sits parked as
    // the single deferred uop).
    (void)detailed.warmupCheckpointBytes();
    const std::uint64_t dispatched =
        detailed.uopsProduced(0)
        - (detailed.core(0).hasDeferredUop() ? 1 : 0);
    ASSERT_GE(dispatched, cfg.warmup_uops);

    System fast(cfg, {"mcf"});
    const std::uint64_t consumed = fast.fastForward(dispatched);
    EXPECT_EQ(consumed, dispatched);

    const WarmStateDiff d = emc::compareWarmState(detailed, fast);
    EXPECT_TRUE(d.bp_equal) << "branch predictor tables diverged";
    EXPECT_GE(d.tlb_jaccard, 0.9);
    EXPECT_GE(d.l1_jaccard, 0.75) << "L1 " << d.l1_lines_a << " vs "
                                  << d.l1_lines_b << " lines";
    EXPECT_GE(d.llc_jaccard, 0.9) << "LLC " << d.llc_lines_a << " vs "
                                  << d.llc_lines_b << " lines";
}

// A pure fast-forward from reset must leave every statistic untouched:
// warming advances tag/LRU/predictor state only (DESIGN.md §8). The
// tiny LLC forces warm insertions to evict lines with live presence
// bits, exercising the back-invalidation path into the core L1s and
// the EMC data cache — the paths where stat-counting calls once hid.
TEST(FastwarmContract, FastForwardTouchesNoStats)
{
    SystemConfig cfg = ghbConfig();
    cfg.warmup_uops = 4000;
    cfg.llc_slice_bytes = 8 * 1024;
    System sys(cfg, h1Mix());
    sys.fastForward(cfg.warmup_uops);

    for (unsigned i = 0; i < cfg.num_cores; ++i) {
        const auto &bp = sys.core(i).branchPredictor().stats();
        EXPECT_EQ(bp.lookups, 0u) << "core " << i;
        EXPECT_EQ(bp.mispredicts, 0u) << "core " << i;
        const auto &l1 = sys.core(i).l1d().stats();
        EXPECT_EQ(l1.hits + l1.misses + l1.evictions
                      + l1.invalidations, 0u) << "L1 of core " << i;
        const auto &llc = sys.llcSlice(i).stats();
        EXPECT_EQ(llc.hits + llc.misses + llc.evictions
                      + llc.invalidations, 0u) << "LLC slice " << i;
    }
    ASSERT_NE(sys.emc(), nullptr);
    const auto &dc = sys.emc()->dcache().stats();
    EXPECT_EQ(dc.hits + dc.misses + dc.evictions + dc.invalidations,
              0u) << "EMC dcache";
}

// Different uop prefixes must NOT produce equal predictors — guards
// against compareWarmState trivially returning equality.
TEST(FastwarmEquivalence, DetectsDivergence)
{
    const SystemConfig cfg = uniConfig(4000);
    System a(cfg, {"mcf"});
    System b(cfg, {"mcf"});
    a.fastForward(4000);
    b.fastForward(2000);
    const WarmStateDiff d = emc::compareWarmState(a, b);
    EXPECT_FALSE(d.bp_equal);
}

TEST(FastwarmCkpt, ImagesAreDeterministic)
{
    const SystemConfig cfg = ghbConfig();
    const std::vector<std::uint8_t> img_a =
        System(cfg, h1Mix()).fastwarmCheckpointBytes();
    const std::vector<std::uint8_t> img_b =
        System(cfg, h1Mix()).fastwarmCheckpointBytes();
    EXPECT_EQ(img_a, img_b) << "fastwarm images differ run-to-run";
}

TEST(FastwarmCkpt, RestoredRunIsDeterministic)
{
    const SystemConfig cfg = ghbConfig();
    const std::vector<std::uint8_t> img =
        System(cfg, h1Mix()).fastwarmCheckpointBytes();

    StatDump dumps[2];
    for (int i = 0; i < 2; ++i) {
        System sys(cfg, h1Mix());
        sys.restoreCheckpointBytes(img);
        sys.run();
        dumps[i] = sys.dump();
    }
    expectIdentical(dumps[0], dumps[1], "fastwarm restore");
    // The restored run measured real work.
    EXPECT_GT(dumps[0].get("core0.retired"), 0.0);
    expectPrefetches(dumps[0]);
}

TEST(FastwarmCkpt, RefusedAfterRunning)
{
    const SystemConfig cfg = ghbConfig();
    System sys(cfg, h1Mix());
    sys.tickOnce();
    EXPECT_THROW(sys.fastwarmCheckpointBytes(), emc::ckpt::Error);
}

TEST(Sampled, CiCoversFullRunIpc)
{
    SystemConfig cfg = ghbConfig();
    cfg.target_uops = 20000;
    cfg.warmup_uops = 2000;

    // Full detailed run: aggregate throughput = sum of per-core IPC.
    System full(cfg, h1Mix());
    full.run();
    const double full_ipc = full.dump().get("system.ipc_sum");
    ASSERT_GT(full_ipc, 0.0);
    expectPrefetches(full.dump());

    SampleParams p;
    p.period = 2000;
    p.detail = 500;
    System sampled(cfg, h1Mix());
    const emc::SampledStats s = sampled.runSampled(p);

    ASSERT_GE(s.windows, 5u);
    EXPECT_EQ(s.windows, s.window_ipc.size());
    ASSERT_GT(s.ipc_mean, 0.0);
    // The 95% CI must cover the full-run value (the sampled estimator
    // is unbiased up to window-edge effects; allow those a 5% slack).
    const double err = std::abs(s.ipc_mean - full_ipc);
    EXPECT_LE(err, s.ipc_ci95 + 0.05 * full_ipc)
        << "sampled " << s.ipc_mean << " +- " << s.ipc_ci95
        << " vs full " << full_ipc;

    // Exported stats carry the same numbers.
    const StatDump d = sampled.dump();
    EXPECT_EQ(d.get("sampled.windows"),
              static_cast<double>(s.windows));
    EXPECT_EQ(d.get("sampled.ipc_mean"), s.ipc_mean);
    EXPECT_EQ(d.get("sampled.ipc_ci95"), s.ipc_ci95);
}

TEST(Sampled, DeterministicAcrossRuns)
{
    SystemConfig cfg = ghbConfig();
    cfg.target_uops = 6000;
    cfg.warmup_uops = 1000;
    SampleParams p;
    p.period = 1500;
    p.detail = 400;

    StatDump dumps[2];
    for (int i = 0; i < 2; ++i) {
        System sys(cfg, h1Mix());
        sys.runSampled(p);
        dumps[i] = sys.dump();
    }
    expectIdentical(dumps[0], dumps[1], "sampled run");
    expectPrefetches(dumps[0]);
}

TEST(CkptCompress, RoundtripTransparent)
{
    if (!emc::ckpt::compressionAvailable())
        GTEST_SKIP() << "built without zlib";

    const SystemConfig cfg = ghbConfig();
    const std::vector<std::uint8_t> raw =
        System(cfg, h1Mix()).fastwarmCheckpointBytes();

    // In-memory roundtrip.
    const std::vector<std::uint8_t> z = emc::ckpt::compressImage(raw);
    EXPECT_TRUE(emc::ckpt::isCompressedImage(z));
    EXPECT_LT(z.size(), raw.size());
    EXPECT_EQ(emc::ckpt::maybeDecompressImage(z), raw);
    // Raw images pass through untouched.
    EXPECT_EQ(emc::ckpt::maybeDecompressImage(raw), raw);

    // On-disk: write compressed, read transparently, restore, run.
    const std::string path = tmpPath("compressed.ckpt");
    emc::ckpt::writeFile(path, raw, true);
    EXPECT_LT(std::filesystem::file_size(path), raw.size());
    EXPECT_EQ(emc::ckpt::readFile(path), raw);

    System restored(cfg, h1Mix());
    restored.restoreCheckpoint(path);
    restored.run();
    EXPECT_GT(restored.dump().get("core0.retired"), 0.0);
    expectPrefetches(restored.dump());
    std::remove(path.c_str());
}

TEST(CkptCompress, CorruptCompressedImageRejected)
{
    if (!emc::ckpt::compressionAvailable())
        GTEST_SKIP() << "built without zlib";
    const SystemConfig cfg = ghbConfig();
    const std::vector<std::uint8_t> raw =
        System(cfg, h1Mix()).fastwarmCheckpointBytes();
    std::vector<std::uint8_t> z = emc::ckpt::compressImage(raw);
    z.resize(z.size() / 2);  // truncate the deflate stream
    EXPECT_THROW(emc::ckpt::maybeDecompressImage(z), emc::ckpt::Error);
}

TEST(CkptCompress, SystemKnobCompressesSaves)
{
    if (!emc::ckpt::compressionAvailable())
        GTEST_SKIP() << "built without zlib";
    const SystemConfig cfg = ghbConfig();
    const std::string path = tmpPath("knob.ckpt");

    System sys(cfg, h1Mix());
    sys.setCkptCompress(true);
    sys.saveCheckpoint(path, emc::ckpt::Level::kFull);

    // The on-disk bytes are a compressed container...
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[8] = {};
    ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
    std::fclose(f);
    EXPECT_EQ(std::string(magic, 8), "EMCKPTZ\n");

    // ...and restore reads them transparently.
    System restored(cfg, h1Mix());
    restored.restoreCheckpoint(path);
    restored.run();
    EXPECT_GT(restored.dump().get("core0.retired"), 0.0);
    expectPrefetches(restored.dump());
    std::remove(path.c_str());
}
