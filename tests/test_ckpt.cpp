/**
 * @file
 * Checkpoint/restore subsystem tests (DESIGN.md §7):
 *
 *  - full-level roundtrip exactness under every prefetcher config:
 *    save at cycle C (measured phase or mid-warmup), restore, run to
 *    the end — every stat bit-identical to an uninterrupted run, and
 *    the saving run itself unperturbed; also saved while loads are
 *    parked on stores and both DRAM queues hold requests (host-only
 *    state)
 *  - restored state passes the src/check invariant suite with zero
 *    violations
 *  - warmup-level images fork into differing EMC/prefetcher configs,
 *    deterministically (byte-identical images run-to-run)
 *  - the `workload` section carries only dirty memory words: restore
 *    reverts the target's own dirty pages, checks each core's profile
 *    and generator seed, and stays far below the old full-memory size
 *  - the workload registry: a System whose workloads come from the
 *    registry (shared builds) matches one that built them cold, image
 *    for image and stat for stat, and the registry keeps only the most
 *    recent System's builds once no System uses them
 *  - config-hash gating, corrupt/truncated images, and refusal paths
 *  - bench harness: per-job failure isolation in runMany() and for
 *    warm-shared jobs, the shared-vs-per-job warmup equivalence of
 *    warm-shared jobs, and crash-resume through EMC_CKPT_DIR
 *    autosaves and sidecars keyed by jobKey()
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "ckpt/ckpt.hh"
#include "sim/system.hh"
#include "trace/record.hh"
#include "workload/profile.hh"
#include "workload/registry.hh"

namespace emc
{

/** Test access to the core's retry list. */
struct CoreTestPeer
{
    static unsigned
    parkedLoads(const Core &c)
    {
        unsigned n = 0;
        for (const Core::RetryEntry &r : c.retry_q_)
            n += r.blocker != 0 ? 1 : 0;
        return n;
    }
};

/** Test access to the workload registry's entries. */
struct WorkloadRegistryTestPeer
{
    /** How many cores' builds of @p mix under System seed @p seed
     *  the registry still reaches. */
    static std::size_t
    held(const std::vector<std::string> &mix, std::uint64_t seed)
    {
        WorkloadRegistry &r = WorkloadRegistry::instance();
        std::lock_guard<std::mutex> lock(r.mu_);
        std::size_t n = 0;
        for (unsigned i = 0; i < mix.size(); ++i) {
            auto it = r.entries_.find({mix[i], trace::generatorSeed(seed, i)});
            if (it != r.entries_.end() && !it->second.expired())
                ++n;
        }
        return n;
    }
};

} // namespace emc

using emc::Cycle;
using emc::StatDump;
using emc::System;
using emc::SystemConfig;

namespace
{

/** Fig 13 class: homogeneous quad-core mcf, EMC + GHB prefetcher. */
SystemConfig
fig13Config()
{
    SystemConfig cfg;
    cfg.prefetch = emc::PrefetchConfig::kGhb;
    cfg.emc_enabled = true;
    cfg.target_uops = 1000;
    cfg.warmup_uops = 500;
    return cfg;
}

std::vector<std::string>
fig13Mix()
{
    return emc::bench::homo("mcf");
}

/** Smaller dual-core config for the cheap error-path tests. */
SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.emc_enabled = true;
    cfg.target_uops = 800;
    cfg.warmup_uops = 400;
    return cfg;
}

std::vector<std::string>
smallMix()
{
    return {"mcf", "sphinx3"};
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

/** The TOC entry of section @p name in @p image. */
emc::ckpt::Section
sectionOf(const std::vector<std::uint8_t> &image, const std::string &name)
{
    for (const emc::ckpt::Section &s :
         emc::ckpt::parseHeader(image).sections) {
        if (s.name == name)
            return s;
    }
    ADD_FAILURE() << "no section " << name;
    return {};
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "emc_ckpt_"
           + std::to_string(::getpid()) + "_" + name;
}

} // namespace

/**
 * A full checkpoint round-trips exactly under every prefetcher. The H1
 * mix is used because GHB, stream and stride all issue prefetches
 * before the save point there (on 4x mcf none does, so a prefetcher
 * left out of the image would go unnoticed), and its EMC runs chains.
 */
class CkptFullPf : public testing::TestWithParam<emc::PrefetchConfig>
{
};

TEST_P(CkptFullPf, RoundtripIsExact)
{
    SystemConfig cfg = fig13Config();
    cfg.prefetch = GetParam();
    const std::vector<std::string> &mix = emc::quadWorkloads()[0];
    System straight(cfg, mix);
    straight.run();
    const StatDump d_straight = straight.dump();
    // Past warmup (500 uops/core retire well within half the run).
    const Cycle mid = straight.cycles() / 2;

    const std::string path = tmpPath(
        std::string("roundtrip_") + emc::prefetchConfigName(cfg.prefetch)
        + ".ckpt");
    System saver(cfg, mix);
    saver.scheduleCheckpoint(path, mid);
    saver.run();
    // Saving is observation-only: the saver's own run is unperturbed.
    expectIdentical(d_straight, saver.dump(), "saving run");

    System restored(cfg, mix);
    restored.restoreCheckpoint(path);
    restored.run();
    expectIdentical(d_straight, restored.dump(), "restored run");
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    EveryPrefetcher, CkptFullPf,
    testing::Values(emc::PrefetchConfig::kNone, emc::PrefetchConfig::kGhb,
                    emc::PrefetchConfig::kStream,
                    emc::PrefetchConfig::kStride,
                    emc::PrefetchConfig::kPickle),
    [](const testing::TestParamInfo<emc::PrefetchConfig> &info) {
        return std::string(emc::prefetchConfigName(info.param));
    });

TEST(CkptFull, RoundtripWithParkedLoadsAndQueuedDram)
{
    // Host-only scheduling state is not in the image: parked loads
    // restore as active retries and the DRAM queues re-decode their
    // coordinates. Save where both are live and resume exactly.
    SystemConfig cfg;
    cfg.prefetch = emc::PrefetchConfig::kStream;
    cfg.emc_enabled = true;
    cfg.target_uops = 3000;
    cfg.warmup_uops = 0;
    cfg.llc_slice_bytes = 64 * 1024;  // dirty evictions start early
    const std::vector<std::string> mix = emc::bench::homo("lbm");
    System straight(cfg, mix);
    straight.run();

    System probe(cfg, mix);
    auto live = [&] {
        unsigned parked = 0;
        for (unsigned i = 0; i < cfg.num_cores; ++i)
            parked += emc::CoreTestPeer::parkedLoads(probe.core(i));
        bool both_queues = false;
        for (unsigned c = 0; c < cfg.dram.channels; ++c) {  // one MC
            const emc::DramChannel &ch = probe.channel(0, c);
            both_queues = both_queues
                          || (ch.readQueueDepth() > 0
                              && ch.writeQueueDepth() > 0);
        }
        return parked > 0 && both_queues;
    };
    while (!probe.finished() && !live())
        probe.tickOnce();
    ASSERT_FALSE(probe.finished()) << "no cycle with parked loads and "
                                      "non-empty DRAM read+write queues";
    const std::vector<std::uint8_t> image =
        probe.saveCheckpointBytes(emc::ckpt::Level::kFull);

    System restored(cfg, mix);
    restored.restoreCheckpointBytes(image);
    for (unsigned i = 0; i < cfg.num_cores; ++i)
        EXPECT_EQ(emc::CoreTestPeer::parkedLoads(restored.core(i)), 0u);
    restored.run();
    expectIdentical(straight.dump(), restored.dump(),
                    "restored with parked loads");
}

TEST(CkptFull, MidWarmupSaveRoundtrips)
{
    const SystemConfig cfg = smallConfig();
    System straight(cfg, smallMix());
    straight.run();

    const std::string path = tmpPath("midwarm.ckpt");
    System saver(cfg, smallMix());
    saver.scheduleCheckpoint(path, 50);  // long before warmup ends
    saver.run();

    System restored(cfg, smallMix());
    restored.restoreCheckpoint(path);
    restored.run();
    expectIdentical(straight.dump(), restored.dump(),
                    "mid-warmup restore");
    std::remove(path.c_str());
}

TEST(CkptFull, RestoredStatePassesInvariantChecks)
{
    const SystemConfig cfg = smallConfig();
    System straight(cfg, smallMix());
    straight.run();

    System saver(cfg, smallMix());
    const std::vector<std::uint8_t> image = [&] {
        saver.scheduleCheckpoint(tmpPath("checked.ckpt"), 2000);
        saver.run();
        return emc::ckpt::readFile(tmpPath("checked.ckpt"));
    }();
    std::remove(tmpPath("checked.ckpt").c_str());

    System restored(cfg, smallMix());
    restored.enableInvariantChecks();
    std::uint64_t seen = 0;
    restored.checkRegistry()->setHandler(
        [&seen](const emc::check::Violation &v) {
            ++seen;
            std::fprintf(stderr, "violation: %s\n", v.format().c_str());
        });
    // restore runs the deep checks once on the restored state, and the
    // run that follows keeps every per-tick / end-of-run checker live.
    restored.restoreCheckpointBytes(image);
    restored.run();
    EXPECT_EQ(seen, 0u) << "invariant violations on restored state";
    EXPECT_EQ(restored.checkRegistry()->violationCount(), 0u);
    // Checks are observation-only, restored or not.
    expectIdentical(straight.dump(), restored.dump(),
                    "checked restored run");
}

TEST(CkptFull, SaveIsDeterministic)
{
    const SystemConfig cfg = smallConfig();
    System a(cfg, smallMix());
    System b(cfg, smallMix());
    EXPECT_EQ(a.saveCheckpointBytes(emc::ckpt::Level::kFull),
              b.saveCheckpointBytes(emc::ckpt::Level::kFull));
}

TEST(CkptFull, ConfigHashGatesRestore)
{
    System saver(smallConfig(), smallMix());
    const auto image =
        saver.saveCheckpointBytes(emc::ckpt::Level::kFull);

    SystemConfig other = smallConfig();
    other.emc_enabled = false;
    System wrong(other, smallMix());
    EXPECT_THROW(wrong.restoreCheckpointBytes(image),
                 emc::ckpt::Error);

    // The same config accepts it.
    System right(smallConfig(), smallMix());
    EXPECT_NO_THROW(right.restoreCheckpointBytes(image));
}

TEST(CkptFull, CorruptImagesAreRejected)
{
    System saver(smallConfig(), smallMix());
    const auto image =
        saver.saveCheckpointBytes(emc::ckpt::Level::kFull);

    {
        auto t = image;
        t.resize(t.size() / 2);  // truncated payload
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes(t), emc::ckpt::Error);
    }
    {
        auto t = image;
        t[0] ^= 0xff;  // bad magic
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes(t), emc::ckpt::Error);
    }
    {
        auto t = image;
        t[t.size() - 9] ^= 0x01;  // payload bit flip -> CRC mismatch
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes(t), emc::ckpt::Error);
    }
    {
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes({}), emc::ckpt::Error);
        EXPECT_THROW(sys.restoreCheckpoint(tmpPath("missing.ckpt")),
                     emc::ckpt::Error);
    }
}

TEST(CkptFull, RefusesRestoreAfterRunAndSaveUnderTracing)
{
    System saver(smallConfig(), smallMix());
    const auto image =
        saver.saveCheckpointBytes(emc::ckpt::Level::kFull);

    System ran(smallConfig(), smallMix());
    ran.run();
    EXPECT_THROW(ran.restoreCheckpointBytes(image), emc::ckpt::Error);

    System traced(smallConfig(), smallMix());
    traced.enableTracing(tmpPath("trace.json"));
    EXPECT_THROW(traced.saveCheckpointBytes(emc::ckpt::Level::kFull),
                 emc::ckpt::Error);
    std::remove(tmpPath("trace.json").c_str());
}

TEST(CkptWarmup, ForksIntoDifferingConfigs)
{
    SystemConfig warm_cfg;
    warm_cfg.num_cores = 1;
    warm_cfg.target_uops = 1200;
    warm_cfg.warmup_uops = 600;
    const std::vector<std::string> mix = {"mcf"};

    const auto image = System(warm_cfg, mix).warmupCheckpointBytes();

    // The image is deterministic: a second warmup run produces the
    // same bytes, which is what makes shared and per-job warmup
    // equivalent for warm-shared bench jobs.
    EXPECT_EQ(image, System(warm_cfg, mix).warmupCheckpointBytes());

    // Fork the one warm image across EMC / prefetcher config points.
    std::vector<SystemConfig> points;
    {
        SystemConfig c = warm_cfg;
        c.emc_enabled = true;
        points.push_back(c);
    }
    {
        SystemConfig c = warm_cfg;
        c.prefetch = emc::PrefetchConfig::kStream;
        points.push_back(c);
    }
    {
        SystemConfig c = warm_cfg;
        c.emc_enabled = true;
        c.emc.contexts = 4;
        c.prefetch = emc::PrefetchConfig::kGhb;
        points.push_back(c);
    }
    for (SystemConfig &c : points) {
        c.warmup_uops = 0;  // irrelevant after a warmup restore
        System sys(c, mix);
        sys.restoreCheckpointBytes(image);
        sys.run();
        const StatDump d = sys.dump();
        EXPECT_GT(d.get("system.cycles"), 0.0);
        EXPECT_GT(d.get("core0.retired"), 0.0);

        // Restoring the same image into the same config twice is
        // deterministic end to end.
        System again(c, mix);
        again.restoreCheckpointBytes(image);
        again.run();
        expectIdentical(d, again.dump(), "re-forked config");
    }
}

TEST(CkptWarmup, HashRejectsWarmupIncompatibleConfigs)
{
    SystemConfig warm_cfg;
    warm_cfg.num_cores = 1;
    warm_cfg.target_uops = 600;
    warm_cfg.warmup_uops = 300;
    const std::vector<std::string> mix = {"mcf"};
    const auto image = System(warm_cfg, mix).warmupCheckpointBytes();

    SystemConfig reseeded = warm_cfg;
    reseeded.seed = warm_cfg.seed + 1;
    System sys(reseeded, mix);
    EXPECT_THROW(sys.restoreCheckpointBytes(image), emc::ckpt::Error);

    // A different workload is a different warm state too.
    System other_mix(warm_cfg, {"libquantum"});
    EXPECT_THROW(other_mix.restoreCheckpointBytes(image),
                 emc::ckpt::Error);
}

TEST(CkptWarmup, RestoreIntoFastForwardedSystemMatchesFresh)
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.target_uops = 800;
    cfg.warmup_uops = 400;
    // lbm dirties memory with stream stores; mcf mostly reads its ring.
    const std::vector<std::string> mix = {"mcf", "lbm"};
    const auto image = System(cfg, mix).fastwarmCheckpointBytes();

    System fresh(cfg, mix);
    fresh.restoreCheckpointBytes(image);
    // A target whose programs already ran (functionally: fastForward
    // writes memory without advancing the clock) and dirtied pages the
    // image never touched.
    System used(cfg, mix);
    used.fastForward(5000);
    used.restoreCheckpointBytes(image);

    EXPECT_EQ(fresh.saveCheckpointBytes(emc::ckpt::Level::kFull),
              used.saveCheckpointBytes(emc::ckpt::Level::kFull));
    fresh.run();
    used.run();
    expectIdentical(fresh.dump(), used.dump(), "restore into used System");
}

TEST(CkptWarmup, RejectsProfileSeedAndVersionMismatches)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 600;
    cfg.warmup_uops = 300;
    const std::vector<std::string> mix = {"mcf"};
    const auto image = System(cfg, mix).fastwarmCheckpointBytes();

    std::size_t poff = 0;
    const emc::ckpt::Header h = emc::ckpt::parseHeader(image, &poff);
    const std::vector<std::uint8_t> payload(
        image.begin() + static_cast<std::ptrdiff_t>(poff), image.end());
    // Workload layout (ckpt.hh): marker, core count, then core 0's
    // profile name (length word, bytes padded to a word) and seed.
    const std::size_t name_at = sectionOf(image, "workload").offset + 24;
    const std::size_t seed_at = name_at + 8;
    ASSERT_EQ(payload[name_at], 'm');
    auto patched = [&](std::size_t at, std::uint8_t flip) {
        std::vector<std::uint8_t> p = payload;
        p[at] ^= flip;
        return emc::ckpt::assemble(h, p);  // fresh, valid CRC
    };

    System intact(cfg, mix);
    EXPECT_NO_THROW(intact.restoreCheckpointBytes(patched(name_at, 0)));
    System profile(cfg, mix);
    EXPECT_THROW(profile.restoreCheckpointBytes(patched(name_at, 0x20)),
                 emc::ckpt::Error);
    System seed(cfg, mix);
    EXPECT_THROW(seed.restoreCheckpointBytes(patched(seed_at, 0x01)),
                 emc::ckpt::Error);
    // A corrupt name length is a typed error, not a giant allocation.
    System length(cfg, mix);
    EXPECT_THROW(length.restoreCheckpointBytes(patched(name_at - 1, 0x40)),
                 emc::ckpt::Error);

    // The header's first word is the format version.
    std::vector<std::uint8_t> v3 = image;
    ASSERT_EQ(v3[16], emc::ckpt::kVersion);
    v3[16] = 3;
    System old(cfg, mix);
    EXPECT_THROW(old.restoreCheckpointBytes(v3), emc::ckpt::Error);
    // Version 4 images carried the retired latency averages.
    std::vector<std::uint8_t> v4 = image;
    v4[16] = 4;
    System prev(cfg, mix);
    EXPECT_THROW(prev.restoreCheckpointBytes(v4), emc::ckpt::Error);
}

TEST(CkptWarmup, WorkloadSectionCarriesOnlyDirtyWords)
{
    // The fastwarm-100k images of 4x mcf and 4x lbm; the old format
    // stored every written word as a (key, value) pair, 100,864,456
    // and 679,328 bytes of `workload` respectively.
    SystemConfig cfg;
    cfg.target_uops = 1000;
    cfg.warmup_uops = 100000;
    const auto mcf =
        System(cfg, emc::bench::homo("mcf")).fastwarmCheckpointBytes();
    EXPECT_LE(sectionOf(mcf, "workload").length, 100864456u / 20);
    const auto lbm =
        System(cfg, emc::bench::homo("lbm")).fastwarmCheckpointBytes();
    EXPECT_LE(sectionOf(lbm, "workload").length, 679328u);
}

TEST(CkptWarmup, RequiresAConfiguredWarmupPhase)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 600;
    cfg.warmup_uops = 0;
    System sys(cfg, {"mcf"});
    EXPECT_THROW(sys.warmupCheckpointBytes(), emc::ckpt::Error);
}

/** What one System shows of itself: images at cycle 0 and mid-run,
 *  and the dump after its run. */
struct Observed
{
    std::vector<std::uint8_t> start;
    std::vector<std::uint8_t> mid;
    StatDump dump;
};

Observed
observe(const SystemConfig &cfg, const std::vector<std::string> &mix,
        Cycle mid)
{
    const std::string path = tmpPath("registry_mid.ckpt");
    std::remove(path.c_str());
    Observed o;
    System sys(cfg, mix);
    o.start = sys.saveCheckpointBytes(emc::ckpt::Level::kFull);
    sys.scheduleCheckpoint(path, mid);
    sys.run();
    o.dump = sys.dump();
    EXPECT_GT(sys.cycles(), mid);
    o.mid = emc::ckpt::readFile(path);
    std::remove(path.c_str());
    return o;
}

TEST(CkptWorkloadRegistry, SharedBuildsMatchColdBuilds)
{
    // Seeds no other test uses, so the first System of each builds
    // its workloads cold and the second takes them from the registry.
    SystemConfig cfg = fig13Config();
    cfg.seed = 90017;
    const std::vector<std::string> mix = fig13Mix();
    using Peer = emc::WorkloadRegistryTestPeer;

    ASSERT_EQ(Peer::held(mix, cfg.seed), 0u);
    const Observed cold = observe(cfg, mix, 2000);
    // The destroyed System was the last one built: its builds stay.
    ASSERT_EQ(Peer::held(mix, cfg.seed), mix.size());
    const Observed shared = observe(cfg, mix, 2000);
    EXPECT_EQ(cold.start, shared.start);
    EXPECT_EQ(cold.mid, shared.mid);
    expectIdentical(cold.dump, shared.dump, "cold vs shared build");

    SystemConfig warm = cfg;
    warm.seed = 90029;
    ASSERT_EQ(Peer::held(mix, warm.seed), 0u);
    const auto cold_warm = System(warm, mix).warmupCheckpointBytes();
    ASSERT_EQ(Peer::held(mix, warm.seed), mix.size());
    EXPECT_EQ(cold_warm, System(warm, mix).warmupCheckpointBytes());
}

TEST(CkptWorkloadRegistry, KeepsOnlyTheLastSystemsBuilds)
{
    using Peer = emc::WorkloadRegistryTestPeer;
    SystemConfig cfg = smallConfig();
    const std::vector<std::string> mix_a = smallMix();
    const std::vector<std::string> mix_b = {"omnetpp", "mcf"};
    SystemConfig cfg_a = cfg, cfg_b = cfg;
    cfg_a.seed = 90031;
    cfg_b.seed = 90037;

    auto a = std::make_unique<System>(cfg_a, mix_a);
    auto b = std::make_unique<System>(cfg_b, mix_b);
    // A live System keeps its builds reachable.
    EXPECT_EQ(Peer::held(mix_a, cfg_a.seed), mix_a.size());
    EXPECT_EQ(Peer::held(mix_b, cfg_b.seed), mix_b.size());
    a.reset();
    b.reset();
    EXPECT_EQ(Peer::held(mix_a, cfg_a.seed), 0u);
    EXPECT_EQ(Peer::held(mix_b, cfg_b.seed), mix_b.size());
}

namespace
{

/** "<dir>/<jobKey in 16 hex digits><ext>": a job's sidecar path. */
std::string
sidecar(const std::string &dir, const emc::bench::RunJob &job,
        const char *ext)
{
    char key[17];
    std::snprintf(key, sizeof key, "%016llx",
                  static_cast<unsigned long long>(emc::bench::jobKey(job)));
    return dir + "/" + key + ext;
}

} // namespace

TEST(BenchHarness, RunManyIsolatesPerJobFailures)
{
    // Plant a corrupt autosave for job 1: its restore throws, the
    // other jobs must still complete, and the failure must carry the
    // job index and the exception text.
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 400;
    cfg.warmup_uops = 0;
    std::vector<emc::bench::RunJob> jobs(3, {cfg, {"mcf"}});
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].cfg.seed = cfg.seed + i;

    const std::string dir = tmpPath("runmany_fail");
    std::filesystem::create_directories(dir);
    {
        std::FILE *f =
            std::fopen(sidecar(dir, jobs[1], ".ckpt").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not a checkpoint", f);
        std::fclose(f);
    }
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);

    std::vector<emc::bench::RunFailure> failures;
    const std::vector<StatDump> res =
        emc::bench::runMany(jobs, &failures);
    ASSERT_EQ(res.size(), 3u);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].index, 1u);
    EXPECT_FALSE(failures[0].what.empty());
    EXPECT_GT(res[0].get("system.cycles"), 0.0);
    EXPECT_GT(res[2].get("system.cycles"), 0.0);
    EXPECT_FALSE(res[1].has("system.cycles"));  // failed slot empty

    // The throwing overload reports the same thing.
    EXPECT_THROW(emc::bench::runMany(jobs), std::runtime_error);

    unsetenv("EMC_CKPT_DIR");
    std::filesystem::remove_all(dir);
}

TEST(BenchHarness, CkptDirResumesInterruptedSweeps)
{
    const SystemConfig cfg = smallConfig();
    const std::vector<emc::bench::RunJob> jobs{{cfg, smallMix()}};
    const StatDump plain = emc::bench::runMany(jobs).at(0);

    const std::string dir = tmpPath("resume");
    std::filesystem::create_directories(dir);
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);
    setenv("EMC_CKPT_INTERVAL", "3000", 1);

    // First sweep: autosaves land next to the stats sidecar.
    const std::string stats = sidecar(dir, jobs[0], ".stats");
    const StatDump first = emc::bench::runMany(jobs).at(0);
    expectIdentical(plain, first, "checkpointed sweep");
    ASSERT_TRUE(std::filesystem::exists(stats));
    ASSERT_TRUE(std::filesystem::exists(sidecar(dir, jobs[0], ".ckpt")));

    // "Crash" after the last autosave: drop the sidecar and rerun —
    // the job resumes from its .ckpt and must land on the same stats.
    std::filesystem::remove(stats);
    const StatDump resumed = emc::bench::runMany(jobs).at(0);
    expectIdentical(plain, resumed, "resumed sweep");

    // A finished job short-circuits through its sidecar.
    const StatDump cached = emc::bench::runMany(jobs).at(0);
    expectIdentical(plain, cached, "sidecar reload");

    unsetenv("EMC_CKPT_DIR");
    unsetenv("EMC_CKPT_INTERVAL");
    std::filesystem::remove_all(dir);
}

TEST(BenchHarness, CkptDirNeverServesAnotherConfigsSidecar)
{
    // Two different sweeps share one EMC_CKPT_DIR. The second must
    // simulate its own configs, not reload the first sweep's results
    // for the same job positions.
    SystemConfig cfg = smallConfig();
    std::vector<emc::bench::RunJob> first{{cfg, smallMix()}};
    cfg.emc_enabled = !cfg.emc_enabled;
    std::vector<emc::bench::RunJob> second{{cfg, smallMix()}};
    const StatDump fresh = emc::bench::runMany(second).at(0);

    const std::string dir = tmpPath("stale");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);
    const StatDump other = emc::bench::runMany(first).at(0);
    const StatDump reused = emc::bench::runMany(second).at(0);
    unsetenv("EMC_CKPT_DIR");
    std::filesystem::remove_all(dir);

    EXPECT_NE(other.get("system.cycles"), fresh.get("system.cycles"));
    expectIdentical(fresh, reused, "second sweep in a shared dir");
}

TEST(BenchHarness, JobKeySeparatesWarmSharedAndIgnoresTracing)
{
    // (Energy-only differences: Campaign.EnergyOnlyDifferenceIsNotMerged.)
    const emc::bench::RunJob job{smallConfig(), smallMix()};
    emc::bench::RunJob warm = job;
    warm.warm = job.cfg;
    emc::bench::RunJob traced = job;
    traced.cfg.trace_path = "ignored.json";  // observation only
    EXPECT_EQ(emc::bench::jobKey(job), emc::bench::jobKey(traced));
    EXPECT_NE(emc::bench::jobKey(job), emc::bench::jobKey(warm));
}

TEST(BenchHarness, SharedWarmupMatchesPerJobWarmup)
{
    SystemConfig warm_cfg;
    warm_cfg.num_cores = 1;
    warm_cfg.target_uops = 800;
    warm_cfg.warmup_uops = 400;
    const std::vector<std::string> mix = {"mcf"};

    std::vector<SystemConfig> points;
    points.push_back(warm_cfg);
    {
        SystemConfig c = warm_cfg;
        c.emc_enabled = true;
        points.push_back(c);
    }

    std::vector<emc::bench::RunJob> jobs;
    for (const SystemConfig &point : points)
        jobs.push_back({point, mix, warm_cfg});
    const std::vector<StatDump> shared = emc::bench::runMany(jobs);
    // Per-job warmup by hand: every point restores a warm image of
    // its own, built from warm_cfg just as the shared one is.
    std::vector<StatDump> perjob;
    for (const SystemConfig &point : points) {
        const std::vector<std::uint8_t> own =
            System(warm_cfg, mix).warmupCheckpointBytes();
        SystemConfig c = point;
        c.warmup_uops = 0;
        System sys(c, mix);
        sys.restoreCheckpointBytes(own);
        sys.run();
        perjob.push_back(sys.dump());
    }

    ASSERT_EQ(shared.size(), points.size());
    ASSERT_EQ(perjob.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        expectIdentical(shared[i], perjob[i], "shared vs per-job");
        EXPECT_GT(shared[i].get("system.cycles"), 0.0);
    }
    // The EMC point must actually differ from the baseline point —
    // otherwise the equality above compares two copies of one run.
    EXPECT_NE(shared[0].get("system.cycles"),
              shared[1].get("system.cycles"));
}

TEST(BenchHarness, WarmSharedNamesTheFailedJob)
{
    // Job 1 throws: its seed does not match the shared warm image.
    // The error must name job 1, and "1 of 3" shows the other two ran
    // to completion.
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 800;
    cfg.warmup_uops = 400;
    const std::vector<std::string> mix = {"mcf"};

    std::vector<emc::bench::RunJob> jobs(3, {cfg, mix, cfg});
    jobs[1].cfg.seed = cfg.seed + 1;
    try {
        emc::bench::runMany(jobs);
        ADD_FAILURE() << "runMany did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("1 of 3 jobs failed (job 1:"),
                  std::string::npos)
            << e.what();
    }
}
