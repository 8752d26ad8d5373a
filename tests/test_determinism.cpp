/**
 * @file
 * End-to-end determinism: the same configuration must produce a
 * field-for-field identical StatDump whether the System runs alone,
 * again in the same process, or inside the parallel bench harness
 * with several runs in flight on worker threads. This is the
 * regression gate for the event-queue / cycle-skipping / txn-pool
 * fast paths — any tie-break or ordering change shows up here as a
 * stat mismatch long before it would be noticed in a figure.
 */

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"

using emc::StatDump;
using emc::SystemConfig;

namespace
{

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.prefetch = emc::PrefetchConfig::kGhb;
    cfg.emc_enabled = true;
    cfg.target_uops = 1500;
    cfg.warmup_uops = 750;
    return cfg;
}

std::vector<std::string>
testMix()
{
    // A heterogeneous mix touches more machinery (different traces,
    // different chain behavior per core) than a homogeneous one.
    return {"mcf", "libquantum", "omnetpp", "sphinx3"};
}

void
expectIdentical(const StatDump &a, const StatDump &b,
                const char *what)
{
    ASSERT_EQ(a.all().size(), b.all().size()) << what;
    auto ia = a.all().begin();
    auto ib = b.all().begin();
    for (; ia != a.all().end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first) << what;
        // Bit-identical, not approximately equal: the simulator is
        // deterministic, so any drift is a real ordering bug.
        EXPECT_EQ(ia->second, ib->second)
            << what << ": stat " << ia->first << " diverged";
    }
}

} // namespace

TEST(Determinism, RepeatedSequentialRunsAreIdentical)
{
    const StatDump first = emc::bench::run(testConfig(), testMix());
    const StatDump second = emc::bench::run(testConfig(), testMix());
    ASSERT_GT(first.all().size(), 10u);
    expectIdentical(first, second, "sequential re-run");
}

TEST(Determinism, ParallelHarnessMatchesSequential)
{
    const StatDump sequential =
        emc::bench::run(testConfig(), testMix());

    // Force 4 workers regardless of the host's core count so the
    // runs genuinely interleave, and include decoy jobs with a
    // different config to catch any cross-run state leakage.
    setenv("EMC_BENCH_THREADS", "4", 1);
    std::vector<emc::bench::RunJob> jobs;
    jobs.push_back({testConfig(), testMix()});
    SystemConfig decoy = testConfig();
    decoy.prefetch = emc::PrefetchConfig::kNone;
    jobs.push_back({decoy, testMix()});
    jobs.push_back({testConfig(), testMix()});
    jobs.push_back({decoy, testMix()});
    const std::vector<StatDump> res = emc::bench::runMany(jobs);
    unsetenv("EMC_BENCH_THREADS");

    ASSERT_EQ(res.size(), jobs.size());
    expectIdentical(sequential, res[0], "parallel run, job 0");
    expectIdentical(sequential, res[2], "parallel run, job 2");
    expectIdentical(res[1], res[3], "decoy config runs");
    // The decoy config must actually differ from the main one
    // (otherwise the leakage check above checks nothing).
    EXPECT_NE(sequential.get("prefetch.issued"),
              res[1].get("prefetch.issued"));
}

TEST(Determinism, PooledJobsSharingOneMixMatchSequential)
{
    // Every job runs one mix at one seed that no other test uses, so
    // the pool's workers race to build the same workloads, then run
    // on overlays of one shared build at once.
    SystemConfig base = testConfig();
    base.seed = 90043;
    std::vector<emc::bench::RunJob> jobs;
    for (emc::PrefetchConfig pf :
         {emc::PrefetchConfig::kNone, emc::PrefetchConfig::kGhb}) {
        for (bool emc_on : {false, true}) {
            SystemConfig c = base;
            c.prefetch = pf;
            c.emc_enabled = emc_on;
            jobs.push_back({c, testMix()});
        }
    }
    setenv("EMC_BENCH_THREADS", "4", 1);
    const std::vector<StatDump> pooled = emc::bench::runMany(jobs);
    unsetenv("EMC_BENCH_THREADS");

    ASSERT_EQ(pooled.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectIdentical(emc::bench::run(jobs[i].cfg, jobs[i].benchmarks),
                        pooled[i], "pooled job on a shared build");
    }
    EXPECT_NE(pooled[0].get("system.cycles"),
              pooled[3].get("system.cycles"));
}

TEST(Determinism, CycleSkipDoesNotChangeAnyStat)
{
    const StatDump fast = emc::bench::run(testConfig(), testMix());
    setenv("EMC_NO_CYCLE_SKIP", "1", 1);
    const StatDump slow = emc::bench::run(testConfig(), testMix());
    unsetenv("EMC_NO_CYCLE_SKIP");
    expectIdentical(fast, slow, "cycle-skip vs cycle-by-cycle");
}
