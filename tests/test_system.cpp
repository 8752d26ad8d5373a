/**
 * @file
 * Integration tests: whole-chip simulations exercising every module
 * together, plus invariants that only hold end-to-end (inclusive
 * hierarchy, deadlock freedom, deterministic replay, EMC protocol
 * round trips, dual-MC scaling, prefetcher plumbing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/phase.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

namespace emc
{
namespace
{

SystemConfig
smallCfg()
{
    SystemConfig cfg;
    cfg.target_uops = 6000;
    cfg.max_cycles = 3'000'000;
    return cfg;
}

TEST(SystemTest, QuadCoreRunsToCompletion)
{
    System sys(smallCfg(), {"mcf", "libquantum", "omnetpp", "lbm"});
    sys.run();
    ASSERT_TRUE(sys.finished());
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GE(sys.core(i).retired(), 6000u);
}

TEST(SystemTest, DeterministicReplay)
{
    StatDump a, b;
    {
        System sys(smallCfg(), {"mcf", "mcf", "mcf", "mcf"});
        sys.run();
        a = sys.dump();
    }
    {
        System sys(smallCfg(), {"mcf", "mcf", "mcf", "mcf"});
        sys.run();
        b = sys.dump();
    }
    EXPECT_EQ(a.get("system.cycles"), b.get("system.cycles"));
    EXPECT_EQ(a.get("llc.demand_misses"), b.get("llc.demand_misses"));
    EXPECT_EQ(a.get("dram.reads"), b.get("dram.reads"));
}

TEST(SystemTest, EmcRunsAndCompletesChains)
{
    SystemConfig cfg = smallCfg();
    cfg.emc_enabled = true;
    System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
    sys.run();
    ASSERT_TRUE(sys.finished());
    const StatDump d = sys.dump();
    EXPECT_GT(d.get("emc.chains_accepted"), 0.0);
    EXPECT_GT(d.get("emc.chains_completed"), 0.0);
    EXPECT_GT(d.get("emc.generated_misses"), 0.0);
    EXPECT_GT(d.get("emc.miss_fraction"), 0.0);
    // EMC-issued misses observe lower latency than core-issued ones
    // (the paper's Figure 18 shape).
    EXPECT_LT(d.get("lat.emc_total"), d.get("lat.core_total"));
}

TEST(SystemTest, McfDependentMissFractionMatchesPaperShape)
{
    // Paper Figure 2: mcf has the highest dependent-miss fraction
    // (tens of percent); lbm has essentially none.
    System sys(smallCfg(), {"mcf", "lbm", "libquantum", "bwaves"});
    sys.run();
    const StatDump d = sys.dump();
    EXPECT_GT(d.get("core0.dep_miss_frac"), 0.3);
    EXPECT_LT(d.get("core1.dep_miss_frac"), 0.05);
    EXPECT_LT(d.get("core2.dep_miss_frac"), 0.05);
}

TEST(SystemTest, HighVsLowIntensityClassification)
{
    // Table 2's split must be reproduced by measured MPKI. Warmup
    // amortizes the cold-start misses of the cache-resident kernels.
    SystemConfig cfg = smallCfg();
    cfg.warmup_uops = 30000;
    cfg.target_uops = 10000;
    System hi(cfg, {"mcf", "libquantum", "lbm", "omnetpp"});
    hi.run();
    const StatDump dh = hi.dump();
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_GE(dh.get("core" + std::to_string(i) + ".mpki"), 10.0)
            << "high-intensity benchmark below 10 MPKI";
    }
    System lo(cfg, {"povray", "gamess", "sjeng", "calculix"});
    lo.run();
    const StatDump dl = lo.dump();
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_LT(dl.get("core" + std::to_string(i) + ".mpki"), 10.0)
            << "low-intensity benchmark above 10 MPKI";
    }
}

TEST(SystemTest, PrefetcherReducesStreamMisses)
{
    SystemConfig base = smallCfg();
    System nopf(base, {"libquantum", "libquantum", "libquantum",
                       "libquantum"});
    nopf.run();
    SystemConfig pf = base;
    pf.prefetch = PrefetchConfig::kStream;
    System stream(pf, {"libquantum", "libquantum", "libquantum",
                       "libquantum"});
    stream.run();
    // Streaming workloads must see a large LLC miss reduction.
    EXPECT_LT(stream.dump().get("llc.demand_misses"),
              0.7 * nopf.dump().get("llc.demand_misses"));
    EXPECT_GT(stream.dump().get("prefetch.issued"), 0.0);
}

TEST(SystemTest, PrefetchersBarelyCoverDependentMisses)
{
    // Paper Figure 3: dependent misses are hard to prefetch.
    SystemConfig cfg = smallCfg();
    cfg.prefetch = PrefetchConfig::kGhb;
    System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
    sys.run();
    const StatDump d = sys.dump();
    const double dep = d.get("llc.dep_misses")
                       + d.get("llc.dep_misses_covered_by_pf");
    if (dep > 0) {
        EXPECT_LT(d.get("llc.dep_misses_covered_by_pf") / dep, 0.35);
    }
}

TEST(SystemTest, IdealDependentHitsSpeedUpMcf)
{
    // Paper Figure 2's idealization: large gains for mcf.
    SystemConfig base = smallCfg();
    System b(base, {"mcf", "mcf", "mcf", "mcf"});
    b.run();
    SystemConfig ideal = base;
    ideal.ideal_dependent_hits = true;
    System i(ideal, {"mcf", "mcf", "mcf", "mcf"});
    i.run();
    EXPECT_GT(i.dump().get("system.ipc_sum"),
              1.2 * b.dump().get("system.ipc_sum"));
    EXPECT_GT(i.dump().get("llc.ideal_dep_hits_granted"), 0.0);
}

TEST(SystemTest, EightCoreSingleAndDualMc)
{
    SystemConfig cfg = smallCfg();
    cfg.target_uops = 3000;
    cfg.scaleToEightCores(false);
    cfg.emc_enabled = true;
    std::vector<std::string> w = {"mcf", "libquantum", "omnetpp", "lbm",
                                  "mcf", "libquantum", "omnetpp", "lbm"};
    System single(cfg, w);
    single.run();
    EXPECT_TRUE(single.finished());
    EXPECT_GT(single.dump().get("emc.chains_accepted"), 0.0);

    SystemConfig dual = smallCfg();
    dual.target_uops = 3000;
    dual.scaleToEightCores(true);
    dual.emc_enabled = true;
    System d(dual, w);
    d.run();
    EXPECT_TRUE(d.finished());
    EXPECT_GT(d.dump().get("emc.chains_accepted"), 0.0);
}

TEST(SystemTest, EnergyAccountingSane)
{
    System sys(smallCfg(), {"mcf", "libquantum", "omnetpp", "lbm"});
    sys.run();
    const StatDump d = sys.dump();
    EXPECT_GT(d.get("energy.total_mj"), 0.0);
    EXPECT_GT(d.get("energy.static_mj"), 0.0);
    EXPECT_GT(d.get("energy.dram_dynamic_mj"), 0.0);
    // Static power dominates at these short run lengths.
    EXPECT_GT(d.get("energy.static_mj"),
              d.get("energy.core_dynamic_mj"));
}

TEST(SystemTest, TrafficAccountingConsistent)
{
    SystemConfig cfg = smallCfg();
    cfg.prefetch = PrefetchConfig::kStream;
    cfg.emc_enabled = true;
    System sys(cfg, {"mcf", "libquantum", "omnetpp", "lbm"});
    sys.run();
    const StatDump d = sys.dump();
    // Every DRAM read/write belongs to an origin bucket; a handful of
    // requests may still be queued (un-issued) when the run ends.
    EXPECT_NEAR(d.get("traffic.total"),
                d.get("dram.reads") + d.get("dram.writes"), 300.0);
    EXPECT_GE(d.get("traffic.total"),
              d.get("dram.reads") + d.get("dram.writes"));
}

TEST(SystemTest, RowConflictRateReasonable)
{
    System sys(smallCfg(), {"mcf", "mcf", "mcf", "mcf"});
    sys.run();
    const double rate = sys.dump().get("dram.row_conflict_rate");
    EXPECT_GT(rate, 0.1);
    EXPECT_LE(rate, 1.0);
}

/** Relative error of the phase means' sum against the total mean. */
double
phaseSumError(const StatDump &d, const std::string &cls)
{
    const std::string base = "phase." + cls + ".";
    double sum = 0;
    for (std::size_t p = 0; p < obs::kPhaseTotal; ++p)
        sum += d.get(base + obs::phaseName(p) + "_avg");
    const double total = d.get(base + "total_avg");
    return std::abs(sum - total) / total;
}

TEST(SystemTest, LatencyBreakdownAddsUp)
{
    System sys(smallCfg(), {"mcf", "omnetpp", "soplex", "sphinx3"});
    sys.run();
    const StatDump d = sys.dump();
    // Figure 1 split: DRAM service plus the on-chip rest is the total,
    // and both parts are real.
    EXPECT_GT(d.get("phase.core.dram_avg"), 0.0);
    EXPECT_GT(d.get("phase.core.total_avg") - d.get("phase.core.dram_avg"),
              0.0);
    EXPECT_LE(phaseSumError(d, "core"), 1e-9);
    EXPECT_DOUBLE_EQ(d.get("lat.core_total"), d.get("phase.core.total_avg"));
}

TEST(SystemTest, PhaseMeansSumToTotalPerClass)
{
    // H1 and H4 with the EMC on: for every class, the phase means sum
    // to the total mean, so fig19's per-phase savings sum to fig18's.
    for (std::size_t h : {0u, 3u}) {
        SystemConfig cfg = smallCfg();
        cfg.emc_enabled = true;
        System sys(cfg, quadWorkloads()[h]);
        sys.run();
        const StatDump d = sys.dump();
        for (const char *cls : {"core", "core_dep", "emc"}) {
            ASSERT_GT(d.get(std::string("phase.") + cls + ".total_samples"),
                      0.0) << quadWorkloadName(h) << " " << cls;
            EXPECT_LE(phaseSumError(d, cls), 1e-9)
                << quadWorkloadName(h) << " " << cls;
        }
        EXPECT_DOUBLE_EQ(d.get("lat.emc_total"),
                         d.get("phase.emc.total_avg"));
        // core_dep is the dependent subset of core.
        EXPECT_LT(d.get("phase.core_dep.total_samples"),
                  d.get("phase.core.total_samples"));
    }
}

TEST(SystemTest, InclusiveHierarchyBackInvalidates)
{
    // Small LLC forces evictions; the run must stay functionally
    // correct (oracle asserts) and finish.
    SystemConfig cfg = smallCfg();
    cfg.llc_slice_bytes = 64 * 1024;
    cfg.target_uops = 4000;
    System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
    sys.run();
    EXPECT_TRUE(sys.finished());
}

TEST(SystemTest, EmcWithPrefetchingCoexists)
{
    SystemConfig cfg = smallCfg();
    cfg.emc_enabled = true;
    cfg.prefetch = PrefetchConfig::kGhb;
    System sys(cfg, {"mcf", "libquantum", "omnetpp", "bwaves"});
    sys.run();
    ASSERT_TRUE(sys.finished());
    const StatDump d = sys.dump();
    EXPECT_GT(d.get("emc.chains_completed"), 0.0);
    EXPECT_GT(d.get("prefetch.issued"), 0.0);
}

TEST(SystemTest, BatchVsFrFcfsBothComplete)
{
    for (SchedPolicy pol : {SchedPolicy::kBatch, SchedPolicy::kFrFcfs}) {
        SystemConfig cfg = smallCfg();
        cfg.sched = pol;
        cfg.target_uops = 4000;
        System sys(cfg, {"mcf", "libquantum", "omnetpp", "lbm"});
        sys.run();
        EXPECT_TRUE(sys.finished());
    }
}

TEST(SystemTest, TickOnceIsSafeStandalone)
{
    SystemConfig cfg = smallCfg();
    System sys(cfg, {"gcc", "gcc", "gcc", "gcc"});
    for (int i = 0; i < 1000; ++i)
        sys.tickOnce();
    EXPECT_EQ(sys.cycles(), 1000u);
    EXPECT_GT(sys.core(0).retired(), 0u);
}

TEST(SystemTest, EmcRecordsMissLinesWhenAsked)
{
    SystemConfig cfg = smallCfg();
    cfg.emc_enabled = true;
    cfg.record_emc_miss_lines = true;
    System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
    sys.run();
    EXPECT_FALSE(sys.emcMissLines().empty());
}

TEST(SystemTest, RingTrafficReportedAndEmcShareSane)
{
    SystemConfig cfg = smallCfg();
    cfg.emc_enabled = true;
    System sys(cfg, {"mcf", "mcf", "omnetpp", "omnetpp"});
    sys.run();
    const StatDump d = sys.dump();
    EXPECT_GT(d.get("ring.data_msgs"), 0.0);
    EXPECT_GT(d.get("ring.control_msgs"), 0.0);
    EXPECT_GT(d.get("ring.data_emc_msgs"), 0.0);
    EXPECT_LT(d.get("ring.data_emc_msgs"), d.get("ring.data_msgs"));
}

TEST(SystemTest, FdpSignalsPlumbed)
{
    // A streaming workload with prefetching produces useful and
    // (under DRAM contention) some late prefetches; counters must
    // move and stay consistent.
    SystemConfig cfg = smallCfg();
    cfg.prefetch = PrefetchConfig::kStream;
    cfg.target_uops = 8000;
    System sys(cfg, {"libquantum", "libquantum", "lbm", "lbm"});
    sys.run();
    const StatDump d = sys.dump();
    EXPECT_GT(d.get("prefetch.issued"), 0.0);
    EXPECT_GT(d.get("prefetch.useful"), 0.0);
    EXPECT_LE(d.get("prefetch.useful"), d.get("prefetch.issued"));
    EXPECT_GE(d.get("prefetch.late"), 0.0);
    EXPECT_GE(d.get("prefetch.polluted"), 0.0);
    EXPECT_GE(d.get("prefetch.degree"), 1.0);
    EXPECT_LE(d.get("prefetch.degree"), 32.0);
}

TEST(SystemTest, LatencyPercentilesOrdered)
{
    SystemConfig cfg = smallCfg();
    cfg.emc_enabled = true;
    System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
    sys.run();
    const StatDump d = sys.dump();
    ASSERT_TRUE(d.has("phase.core.total_p50"));
    ASSERT_TRUE(d.has("phase.emc.total_p50"));
    for (std::size_t c = 0; c < obs::kNumPhaseClasses; ++c) {
        const auto cls = static_cast<obs::PhaseClass>(c);
        for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
            const std::string key = std::string("phase.")
                                    + obs::phaseClassName(cls) + "."
                                    + obs::phaseName(p);
            EXPECT_LE(d.get(key + "_p50"), d.get(key + "_p95")) << key;
            EXPECT_LE(d.get(key + "_p95"), d.get(key + "_p99")) << key;
            EXPECT_LE(d.get(key + "_p99"),
                      sys.phases().hist(cls, p).maxSample()) << key;
        }
    }
    // The EMC's median miss is at least as fast as the core's, within
    // one histogram bucket.
    EXPECT_LE(d.get("phase.emc.total_p50"),
              d.get("phase.core.total_p50") + obs::kPhaseBucketWidth);
}

TEST(SystemTest, TlbShootdownInvalidatesEmcEntries)
{
    SystemConfig cfg = smallCfg();
    cfg.emc_enabled = true;
    System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
    sys.run();
    ASSERT_NE(sys.emc(), nullptr);
    // Find a resident page by probing recent chase pages, then shoot
    // it down and verify it is gone.
    bool found = false;
    for (Addr vp = pageNum(0x10000000);
         vp < pageNum(0x10000000) + 16384 && !found; ++vp) {
        if (sys.emc()->tlbResident(0, vp)) {
            found = true;
            sys.tlbShootdown(0, vp);
            EXPECT_FALSE(sys.emc()->tlbResident(0, vp));
        }
    }
    EXPECT_TRUE(found) << "no EMC TLB entries to shoot down";
}

TEST(SystemTest, JsonDumpWellFormedEnough)
{
    System sys(smallCfg(), {"gcc", "gcc", "gcc", "gcc"});
    sys.run();
    const std::string json = sys.dump().toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"system.cycles\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// --------------------------------------------------------------------
// Latency oracle: one requester, one request, an idle chip. Every
// phase (DESIGN.md §6) of the core path and of the EMC paths is a
// closed form of the config, derived from the tick order: events,
// then DRAM channels, EMCs, rings, cores. A ring message moves one
// stop per cycle and is handled on arrival, during the ring's tick;
// a same-stop message is an event the next cycle.
// --------------------------------------------------------------------

/** One core (fetch paused, so the test alone issues requests) and two
 *  MCs with one DRAM channel each. Ring stops: core 0 with its LLC
 *  slice, MC0, MC1 — every pair one hop apart. */
SystemConfig
oracleConfig()
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.num_mcs = 2;
    cfg.emc_enabled = true;
    return cfg;
}

constexpr Cycle kHops = 1;

/** The physical page the oracle requests use. Its line k maps to
 *  channel (= MC) k % 2 and bank (k / 2) % 8: distinct k / 2 give
 *  distinct banks, so every request finds its bank idle and closed. */
constexpr Addr kFrame = 0x200;
constexpr Addr kVpage = 0x100;

Addr
frameLine(unsigned k)
{
    return (kFrame << kPageShift) + k * kLineBytes;
}

Addr
pageVaddr(unsigned k)
{
    return (kVpage << kPageShift) + k * kLineBytes;
}

/** DRAM service of a read to a closed bank: activate, CAS, burst. */
Cycle
closedBankRead(const SystemConfig &cfg)
{
    return cfg.timing.tRCD + cfg.timing.tCL + cfg.timing.tBurst;
}

/** Tick until @p cls holds its first sample; return its phases. */
std::vector<Cycle>
firstSample(System &sys, obs::PhaseClass cls)
{
    for (int i = 0; i < 5000; ++i) {
        if (sys.phases().hist(cls, obs::kPhaseTotal).samples() > 0)
            break;
        sys.tickOnce();
    }
    std::vector<Cycle> v;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
        const Histogram &h = sys.phases().hist(cls, p);
        EXPECT_EQ(h.samples(), 1u) << obs::phaseName(p);
        v.push_back(static_cast<Cycle>(h.mean()));
    }
    return v;
}

/** A chain offloaded by core 0: the source load (its data already
 *  past the MC) yields the address of one dependent load, to frame
 *  line @p dep_k. The EMC at the source's MC (line @p src_k) runs it. */
ChainRequest
oracleChain(unsigned src_k, unsigned dep_k)
{
    ChainRequest c;
    c.id = 1;
    c.core = 0;
    c.source_paddr_line = frameLine(src_k);
    c.source_value = pageVaddr(dep_k);
    c.source_epr = 0;

    ChainUop src;
    src.d.uop.op = Opcode::kLoad;
    src.d.uop.dst = 1;
    src.d.uop.src1 = 1;
    src.d.vaddr = pageVaddr(src_k);
    src.d.mem_value = src.d.result = pageVaddr(dep_k);
    src.is_source = true;
    src.epr_dst = 0;
    src.rob_seq = 10;
    c.uops.push_back(src);

    ChainUop dep;
    dep.d.uop.op = Opcode::kLoad;
    dep.d.uop.dst = 2;
    dep.d.uop.src1 = 1;
    dep.d.vaddr = pageVaddr(dep_k);
    dep.d.mem_value = dep.d.result = 42;
    dep.epr_dst = 1;
    dep.epr_src1 = 0;
    dep.rob_seq = 11;
    c.uops.push_back(dep);

    c.source_pte = Pte{kVpage, kFrame, true};
    c.pte_attached = true;
    return c;
}

using Phases = std::vector<Cycle>;  // lookup xfer queue dram ret total

TEST(LatencyOracle, CorePath)
{
    const SystemConfig cfg = oracleConfig();
    System sys(cfg, {"mcf"});
    sys.mutableCore(0).pauseFetch(true);
    ASSERT_TRUE(sys.requestLine(0, frameLine(0), 0x400, false, true));

    const Cycle L = cfg.llc_latency;
    // lookup: same-stop hop to the slice (1) + the LLC lookup.
    // xfer:   slice -> MC0 on the control ring.
    // queue:  the request reaches MC0 in the ring tick, after the
    //         channel's tick of that cycle: issued 1 cycle later.
    // ret:    MC0 -> slice on the data ring, then the same-stop hop.
    const Phases want = {1 + L, kHops, 1, closedBankRead(cfg), kHops + 1,
                         1 + L + kHops + 1 + closedBankRead(cfg) + kHops
                             + 1};
    EXPECT_EQ(firstSample(sys, obs::PhaseClass::kCoreDep), want);
    EXPECT_EQ(firstSample(sys, obs::PhaseClass::kCore), want);
}

TEST(LatencyOracle, EmcPathThroughTheLlc)
{
    const SystemConfig cfg = oracleConfig();
    System sys(cfg, {"mcf"});
    sys.mutableCore(0).pauseFetch(true);
    ASSERT_TRUE(sys.offloadChain(oracleChain(2, 4)));  // EMC0, line on MC0

    // An untrained predictor says "LLC hit", so the load queries the
    // slice. lookup: the EMC's LSQ-populate message to the core left
    // MC0's stop first the same cycle, so the query waits 1 for its
    // ring slot, then MC0 -> slice and the lookup. xfer/queue as on
    // the core path; the data is at EMC0 when the burst ends.
    const Cycle L = cfg.llc_latency;
    const Phases want = {1 + kHops + L, kHops, 1, closedBankRead(cfg), 0,
                         1 + kHops + L + kHops + 1 + closedBankRead(cfg)};
    EXPECT_EQ(firstSample(sys, obs::PhaseClass::kEmc), want);
    EXPECT_EQ(sys.dump().get("emc.llc_query_loads"), 1.0);
}

/** Train the EMC's miss predictor on @p pc with core misses to banks
 *  the oracle requests do not use (channel 1, banks 0-3, other
 *  rows), and wait for them to finish. */
void
trainMissPredictor(System &sys, Addr pc)
{
    unsigned n = 0;
    for (Addr frame : {0x300u, 0x400u}) {
        for (unsigned k : {1u, 3u, 5u, 7u}) {
            ASSERT_TRUE(sys.requestLine(
                0, (frame << kPageShift) + k * kLineBytes, pc, false,
                false));
            ++n;
        }
    }
    for (int i = 0; i < 20000; ++i) {
        if (sys.phases().hist(obs::PhaseClass::kCore, obs::kPhaseTotal)
                .samples() == n)
            break;
        sys.tickOnce();
    }
}

constexpr Addr kTrainedPc = 0x777;

TEST(LatencyOracle, EmcPathDirectAtItsOwnMc)
{
    const SystemConfig cfg = oracleConfig();
    System sys(cfg, {"mcf"});
    sys.mutableCore(0).pauseFetch(true);
    trainMissPredictor(sys, kTrainedPc);
    ChainRequest c = oracleChain(2, 4);  // EMC0, line on MC0
    c.uops[1].d.uop.pc = kTrainedPc;
    ASSERT_TRUE(sys.offloadChain(c));

    // A predicted miss goes straight to DRAM: no lookup; the
    // same-stop hop to MC0's queue is an event before the channel's
    // tick, so it issues at once; the data is at EMC0 when the burst
    // ends.
    const Phases want = {0, 1, 0, closedBankRead(cfg), 0,
                         1 + closedBankRead(cfg)};
    EXPECT_EQ(firstSample(sys, obs::PhaseClass::kEmc), want);
    EXPECT_EQ(sys.dump().get("emc.direct_dram_loads"), 1.0);
}

TEST(LatencyOracle, EmcPathDirectAcrossMcs)
{
    const SystemConfig cfg = oracleConfig();
    System sys(cfg, {"mcf"});
    sys.mutableCore(0).pauseFetch(true);
    trainMissPredictor(sys, kTrainedPc);
    ChainRequest c = oracleChain(2, 9);  // EMC0, line on MC1
    c.uops[1].d.uop.pc = kTrainedPc;
    ASSERT_TRUE(sys.offloadChain(c));

    // EMC0 -> MC1 on the control ring, arriving after MC1's channel
    // tick (queue 1); the data rides back MC1 -> EMC0 on the data
    // ring and ends there, not at the LLC install.
    const Phases want = {0, kHops, 1, closedBankRead(cfg), kHops,
                         kHops + 1 + closedBankRead(cfg) + kHops};
    EXPECT_EQ(firstSample(sys, obs::PhaseClass::kEmc), want);
    EXPECT_EQ(sys.dump().get("emc.direct_dram_loads"), 1.0);
}

} // namespace
} // namespace emc
