/**
 * @file
 * Tests for the runtime invariant checkers (src/check, DESIGN.md §5d).
 *
 * Strategy: install a collecting violation handler, deliberately feed
 * each checker corrupted state, and assert it fires with the right
 * diagnostic. A final test attaches the full checker set to a real
 * System run and asserts (a) zero violations and (b) stat output
 * identical to an unchecked run — the checkers observe, never perturb.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/check.hh"
#include "check/checkers.hh"
#include "emc/emc.hh"
#include "sim/system.hh"

namespace emc
{

/** Test access to the core's retry list. */
struct CoreTestPeer
{
    /** Re-point the first parked load at another store; false if none. */
    static bool
    corruptFirstParkedBlocker(Core &c)
    {
        for (Core::RetryEntry &r : c.retry_q_) {
            if (r.blocker != 0) {
                r.blocker += 1;
                return true;
            }
        }
        return false;
    }
};

} // namespace emc

namespace emc::check
{
namespace
{

/** Registry wired to a collector instead of the aborting default. */
class CollectingRegistry
{
  public:
    CollectingRegistry()
    {
        reg.setClock([this] { return now; });
        reg.setHandler([this](const Violation &v) {
            got.push_back(v);
        });
    }

    bool
    sawMessage(const std::string &needle) const
    {
        for (const auto &v : got) {
            if (v.message.find(needle) != std::string::npos)
                return true;
        }
        return false;
    }

    CheckRegistry reg;
    Cycle now = 100;
    std::vector<Violation> got;
};

TEST(ViolationTest, FormatReportsCycleComponentAndTxn)
{
    CollectingRegistry c;
    c.now = 42;
    c.reg.fail("txn_lifecycle", "mc0.ch1", 7, "something broke");
    ASSERT_EQ(c.got.size(), 1u);
    const std::string line = c.got[0].format();
    EXPECT_NE(line.find("42"), std::string::npos) << line;
    EXPECT_NE(line.find("mc0.ch1"), std::string::npos) << line;
    EXPECT_NE(line.find("txn 7"), std::string::npos) << line;
    EXPECT_NE(line.find("something broke"), std::string::npos) << line;
    EXPECT_EQ(c.reg.violationCount(), 1u);
}

// --------------------------------------------------------------------
// Event queue
// --------------------------------------------------------------------

TEST(EventQueueCheckerTest, ScheduleInThePastFires)
{
    CollectingRegistry c;
    EventQueueChecker ck;
    // requested == now: the schedule API would clamp it, but the raw
    // request is still a latent bug at the call site.
    ck.onPush(c.reg, /*requested=*/100, /*effective=*/101, /*now=*/100,
              /*type=*/3, /*token=*/55);
    ASSERT_FALSE(c.got.empty());
    EXPECT_TRUE(c.sawMessage("scheduled in the past"));
    EXPECT_EQ(c.got[0].txn, 55u);
}

TEST(EventQueueCheckerTest, CleanPushPopSequenceIsSilent)
{
    CollectingRegistry c;
    EventQueueChecker ck;
    ck.onPush(c.reg, 105, 105, 100, 1, 10);
    ck.onPush(c.reg, 105, 105, 100, 2, 11);  // same cycle, FIFO behind
    ck.onPush(c.reg, 103, 103, 100, 3, 12);
    EXPECT_EQ(ck.pendingMirror(), 3u);
    ck.onPop(c.reg, 103, 3, 12);
    ck.onPop(c.reg, 105, 1, 10);
    ck.onPop(c.reg, 105, 2, 11);
    EXPECT_TRUE(c.got.empty()) << c.got[0].format();
    ck.checkDrained(c.reg, 0);
    EXPECT_TRUE(c.got.empty());
}

TEST(EventQueueCheckerTest, FifoInversionWithinCycleFires)
{
    CollectingRegistry c;
    EventQueueChecker ck;
    ck.onPush(c.reg, 105, 105, 100, 1, 10);
    ck.onPush(c.reg, 105, 105, 100, 2, 11);
    ck.onPop(c.reg, 105, 2, 11);  // second-pushed popped first
    EXPECT_TRUE(c.sawMessage("FIFO order violated"));
}

TEST(EventQueueCheckerTest, PopWithoutPushFires)
{
    CollectingRegistry c;
    EventQueueChecker ck;
    ck.onPop(c.reg, 100, 1, 10);
    EXPECT_TRUE(c.sawMessage("no matching push"));
}

TEST(EventQueueCheckerTest, UndrainedQueueFailsConservation)
{
    CollectingRegistry c;
    EventQueueChecker ck;
    ck.onPush(c.reg, 105, 105, 100, 1, 10);
    ck.checkDrained(c.reg, 0);  // mirror says 1 pending, queue says 0
    EXPECT_TRUE(c.sawMessage("not conserved"));
}

// --------------------------------------------------------------------
// Transaction lifecycle
// --------------------------------------------------------------------

TEST(TxnLifecycleCheckerTest, HappyPathIsSilent)
{
    CollectingRegistry c;
    TxnLifecycleChecker ck;
    ck.onCreate(c.reg, 1);
    ck.onIssue(c.reg, 1);
    ck.onDramDone(c.reg, 1);
    ck.onFill(c.reg, 1);
    ck.onFill(c.reg, 1);  // slice fill then core fill
    ck.onRetire(c.reg, 1);
    EXPECT_TRUE(c.got.empty()) << c.got[0].format();
    ck.checkLeaks(c.reg, 0);
    EXPECT_TRUE(c.got.empty());
}

TEST(TxnLifecycleCheckerTest, DoubleRetireFires)
{
    CollectingRegistry c;
    TxnLifecycleChecker ck;
    ck.onCreate(c.reg, 9);
    ck.onRetire(c.reg, 9);
    ck.onRetire(c.reg, 9);  // double free of the slab slot
    ASSERT_FALSE(c.got.empty());
    EXPECT_TRUE(c.sawMessage("double-retire or missing create"));
    EXPECT_EQ(c.got[0].txn, 9u);
}

TEST(TxnLifecycleCheckerTest, IllegalTransitionFires)
{
    CollectingRegistry c;
    TxnLifecycleChecker ck;
    ck.onCreate(c.reg, 2);
    ck.onDramDone(c.reg, 2);  // skipped the MC-enqueue step
    EXPECT_TRUE(c.sawMessage("illegal state"));
}

TEST(TxnLifecycleCheckerTest, NonMonotonicIdsFire)
{
    CollectingRegistry c;
    TxnLifecycleChecker ck;
    ck.onCreate(c.reg, 5);
    ck.onCreate(c.reg, 4);  // slab pool hands out increasing ids
    EXPECT_TRUE(c.sawMessage("strictly increasing"));
}

TEST(TxnLifecycleCheckerTest, LeakedTransactionFailsPoolAccounting)
{
    CollectingRegistry c;
    TxnLifecycleChecker ck;
    ck.onCreate(c.reg, 1);
    ck.onCreate(c.reg, 2);
    ck.onRetire(c.reg, 1);
    EXPECT_EQ(ck.liveCount(), 1u);
    // Pool claims empty while the tracker still holds txn 2: leak.
    ck.checkLeaks(c.reg, 0);
    EXPECT_TRUE(c.sawMessage("live transaction count"));
}

// --------------------------------------------------------------------
// Retire order
// --------------------------------------------------------------------

TEST(RetireOrderCheckerTest, GapInSequenceFires)
{
    CollectingRegistry c;
    RetireOrderChecker ck;
    ck.onRetire(c.reg, 0, 1);
    ck.onRetire(c.reg, 0, 2);
    ck.onRetire(c.reg, 1, 1);  // other core has its own sequence
    EXPECT_TRUE(c.got.empty());
    ck.onRetire(c.reg, 0, 4);  // seq 3 skipped
    ASSERT_FALSE(c.got.empty());
    EXPECT_TRUE(c.sawMessage("out of order"));
    EXPECT_EQ(c.got[0].component, "core0.rob");
}

// --------------------------------------------------------------------
// Chain RRT/EPR discipline
// --------------------------------------------------------------------

/** Minimal well-formed chain: source load into EPR 0, one dependent. */
ChainRequest
validChain()
{
    ChainRequest chain;
    chain.id = 77;
    chain.source_epr = 0;

    ChainUop src;
    src.d.uop.op = Opcode::kLoad;
    src.d.uop.dst = 1;
    src.d.uop.src1 = 2;
    src.is_source = true;
    src.epr_dst = 0;
    chain.uops.push_back(src);

    ChainUop add;
    add.d.uop.op = Opcode::kAdd;
    add.d.uop.dst = 3;
    add.d.uop.src1 = 1;
    add.d.uop.src2 = 4;
    add.epr_src1 = 0;          // reads the source load's EPR
    add.src2_live_in = true;   // captured from the core PRF
    add.epr_dst = 1;
    chain.uops.push_back(add);

    chain.live_in_count = 1;
    return chain;
}

TEST(ValidateChainTest, WellFormedChainIsSilent)
{
    CollectingRegistry c;
    EXPECT_EQ(validateChain(validChain(), c.reg, "test"), 0u);
    EXPECT_TRUE(c.got.empty()) << c.got[0].format();
}

TEST(ValidateChainTest, DoubleMappedEprFires)
{
    CollectingRegistry c;
    ChainRequest chain = validChain();
    chain.uops[1].epr_dst = 0;  // collides with the source's EPR
    EXPECT_GT(validateChain(chain, c.reg, "test"), 0u);
    EXPECT_TRUE(c.sawMessage("double-maps EPR"));
    EXPECT_EQ(c.got[0].txn, 77u);
}

TEST(ValidateChainTest, UseBeforeDefFires)
{
    CollectingRegistry c;
    ChainRequest chain = validChain();
    chain.uops[1].epr_src1 = 5;  // no uop ever writes EPR 5
    EXPECT_GT(validateChain(chain, c.reg, "test"), 0u);
    EXPECT_TRUE(c.sawMessage("stale RRT mapping"));
}

TEST(ValidateChainTest, LeakedLiveInMappingFires)
{
    CollectingRegistry c;
    ChainRequest chain = validChain();
    // The wire header promises two live-ins but only one operand is
    // flagged: the live-in vector shipped to the EMC is incomplete.
    chain.live_in_count = 2;
    EXPECT_GT(validateChain(chain, c.reg, "test"), 0u);
    EXPECT_TRUE(c.sawMessage("live-in vector incomplete"));
}

TEST(ValidateChainTest, OutOfRangeEprFires)
{
    CollectingRegistry c;
    ChainRequest chain = validChain();
    chain.uops[1].epr_dst = kEmcPhysRegs;  // one past the register file
    EXPECT_GT(validateChain(chain, c.reg, "test"), 0u);
    EXPECT_TRUE(c.sawMessage("outside the register file"));
}

TEST(ValidateChainTest, UnmappedSourceEprFires)
{
    CollectingRegistry c;
    ChainRequest chain = validChain();
    chain.source_epr = 9;  // no source uop writes EPR 9
    EXPECT_GT(validateChain(chain, c.reg, "test"), 0u);
    EXPECT_TRUE(c.sawMessage("not the destination of any source uop"));
}

// --------------------------------------------------------------------
// EMC predictor-path bounds (core ids index per-core tables)
// --------------------------------------------------------------------

/** Null chip services: the bounds check fires before any port call. */
class NullEmcPort : public EmcPort
{
  public:
    bool
    emcDirectDram(CoreId, Addr, std::uint64_t) override
    {
        return true;
    }
    bool
    emcLlcQuery(CoreId, Addr, std::uint64_t, Addr) override
    {
        return true;
    }
    void
    emcLsqPopulate(CoreId, std::uint64_t, Addr, std::uint64_t) override
    {}
    void emcChainResult(const ChainResult &, unsigned) override {}
    Cycle now() const override { return 0; }
};

TEST(EmcPredBoundsTest, OutOfRangeCoreInMissPredUpdateAborts)
{
    // The train path once masked bad ids with core % num_cores_,
    // silently training the wrong core's table; now it must abort.
    NullEmcPort port;
    EmcConfig cfg;
    Emc emc(cfg, /*num_cores=*/2, &port);
    EXPECT_DEATH(emc.missPredUpdate(2, 0x100, 0x4000, true),
                 "core id out of range");
    EXPECT_DEATH(emc.warmMissPredUpdate(7, 0x100, 0x4000, false),
                 "core id out of range");
}

// --------------------------------------------------------------------
// Core retry list: a parked load names the store a fresh SQ scan finds
// --------------------------------------------------------------------

TEST(CoreSelfCheckTest, WrongParkedBlockerFires)
{
    // lbm stream: loads wait on older stores with unknown addresses.
    SystemConfig cfg;
    cfg.prefetch = PrefetchConfig::kStream;
    cfg.target_uops = 2000;
    System sys(cfg, {"lbm", "lbm", "lbm", "lbm"});
    Core &core = sys.mutableCore(0);
    CollectingRegistry c;
    bool corrupted = false;
    while (!sys.finished() && !corrupted) {
        sys.tickOnce();
        core.selfCheck(c.reg);
        ASSERT_TRUE(c.got.empty()) << c.got[0].format();
        corrupted = CoreTestPeer::corruptFirstParkedBlocker(core);
    }
    ASSERT_TRUE(corrupted) << "no load ever parked";
    core.selfCheck(c.reg);
    EXPECT_TRUE(c.sawMessage("but the SQ scan gives"));
}

// --------------------------------------------------------------------
// End to end: the full checker set on a real simulation
// --------------------------------------------------------------------

TEST(SystemInvariantTest, CheckedRunIsCleanAndDoesNotPerturbStats)
{
    SystemConfig cfg;
    cfg.target_uops = 4000;
    cfg.max_cycles = 3'000'000;
    cfg.emc_enabled = true;  // exercise chain validation too

    StatDump plain;
    {
        System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
        sys.run();
        plain = sys.dump();
    }

    std::vector<Violation> got;
    StatDump checked;
    {
        System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
        sys.enableInvariantChecks();
        sys.checkRegistry()->setHandler([&](const Violation &v) {
            got.push_back(v);
        });
        sys.run();
        checked = sys.dump();
    }

    EXPECT_TRUE(got.empty()) << got[0].format();
    // Observation only: the rendered stat output is byte-identical.
    EXPECT_EQ(plain.format(), checked.format());
}

} // namespace
} // namespace emc::check
