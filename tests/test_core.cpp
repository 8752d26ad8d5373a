/**
 * @file
 * Unit tests for the out-of-order core: renaming/dataflow correctness,
 * memory path, store forwarding, mispredict handling, full-window
 * stall detection, taint-based dependent-miss identification, the
 * chain-generation unit (Section 4.2) and the parked-retry timing and
 * TLB accounting of store-blocked loads (DESIGN.md §5c).
 */

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "core/core.hh"
#include "mem/functional_memory.hh"
#include "vm/page_table.hh"
#include "workload/synthetic.hh"

namespace emc
{

/** Test access to the core's retry list and SQ. */
struct CoreTestPeer
{
    /** (load seq, blocking store seq or 0 when active), retry order. */
    static std::vector<std::pair<std::uint64_t, std::uint64_t>>
    retries(const Core &c)
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        for (const Core::RetryEntry &r : c.retry_q_)
            out.emplace_back(r.seq, r.blocker);
        return out;
    }

    static bool
    storeAddrKnown(const Core &c, std::uint64_t seq)
    {
        for (const auto &sqe : c.sq_) {
            if (sqe.seq == seq)
                return sqe.addr_known;
        }
        return true;  // retired
    }

    static void
    saturateDepCounter(Core &c)
    {
        for (unsigned i = 0; i < c.dep_counter_.max(); ++i)
            c.dep_counter_.increment();
    }
};

namespace
{

/**
 * A controllable fake chip: requests are captured; the test decides
 * when the LLC reports a miss and when fills arrive.
 */
class FakeChip : public CorePort
{
  public:
    struct Pending
    {
        Addr line;
        Cycle fill_at;
        bool llc_miss;
    };

    bool
    requestLine(CoreId core, Addr paddr_line, Addr pc, bool for_store,
                bool addr_tainted) override
    {
        if (reject_requests)
            return false;
        requests.push_back(paddr_line);
        request_cycles.push_back(now_);
        tainted_flags.push_back(addr_tainted);
        pending.push_back({paddr_line, now_ + fill_latency, miss_mode});
        return true;
    }

    void
    storeThrough(CoreId core, Addr paddr_line) override
    {
        stores.push_back(paddr_line);
    }

    bool
    offloadChain(const ChainRequest &chain) override
    {
        if (!accept_chains)
            return false;
        chains.push_back(chain);
        return true;
    }

    bool emcTlbResident(CoreId, Addr) override { return tlb_resident; }
    Cycle now() const override { return now_; }

    /** Advance time and deliver due fills to @p core. */
    void
    step(Core &core)
    {
        ++now_;
        for (std::size_t i = 0; i < pending.size();) {
            Pending &p = pending[i];
            if (p.llc_miss && p.fill_at == now_ + miss_notice_lead)
                core.llcMissDetermined(p.line);
            if (p.fill_at <= now_) {
                core.fillArrived(p.line, p.llc_miss);
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
        core.tick();
    }

    void
    run(Core &core, unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i)
            step(core);
    }

    Cycle now_ = 0;
    Cycle fill_latency = 200;
    Cycle miss_notice_lead = 150;  ///< miss known this long before fill
    bool miss_mode = true;         ///< requests miss the LLC
    bool reject_requests = false;
    bool accept_chains = true;
    bool tlb_resident = false;
    std::vector<Addr> requests;
    std::vector<Cycle> request_cycles;
    std::vector<bool> tainted_flags;
    std::vector<Addr> stores;
    std::vector<ChainRequest> chains;
    std::vector<Pending> pending;
};

DynUop
movImm(std::uint8_t dst, std::int64_t imm, std::uint64_t pc = 0x100)
{
    DynUop d;
    d.uop.op = Opcode::kMov;
    d.uop.dst = dst;
    d.uop.imm = imm;
    d.uop.pc = pc;
    d.result = static_cast<std::uint64_t>(imm);
    return d;
}

DynUop
add(std::uint8_t dst, std::uint8_t src1, std::int64_t imm,
    std::uint64_t result, std::uint64_t pc = 0x104)
{
    DynUop d;
    d.uop.op = Opcode::kAdd;
    d.uop.dst = dst;
    d.uop.src1 = src1;
    d.uop.imm = imm;
    d.uop.pc = pc;
    d.result = result;
    return d;
}

DynUop
load(std::uint8_t dst, std::uint8_t base, std::int64_t imm, Addr vaddr,
     std::uint64_t value, std::uint64_t pc = 0x108)
{
    DynUop d;
    d.uop.op = Opcode::kLoad;
    d.uop.dst = dst;
    d.uop.src1 = base;
    d.uop.imm = imm;
    d.uop.pc = pc;
    d.vaddr = vaddr;
    d.mem_value = value;
    d.result = value;
    return d;
}

DynUop
store(std::uint8_t base, std::uint8_t data, std::int64_t imm, Addr vaddr,
      std::uint64_t value, std::uint64_t pc = 0x10c)
{
    DynUop d;
    d.uop.op = Opcode::kStore;
    d.uop.src1 = base;
    d.uop.src2 = data;
    d.uop.imm = imm;
    d.uop.pc = pc;
    d.vaddr = vaddr;
    d.mem_value = value;
    return d;
}

DynUop
branch(std::uint8_t cond, bool taken, bool mispredicted,
       std::uint64_t pc = 0x110)
{
    DynUop d;
    d.uop.op = Opcode::kBranch;
    d.uop.src1 = cond;
    d.uop.pc = pc;
    d.taken = taken;
    d.mispredicted = mispredicted;
    return d;
}

struct CoreHarness
{
    explicit CoreHarness(std::vector<DynUop> uops, CoreConfig cfg = {})
        : trace(std::move(uops)), pt(0, 1),
          core(0, cfg, &trace, &pt, &chip)
    {}

    VectorTrace trace;
    PageTable pt;
    FakeChip chip;
    Core core{0, CoreConfig{}, &trace, &pt, &chip};
};

TEST(CoreTest, RetiresSimpleAluProgram)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 5));
    prog.push_back(add(2, 1, 3, 8));
    prog.push_back(add(3, 2, 1, 9));
    CoreHarness h(prog);
    h.chip.run(h.core, 50);
    EXPECT_EQ(h.core.retired(), 3u);
}

TEST(CoreTest, OracleDivergencePanics)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 5));
    DynUop bad = add(2, 1, 3, 999);  // wrong oracle result
    prog.push_back(bad);
    CoreHarness h(prog);
    EXPECT_DEATH(h.chip.run(h.core, 50), "diverged");
}

TEST(CoreTest, LoadMissGoesToChip)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x5000));
    prog.push_back(load(2, 1, 0, 0x5000, 77));
    prog.push_back(add(3, 2, 1, 78));
    CoreHarness h(prog);
    h.chip.run(h.core, 400);
    EXPECT_EQ(h.core.retired(), 3u);
    ASSERT_EQ(h.chip.requests.size(), 1u);
    EXPECT_EQ(h.chip.requests[0], lineAlign(h.pt.translate(0x5000)));
}

TEST(CoreTest, L1HitAfterFill)
{
    // The second load's address depends on the first load's result
    // and lands on the already-filled line: an L1 hit.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x5000));
    prog.push_back(load(2, 1, 0, 0x5000, 0x5008));
    prog.push_back(load(3, 2, 0, 0x5008, 0));  // same line, dependent
    CoreHarness h(prog);
    h.chip.run(h.core, 400);
    EXPECT_EQ(h.core.retired(), 3u);
    EXPECT_EQ(h.chip.requests.size(), 1u);
    EXPECT_EQ(h.core.stats().l1d_hits, 1u);
}

TEST(CoreTest, MshrMergesSameLine)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x5000));
    prog.push_back(load(2, 1, 0, 0x5000, 1));
    prog.push_back(load(3, 1, 16, 0x5010, 2));  // same line, parallel
    CoreHarness h(prog);
    h.chip.run(h.core, 400);
    EXPECT_EQ(h.core.retired(), 3u);
    EXPECT_EQ(h.chip.requests.size(), 1u);
}

TEST(CoreTest, StoreForwarding)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x7000));
    prog.push_back(movImm(2, 42));
    prog.push_back(store(1, 2, 0, 0x7000, 42));
    prog.push_back(load(3, 1, 0, 0x7000, 42));
    CoreHarness h(prog);
    h.chip.run(h.core, 100);
    EXPECT_EQ(h.core.retired(), 4u);
    // The load forwarded from the store queue: no memory request.
    EXPECT_TRUE(h.chip.requests.empty());
}

TEST(CoreTest, RetiredStoresDrainWriteThrough)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x7000));
    prog.push_back(movImm(2, 42));
    prog.push_back(store(1, 2, 0, 0x7000, 42));
    CoreHarness h(prog);
    h.chip.run(h.core, 100);
    ASSERT_EQ(h.chip.stores.size(), 1u);
    EXPECT_EQ(h.chip.stores[0], lineAlign(h.pt.translate(0x7000)));
}

TEST(CoreTest, MispredictStallsFetchUntilResolution)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 1));
    prog.push_back(branch(1, true, true));
    for (int i = 0; i < 8; ++i)
        prog.push_back(add(2, 1, i, 1 + i));
    CoreConfig cfg;
    cfg.use_branch_predictor = false;  // use the trace's sampled flag
    CoreHarness h(prog, cfg);
    // Branch resolves fast (reg ready) but redirect costs the penalty.
    h.chip.run(h.core, 10);
    EXPECT_LT(h.core.retired(), 10u);
    h.chip.run(h.core, 60);
    EXPECT_EQ(h.core.retired(), 10u);
    EXPECT_EQ(h.core.stats().mispredicts, 1u);
}

TEST(CoreTest, HybridPredictorLearnsBiasedBranch)
{
    // A steadily-taken branch: the hybrid predictor mispredicts at
    // most the cold lookups, so fetch is never redirect-stalled after
    // warmup.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 1));
    for (int i = 0; i < 50; ++i) {
        // Sampled flag says "mispredicted" but the predictor (enabled
        // by default) overrides it with its own verdict.
        prog.push_back(branch(1, true, true, 0x500));
        prog.push_back(add(2, 1, i, 1 + i));
    }
    CoreHarness h(prog);
    h.chip.run(h.core, 400);
    EXPECT_EQ(h.core.retired(), 101u);
    EXPECT_LE(h.core.stats().mispredicts, 2u);
    EXPECT_GE(h.core.branchPredictor().stats().lookups, 50u);
}

TEST(CoreTest, TaintIdentifiesDependentMiss)
{
    // load A (miss) -> add -> load B (miss): B is a dependent miss.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x10000));
    prog.push_back(load(2, 1, 0, 0x10000, 0x20000));  // returns pointer
    prog.push_back(add(3, 2, 8, 0x20008));
    prog.push_back(load(4, 3, 0, 0x20008, 5));
    CoreHarness h(prog);
    h.chip.run(h.core, 900);
    EXPECT_EQ(h.core.retired(), 4u);
    EXPECT_EQ(h.core.stats().llc_misses, 2u);
    EXPECT_EQ(h.core.stats().dependent_llc_misses, 1u);
    ASSERT_EQ(h.chip.tainted_flags.size(), 2u);
    EXPECT_FALSE(h.chip.tainted_flags[0]);
    EXPECT_TRUE(h.chip.tainted_flags[1]);
}

TEST(CoreTest, LlcHitsDoNotTaint)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x10000));
    prog.push_back(load(2, 1, 0, 0x10000, 0x20000));
    prog.push_back(load(3, 2, 0, 0x20000, 9));
    CoreHarness h(prog);
    h.chip.miss_mode = false;  // everything hits the LLC
    h.chip.fill_latency = 40;
    h.chip.run(h.core, 300);
    EXPECT_EQ(h.core.retired(), 3u);
    EXPECT_EQ(h.core.stats().dependent_llc_misses, 0u);
}

TEST(CoreTest, DependentMissDistanceMeasured)
{
    // Two ALU ops between the source and dependent miss.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x10000));
    prog.push_back(load(2, 1, 0, 0x10000, 0x20000));
    prog.push_back(add(3, 2, 0, 0x20000));
    prog.push_back(add(3, 3, 8, 0x20008));
    prog.push_back(load(4, 3, 0, 0x20008, 5));
    CoreHarness h(prog);
    h.chip.run(h.core, 900);
    ASSERT_EQ(h.core.stats().dep_distance.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.core.stats().dep_distance.mean(), 2.0);
}

/** Build a long pointer-chase program that saturates the window. */
std::vector<DynUop>
chaseProgram(unsigned hops, Addr base = 0x100000)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, static_cast<std::int64_t>(base)));
    Addr cur = base;
    for (unsigned i = 0; i < hops; ++i) {
        const Addr next = base + ((i + 1) * 0x340) % 0x40000;
        prog.push_back(load(1, 1, 0, cur, next, 0x200));
        prog.push_back(add(2, 1, 8, next + 8, 0x204));
        prog.push_back(load(3, 2, 0, next + 8, i, 0x208));
        prog.push_back(add(4, 3, 1, i + 1, 0x20c));
        cur = next;
    }
    return prog;
}

TEST(CoreTest, FullWindowStallDetected)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(200), cfg);
    h.chip.fill_latency = 300;
    h.chip.run(h.core, 600);
    EXPECT_GT(h.core.stats().full_window_stall_cycles, 0u);
}

TEST(CoreTest, ChainGenerationRequiresCounterConfidence)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(40), cfg);
    h.chip.run(h.core, 500);
    // The 3-bit counter starts at 0: the first stalls are rejected.
    EXPECT_GT(h.core.stats().chains_rejected_counter, 0u);
}

TEST(CoreTest, ChainGeneratedAfterDependentMissesObserved)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(400), cfg);
    h.chip.run(h.core, 20000);
    EXPECT_GT(h.core.stats().chains_generated, 0u);
    ASSERT_FALSE(h.chip.chains.empty());

    const ChainRequest &c = h.chip.chains.front();
    EXPECT_LE(c.uops.size(), kChainMaxUops);
    // The chain must contain at least one source and one dependent
    // memory operation.
    bool has_source = false, has_dep_mem = false;
    for (const ChainUop &u : c.uops) {
        if (u.is_source)
            has_source = true;
        else if (isMem(u.d.uop.op))
            has_dep_mem = true;
    }
    EXPECT_TRUE(has_source);
    EXPECT_TRUE(has_dep_mem);
}

TEST(CoreTest, ChainRenamingIsConsistent)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(400), cfg);
    h.chip.run(h.core, 20000);
    ASSERT_FALSE(h.chip.chains.empty());
    for (const ChainRequest &c : h.chip.chains) {
        std::vector<bool> defined(kEmcPhysRegs, false);
        unsigned live_ins = 0;
        for (const ChainUop &u : c.uops) {
            // Every EPR source must have been defined earlier.
            if (u.d.uop.hasSrc1() && !u.src1_live_in && !u.is_source) {
                ASSERT_NE(u.epr_src1, kNoEpr);
                EXPECT_TRUE(defined[u.epr_src1]);
            }
            if (u.d.uop.hasSrc2() && !u.src2_live_in && !u.is_source) {
                ASSERT_NE(u.epr_src2, kNoEpr);
                EXPECT_TRUE(defined[u.epr_src2]);
            }
            live_ins += (u.src1_live_in ? 1 : 0)
                        + (u.src2_live_in ? 1 : 0);
            if (u.epr_dst != kNoEpr) {
                EXPECT_LT(u.epr_dst, kEmcPhysRegs);
                EXPECT_FALSE(defined[u.epr_dst]) << "EPR reused";
                defined[u.epr_dst] = true;
            }
        }
        EXPECT_EQ(live_ins, c.live_in_count);
    }
}

TEST(CoreTest, ChainCarriesPteWhenNotResident)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(400), cfg);
    h.chip.tlb_resident = false;
    h.chip.run(h.core, 20000);
    ASSERT_FALSE(h.chip.chains.empty());
    EXPECT_TRUE(h.chip.chains.front().pte_attached);
    EXPECT_TRUE(h.chip.chains.front().source_pte.valid);
}

TEST(CoreTest, OffloadedUopsCompleteViaLiveOuts)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(400), cfg);
    h.chip.run(h.core, 20000);
    ASSERT_FALSE(h.chip.chains.empty());
    const ChainRequest chain = h.chip.chains.back();

    const std::uint64_t retired_before = h.core.retired();
    // Synthesize a completed result from the oracle annotations.
    ChainResult res;
    res.chain_id = chain.id;
    res.core = 0;
    res.outcome = ChainOutcome::kCompleted;
    for (const ChainUop &u : chain.uops) {
        if (u.is_source)
            continue;
        LiveOut lo;
        lo.rob_seq = u.rob_seq;
        lo.value = u.d.uop.hasDst() ? u.d.result : u.d.mem_value;
        lo.is_mem = isMem(u.d.uop.op);
        lo.is_store = isStore(u.d.uop.op);
        lo.llc_miss = isLoad(u.d.uop.op);
        res.live_outs.push_back(lo);
    }
    h.core.chainResult(res);
    h.chip.run(h.core, 3000);
    EXPECT_GT(h.core.stats().offloaded_uops_completed_remotely, 0u);
    EXPECT_GT(h.core.retired(), retired_before);
    EXPECT_EQ(h.core.stats().chain_results_ok, 1u);
}

TEST(CoreTest, CanceledChainReExecutesLocally)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(400), cfg);
    h.chip.run(h.core, 20000);
    ASSERT_FALSE(h.chip.chains.empty());
    const ChainRequest chain = h.chip.chains.back();

    ChainResult res;
    res.chain_id = chain.id;
    res.core = 0;
    res.outcome = ChainOutcome::kTlbMiss;
    for (const ChainUop &u : chain.uops) {
        if (u.is_source)
            continue;
        LiveOut lo;
        lo.rob_seq = u.rob_seq;
        res.live_outs.push_back(lo);
    }
    h.core.chainResult(res);
    // The core must finish the whole program by itself.
    h.chip.accept_chains = false;
    h.chip.run(h.core, 600000);
    EXPECT_EQ(h.core.retired(), h.trace.produced());
    EXPECT_EQ(h.core.stats().chain_results_canceled, 1u);
}

TEST(CoreTest, RejectedOffloadFallsBackLocally)
{
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(120), cfg);
    h.chip.accept_chains = false;  // no EMC context, ever
    h.chip.run(h.core, 300000);
    EXPECT_EQ(h.core.retired(), h.trace.produced());
    EXPECT_GT(h.core.stats().chains_rejected_no_context, 0u);
    EXPECT_EQ(h.core.stats().chains_generated, 0u);
}

TEST(CoreTest, LsqPopulateDetectsConflict)
{
    // An older, non-offloaded store to the same line as an offloaded
    // load must report a disambiguation conflict.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x9000));
    prog.push_back(movImm(2, 7));
    prog.push_back(store(1, 2, 0, 0x9000, 7));
    prog.push_back(load(3, 1, 0, 0x9000, 7));
    CoreHarness h(prog);
    // Dispatch but do not let the store retire (no ticks past setup).
    h.chip.run(h.core, 3);
    // Find the load's seq: it is the 4th dispatched uop (seq 4).
    EXPECT_TRUE(h.core.lsqPopulate(4, h.pt.translate(0x9000)));
    EXPECT_FALSE(h.core.lsqPopulate(4, h.pt.translate(0x20000)));
}

TEST(CoreTest, InvalidateL1DropsLine)
{
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x5000));
    prog.push_back(load(2, 1, 0, 0x5000, 1));
    prog.push_back(load(3, 1, 8, 0x5008, 2));
    CoreHarness h(prog);
    h.chip.run(h.core, 300);
    const Addr line = lineAlign(h.pt.translate(0x5000));
    EXPECT_NE(h.core.l1d().peek(line), nullptr);
    h.core.invalidateL1(line);
    EXPECT_EQ(h.core.l1d().peek(line), nullptr);
}

TEST(CoreTest, DepCounterSaturatesUnderChasing)
{
    // With chain offload unavailable, the core observes every
    // dependent miss itself and the trigger counter saturates.
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(300), cfg);
    h.chip.accept_chains = false;
    h.chip.run(h.core, 40000);
    EXPECT_GE(h.core.depMissCounter().value(), 2u);
}

TEST(CoreTest, FpUopsNeverEnterChains)
{
    // Chains must contain only EMC-eligible opcodes.
    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(chaseProgram(400), cfg);
    h.chip.run(h.core, 20000);
    for (const ChainRequest &c : h.chip.chains) {
        for (const ChainUop &u : c.uops)
            EXPECT_TRUE(emcAllowed(u.d.uop.op))
                << u.d.uop.toString();
    }
}

TEST(CoreTest, SurvivesMshrExhaustion)
{
    // Two MSHRs and a flood of distinct-line loads: loads must retry
    // and the program must still finish correctly.
    std::vector<DynUop> prog;
    for (int i = 0; i < 24; ++i) {
        const Addr a = 0x100000 + static_cast<Addr>(i) * 4096;
        prog.push_back(movImm(1, static_cast<std::int64_t>(a), 0x600));
        prog.push_back(load(2, 1, 0, a, i, 0x604));
        prog.push_back(add(3, 2, 1, i + 1, 0x608));
    }
    CoreConfig cfg;
    cfg.l1_mshrs = 2;
    CoreHarness h(prog, cfg);
    h.chip.run(h.core, 30000);
    EXPECT_EQ(h.core.retired(), h.trace.produced());
}

TEST(CoreTest, SurvivesChipBackpressure)
{
    // The chip rejects every request for a while: the core must keep
    // retrying rather than dropping the load.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x5000));
    prog.push_back(load(2, 1, 0, 0x5000, 7));
    CoreHarness h(prog);
    h.chip.reject_requests = true;
    h.chip.run(h.core, 50);
    EXPECT_LT(h.core.retired(), 2u);
    h.chip.reject_requests = false;
    h.chip.run(h.core, 400);
    EXPECT_EQ(h.core.retired(), 2u);
}

/** A load with no source register: ready as soon as it dispatches. */
DynUop
loadAbs(std::uint8_t dst, Addr vaddr, std::uint64_t value,
        std::uint64_t pc = 0x300)
{
    return load(dst, kNoReg, static_cast<std::int64_t>(vaddr), vaddr, value,
                pc);
}

TEST(CoreTest, StoreBlockedLoadsIssueTheCycleAfterTheStore)
{
    // The store's address comes from a load that misses to memory, so
    // three younger loads (distinct pages, no sources) wait on it; the
    // loads are ready at dispatch and miss the TLB on their first try.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x100000));                      // seq 1
    prog.push_back(load(2, 1, 0, 0x100000, 0x300000));        // seq 2
    prog.push_back(store(2, 1, 0, 0x300000, 0x100000));       // seq 3
    prog.push_back(loadAbs(5, 0x400000, 1));                  // seq 4
    prog.push_back(loadAbs(6, 0x500000, 2));                  // seq 5
    prog.push_back(loadAbs(7, 0x600000, 3));                  // seq 6
    CoreHarness h(prog);
    h.chip.run(h.core, 1000);
    ASSERT_EQ(h.core.retired(), 6u);

    // Hand timeline (FakeChip ticks the core at now = 1, 2, ...):
    //   1    fetch seqs 1-4 (mov and seq 4 ready at dispatch)
    //   2    mov issues; seq 4 translates (miss), blocked on the store;
    //        fetch seqs 5-6
    //   3    mov completes, seq 2 ready; retry seq 4 (hit); seqs 5, 6
    //        translate (miss) and block; seq 2 misses L1 -> request
    //   3+L  the fill (L = fill latency) lands before this tick, while
    //        the core's clock still reads 2+L, so seq 2 completes in
    //        this tick and the store, now ready, executes; every cycle
    //        up to here each blocked load retried once (one TLB hit)
    //   4+L  the three loads issue: hit, L1 miss, request
    const Cycle L = h.chip.fill_latency;
    ASSERT_EQ(h.chip.request_cycles.size(), 4u);
    EXPECT_EQ(h.chip.request_cycles[0], 3u);
    const Cycle store_exec = h.chip.request_cycles[0] + L;
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_EQ(h.chip.request_cycles[i], store_exec + 1) << i;

    // One hit per load per retry cycle plus the issuing translate:
    // seq 4 first tried at 2, seqs 5 and 6 at 3; all issue at 4+L.
    const Cycle issue = store_exec + 1;
    EXPECT_EQ(h.core.tlb().hits(), (issue - 2) + 2 * (issue - 3));
    // Cold misses: seq 2, the store, and the three loads.
    EXPECT_EQ(h.core.tlb().misses(), 5u);
}

TEST(CoreTest, LoadsReparkWhenAnOffloadedStoreIsCanceled)
{
    // H misses; store B's address is H's value, and load S reads it
    // back, so B joins H's chain as a spill store. Store A, older than
    // B, waits on another miss M. Loads X1-X3 behind B first park on
    // B, move to A once B is offloaded, and return to B when the chain
    // is canceled; they issue the cycle after the last store resolves.
    const Addr p = 0x300000, q = 0x340000;
    std::vector<DynUop> prog;
    prog.push_back(movImm(10, 0x8000));                   // seq 1
    prog.push_back(loadAbs(1, 0x100000, p));              // seq 2  H
    prog.push_back(loadAbs(2, 0x200000, q));              // seq 3  M
    prog.push_back(store(2, 10, 0, q, 0x8000));           // seq 4  A
    prog.push_back(store(1, 10, 0, p, 0x8000));           // seq 5  B
    prog.push_back(load(3, 1, 0, p, 0x8000));             // seq 6  S
    prog.push_back(loadAbs(4, 0x400000, 1));              // seq 7  X1
    prog.push_back(loadAbs(5, 0x500000, 2));              // seq 8  X2
    prog.push_back(loadAbs(6, 0x600000, 3));              // seq 9  X3
    DynUop nop;  // no destination: fills the ROB, not the free list
    nop.uop.op = Opcode::kNop;
    nop.uop.pc = 0x400;
    for (int i = 0; i < 300; ++i)  // fill the window behind H
        prog.push_back(nop);
    const std::uint64_t kA = 4, kB = 5;

    CoreConfig cfg;
    cfg.emc_enabled = true;
    CoreHarness h(prog, cfg);
    h.chip.fill_latency = 600;
    CoreTestPeer::saturateDepCounter(h.core);

    check::CheckRegistry reg;
    std::vector<std::string> violations;
    reg.setHandler([&](const check::Violation &v) {
        violations.push_back(v.format());
    });
    auto xBlockers = [&] {
        std::vector<std::uint64_t> out;
        for (const auto &[seq, blocker] : CoreTestPeer::retries(h.core)) {
            if (seq >= 7 && seq <= 9)
                out.push_back(blocker);
        }
        return out;
    };
    const std::vector<std::uint64_t> onA(3, kA), onB(3, kB);

    // Before the chain: parked on B, the youngest unresolved store.
    h.chip.run(h.core, 10);
    EXPECT_EQ(xBlockers(), onB);

    // The full-window stall offloads B: the loads bypass it to A.
    while (h.chip.chains.empty() && h.chip.now_ < 590) {
        h.chip.step(h.core);
        h.core.selfCheck(reg);
    }
    ASSERT_EQ(h.chip.chains.size(), 1u);
    EXPECT_EQ(xBlockers(), onA);

    // Cancel: B is un-offloaded and blocks the loads again.
    ChainResult res;
    res.chain_id = h.chip.chains[0].id;
    res.outcome = ChainOutcome::kTlbMiss;
    for (const ChainUop &u : h.chip.chains[0].uops) {
        if (!u.is_source) {
            LiveOut lo;
            lo.rob_seq = u.rob_seq;
            res.live_outs.push_back(lo);
        }
    }
    h.core.chainResult(res);
    h.chip.step(h.core);
    h.core.selfCheck(reg);
    EXPECT_EQ(xBlockers(), onB);

    // Both stores resolve once the fills land; each X load issues the
    // cycle after the later of the two executes.
    Cycle resolved = 0;
    while (h.core.retired() < h.trace.produced() && h.chip.now_ < 5000) {
        h.chip.step(h.core);
        h.core.selfCheck(reg);
        if (!resolved && CoreTestPeer::storeAddrKnown(h.core, kA)
            && CoreTestPeer::storeAddrKnown(h.core, kB)) {
            resolved = h.chip.now_;
        }
    }
    EXPECT_EQ(h.core.retired(), h.trace.produced());
    EXPECT_TRUE(violations.empty()) << violations.front();
    ASSERT_NE(resolved, 0u);
    // Requests: H, M, then X1-X3 (S forwards from B).
    ASSERT_EQ(h.chip.request_cycles.size(), 5u);
    for (std::size_t i = 2; i < 5; ++i)
        EXPECT_EQ(h.chip.request_cycles[i], resolved + 1) << i;
}

TEST(CoreTest, TinyFreeListStillRetires)
{
    // Physical registers barely above the floor: rename must recycle
    // correctly under pressure (prev-dst freeing at retire).
    CoreConfig cfg;
    cfg.rob_size = 32;
    cfg.rs_size = 16;
    cfg.phys_regs = 34 + kArchRegs;
    CoreHarness h(chaseProgram(60), cfg);
    h.chip.fill_latency = 60;
    h.chip.run(h.core, 60000);
    EXPECT_EQ(h.core.retired(), h.trace.produced());
}

TEST(RunaheadTest, EpisodesTriggerOnStalls)
{
    CoreConfig cfg;
    cfg.runahead_enabled = true;
    CoreHarness h(chaseProgram(300), cfg);
    h.chip.run(h.core, 30000);
    EXPECT_GT(h.core.stats().runahead_episodes, 0u);
    EXPECT_GT(h.core.stats().runahead_uops, 0u);
}

TEST(RunaheadTest, DependentLoadsAreDropped)
{
    // Pure pointer chase: almost every future load's address is INV
    // during runahead, so drops dominate prefetches.
    CoreConfig cfg;
    cfg.runahead_enabled = true;
    CoreHarness h(chaseProgram(400), cfg);
    h.chip.run(h.core, 60000);
    const CoreStats &cs = h.core.stats();
    ASSERT_GT(cs.runahead_episodes, 0u);
    EXPECT_GT(cs.runahead_dropped_loads, cs.runahead_prefetches);
}

TEST(RunaheadTest, ReplayPreservesProgramOrder)
{
    // After runahead episodes, the program still retires completely
    // and in order (oracle checking would panic otherwise).
    CoreConfig cfg;
    cfg.runahead_enabled = true;
    CoreHarness h(chaseProgram(150), cfg);
    h.chip.run(h.core, 200000);
    EXPECT_EQ(h.core.retired(), h.trace.produced());
}

TEST(RunaheadTest, IndependentLoadsPrefetched)
{
    // Loads with immediate-materialized bases are runahead-visible.
    std::vector<DynUop> prog;
    prog.push_back(movImm(1, 0x100000));
    prog.push_back(load(1, 1, 0, 0x100000, 0x100040, 0x200));
    // Independent future loads at distinct lines.
    for (int i = 0; i < 40; ++i) {
        const Addr a = 0x400000 + static_cast<Addr>(i) * 4096;
        prog.push_back(movImm(2, static_cast<std::int64_t>(a), 0x300));
        prog.push_back(load(3, 2, 0, a, 1, 0x304));
        prog.push_back(add(4, 3, 1, 2, 0x308));
    }
    CoreConfig cfg;
    cfg.runahead_enabled = true;
    cfg.rob_size = 16;  // stall quickly behind the first miss
    cfg.rs_size = 12;
    CoreHarness h(prog, cfg);
    h.chip.fill_latency = 500;
    h.chip.run(h.core, 3000);
    EXPECT_GT(h.core.stats().runahead_prefetches, 5u);
}

} // namespace
} // namespace emc
