/**
 * @file
 * Unit tests for the EMC compute engine (Sections 4.1 and 4.3):
 * context lifecycle, out-of-order chain execution against the oracle,
 * the data-cache / miss-predictor / direct-DRAM load paths, LSQ
 * forwarding of register spills, branch-mispredict and TLB-miss
 * halts, cancellation and coherence hooks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "emc/emc.hh"

namespace emc
{
namespace
{

/** Captures EMC requests; the test decides when responses arrive. */
class FakeMc : public EmcPort
{
  public:
    struct MemReq
    {
        Addr line;
        std::uint64_t token;
        bool direct;
    };

    bool
    emcDirectDram(CoreId core, Addr line, std::uint64_t token) override
    {
        if (reject)
            return false;
        reqs.push_back({line, token, true});
        return true;
    }

    bool
    emcLlcQuery(CoreId core, Addr line, std::uint64_t token,
                Addr pc) override
    {
        if (reject)
            return false;
        reqs.push_back({line, token, false});
        return true;
    }

    void
    emcLsqPopulate(CoreId core, std::uint64_t rob_seq, Addr paddr,
                   std::uint64_t chain_id) override
    {
        lsq_msgs.push_back({rob_seq, paddr});
    }

    void
    emcChainResult(const ChainResult &result, unsigned bytes) override
    {
        results.push_back(result);
    }

    Cycle now() const override { return now_; }

    Cycle now_ = 0;
    bool reject = false;
    std::vector<MemReq> reqs;
    std::vector<std::pair<std::uint64_t, Addr>> lsq_msgs;
    std::vector<ChainResult> results;
};

/** Identity-mapped PTE helper. */
Pte
pte(Addr vpage)
{
    Pte p;
    p.vpage = vpage;
    p.pframe = vpage;  // identity mapping keeps paddr == vaddr
    p.valid = true;
    return p;
}

ChainUop
chainAlu(Opcode op, std::uint8_t dst, std::uint8_t s1, std::uint8_t s2,
         std::int64_t imm, std::uint64_t result, std::uint64_t seq)
{
    ChainUop u;
    u.d.uop.op = op;
    u.d.uop.dst = dst == kNoEpr ? kNoReg : 1;
    u.d.uop.src1 = s1 == kNoEpr ? kNoReg : 2;
    u.d.uop.src2 = s2 == kNoEpr ? kNoReg : 3;
    u.d.uop.imm = imm;
    u.d.result = result;
    u.epr_dst = dst;
    u.epr_src1 = s1;
    u.epr_src2 = s2;
    u.rob_seq = seq;
    return u;
}

/**
 * Build the canonical test chain:
 *   source: load E0 = [A]        (value = node_b)
 *   u1: add E1 = E0 + 8          (address of the dependent load)
 *   u2: load E2 = [E1]           (the dependent cache miss)
 */
ChainRequest
pointerChain(Addr src_vaddr, std::uint64_t node_b, std::uint64_t leaf)
{
    ChainRequest c;
    c.id = 1;
    c.core = 0;
    c.source_paddr_line = lineAlign(src_vaddr);
    c.source_value = node_b;
    c.source_epr = 0;

    ChainUop src;
    src.d.uop.op = Opcode::kLoad;
    src.d.uop.dst = 1;
    src.d.uop.src1 = 1;
    src.d.vaddr = src_vaddr;
    src.d.mem_value = node_b;
    src.d.result = node_b;
    src.is_source = true;
    src.epr_dst = 0;
    src.rob_seq = 10;
    c.uops.push_back(src);

    ChainUop u1 = chainAlu(Opcode::kAdd, 1, 0, kNoEpr, 8, node_b + 8, 11);
    c.uops.push_back(u1);

    ChainUop u2;
    u2.d.uop.op = Opcode::kLoad;
    u2.d.uop.dst = 2;
    u2.d.uop.src1 = 2;
    u2.d.vaddr = node_b + 8;
    u2.d.mem_value = leaf;
    u2.d.result = leaf;
    u2.epr_dst = 2;
    u2.epr_src1 = 1;
    u2.rob_seq = 12;
    c.uops.push_back(u2);

    c.source_pte = pte(pageNum(src_vaddr));
    c.pte_attached = true;
    return c;
}

struct EmcHarness
{
    explicit EmcHarness(EmcConfig cfg = {})
        : emc(cfg, 4, &mc)
    {}

    void
    run(unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            ++mc.now_;
            emc.tick();
        }
    }

    /** Answer all outstanding memory requests. */
    void
    answerAll()
    {
        auto reqs = mc.reqs;
        mc.reqs.clear();
        for (const auto &r : reqs)
            emc.memResponse(r.token, true);
    }

    FakeMc mc;
    Emc emc;
};

TEST(EmcTest, ContextLifecycle)
{
    EmcHarness h;
    EXPECT_TRUE(h.emc.hasFreeContext());
    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    ASSERT_TRUE(h.emc.acceptChain(c, false));
    EXPECT_TRUE(h.emc.hasFreeContext());  // 2 contexts by default
    ChainRequest c2 = pointerChain(0x300000, 0x408000, 1);
    c2.id = 2;
    ASSERT_TRUE(h.emc.acceptChain(c2, false));
    EXPECT_FALSE(h.emc.hasFreeContext());
    ChainRequest c3 = pointerChain(0x500000, 0x608000, 2);
    c3.id = 3;
    EXPECT_FALSE(h.emc.acceptChain(c3, false));
    EXPECT_EQ(h.emc.stats().chains_rejected, 1u);
}

TEST(EmcTest, ExecutesChainAfterSourceArrives)
{
    EmcHarness h;
    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    // Pre-install the dependent load's PTE as well.
    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.tlbShootdown(0, 0);  // no-op; exercise the API
    // Nothing happens until the source fill.
    h.run(10);
    EXPECT_TRUE(h.mc.reqs.empty());

    // Install the dependent page then arm.
    ChainRequest c2 = pointerChain(0x208000, 0x100000, 0);
    (void)c2;
    // The dependent load's page (0x208000's page) needs a PTE; ship it
    // via a second accept's attached PTE trick is clumsy — instead the
    // fill path: arm and expect a TLB halt if absent. Here we want
    // success, so pre-insert through a chain whose attached PTE covers
    // that page: re-accept with both pages resident.
    h.emc.observeFill(lineAlign(0x100000));
    h.run(5);
    // The ALU op executed and the dependent load needed page
    // 0x208000: absent -> TLB halt is the expected outcome here.
    ASSERT_EQ(h.mc.results.size(), 1u);
    EXPECT_EQ(h.mc.results[0].outcome, ChainOutcome::kTlbMiss);
    EXPECT_EQ(h.emc.stats().halts_tlb, 1u);
}

/** Accept a chain with every needed PTE resident. */
struct ArmedHarness : EmcHarness
{
    ArmedHarness()
    {
        // Warm the TLB for both pages with a throwaway chain carrying
        // the dependent page's PTE.
        ChainRequest warm = pointerChain(0x208000, 0x100000, 0);
        warm.id = 99;
        warm.source_pte = pte(pageNum(0x208008));
        warm.pte_attached = true;
        EXPECT_TRUE(emc.acceptChain(warm, false));
        emc.cancelChain(99, ChainOutcome::kDisambiguation);
        mc.results.clear();

        chain = pointerChain(0x100000, 0x208000, 42);
        EXPECT_TRUE(emc.acceptChain(chain, false));
        emc.observeFill(lineAlign(0x100000));
    }

    ChainRequest chain;
};

TEST(EmcTest, DependentLoadIssuedAndCompleted)
{
    ArmedHarness h;
    h.run(5);
    // The dependent load reached memory (dcache miss, predictor cold
    // -> via-LLC query).
    ASSERT_EQ(h.mc.reqs.size(), 1u);
    EXPECT_EQ(h.mc.reqs[0].line, lineAlign(0x208008));
    EXPECT_FALSE(h.mc.reqs[0].direct);  // cold predictor: LLC query

    h.answerAll();
    h.run(5);
    ASSERT_EQ(h.mc.results.size(), 1u);
    const ChainResult &r = h.mc.results[0];
    EXPECT_EQ(r.outcome, ChainOutcome::kCompleted);
    // Live-outs: the add and the dependent load (source excluded).
    ASSERT_EQ(r.live_outs.size(), 2u);
    EXPECT_EQ(r.live_outs[0].value, 0x208008u);
    EXPECT_EQ(r.live_outs[1].value, 42u);
    EXPECT_TRUE(r.live_outs[1].is_mem);
    EXPECT_TRUE(r.live_outs[1].llc_miss);
    EXPECT_EQ(h.emc.stats().chains_completed, 1u);
}

TEST(EmcTest, LsqPopulateMessagesSent)
{
    ArmedHarness h;
    h.run(5);
    h.answerAll();
    h.run(5);
    // One memory op executed remotely -> one LSQ populate message.
    ASSERT_EQ(h.mc.lsq_msgs.size(), 1u);
    EXPECT_EQ(h.mc.lsq_msgs[0].first, 12u);  // the load's rob_seq
}

TEST(EmcTest, MissPredictorLearnsAndBypassesLlc)
{
    EmcConfig cfg;
    EmcHarness h(cfg);
    // Train: misses at this PC.
    for (int i = 0; i < 8; ++i)
        h.emc.missPredUpdate(0, 0x208, lineAlign(0x208008), true);

    // Warm the TLB, then run a chain whose dependent load carries the
    // trained PC.
    ChainRequest warm = pointerChain(0x208000, 0x100000, 0);
    warm.id = 99;
    warm.source_pte = pte(pageNum(0x208008));
    ASSERT_TRUE(h.emc.acceptChain(warm, false));
    h.emc.cancelChain(99, ChainOutcome::kDisambiguation);
    h.mc.results.clear();

    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    c.uops[2].d.uop.pc = 0x208;
    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.observeFill(lineAlign(0x100000));
    h.run(5);
    ASSERT_EQ(h.mc.reqs.size(), 1u);
    EXPECT_TRUE(h.mc.reqs[0].direct);
    EXPECT_EQ(h.emc.stats().direct_dram_loads, 1u);
}

TEST(EmcTest, MissPredictorDisabledAblation)
{
    EmcConfig cfg;
    cfg.direct_dram = false;  // no bypass: the predictor goes unused
    EmcHarness h(cfg);
    for (int i = 0; i < 8; ++i)
        h.emc.missPredUpdate(0, 0x208, lineAlign(0x208008), true);
    ChainRequest warm = pointerChain(0x208000, 0x100000, 0);
    warm.id = 99;
    warm.source_pte = pte(pageNum(0x208008));
    ASSERT_TRUE(h.emc.acceptChain(warm, false));
    h.emc.cancelChain(99, ChainOutcome::kDisambiguation);
    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    c.uops[2].d.uop.pc = 0x208;
    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.observeFill(lineAlign(0x100000));
    h.run(5);
    ASSERT_EQ(h.mc.reqs.size(), 1u);
    EXPECT_FALSE(h.mc.reqs[0].direct);  // everything queries the LLC
}

TEST(EmcTest, DcacheHitServesLoadLocally)
{
    ArmedHarness h;
    // The dependent line was recently transmitted from DRAM.
    h.emc.observeFill(lineAlign(0x208008));
    h.run(6);
    EXPECT_TRUE(h.mc.reqs.empty());
    ASSERT_EQ(h.mc.results.size(), 1u);
    EXPECT_EQ(h.mc.results[0].outcome, ChainOutcome::kCompleted);
    EXPECT_EQ(h.emc.stats().dcache_hits, 1u);
}

TEST(EmcTest, DcacheInvalidationDirectoryHook)
{
    EmcHarness h;
    h.emc.observeFill(0x40);
    EXPECT_NE(h.emc.dcache().peek(0x40), nullptr);
    h.emc.invalidateLine(0x40);
    EXPECT_EQ(h.emc.dcache().peek(0x40), nullptr);
}

TEST(EmcTest, MergesLoadsToSameLine)
{
    // Two dependent loads to the same line must produce one request.
    EmcHarness h;
    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    // Add a second load to the same line (offset 16).
    ChainUop u3;
    u3.d.uop.op = Opcode::kLoad;
    u3.d.uop.dst = 1;
    u3.d.uop.src1 = 2;
    u3.d.uop.imm = 8;
    u3.d.vaddr = 0x208010;
    u3.d.mem_value = 7;
    u3.d.result = 7;
    u3.epr_dst = 3;
    u3.epr_src1 = 1;
    u3.rob_seq = 13;
    c.uops.push_back(u3);
    c.source_pte = pte(pageNum(0x100000));

    ChainRequest warm = pointerChain(0x208000, 0x100000, 0);
    warm.id = 99;
    warm.source_pte = pte(pageNum(0x208008));
    ASSERT_TRUE(h.emc.acceptChain(warm, false));
    h.emc.cancelChain(99, ChainOutcome::kDisambiguation);
    h.mc.results.clear();

    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.observeFill(lineAlign(0x100000));
    h.run(6);
    EXPECT_EQ(h.mc.reqs.size(), 1u);
    EXPECT_EQ(h.emc.stats().merged_loads, 1u);
    h.answerAll();
    h.run(5);
    ASSERT_EQ(h.mc.results.size(), 1u);
    EXPECT_EQ(h.mc.results[0].outcome, ChainOutcome::kCompleted);
    EXPECT_EQ(h.mc.results[0].live_outs.size(), 3u);
}

TEST(EmcTest, SpillStoreForwardsToFillLoad)
{
    // Chain: source -> store [B] = E0 -> load E2 = [B]: the load must
    // forward from the EMC LSQ without a memory request.
    EmcHarness h;
    ChainRequest c;
    c.id = 5;
    c.core = 0;
    c.source_paddr_line = lineAlign(0x100000);
    c.source_value = 0xdead;
    c.source_epr = 0;

    ChainUop src;
    src.d.uop.op = Opcode::kLoad;
    src.d.uop.dst = 1;
    src.d.uop.src1 = 1;
    src.d.vaddr = 0x100000;
    src.d.mem_value = 0xdead;
    src.is_source = true;
    src.epr_dst = 0;
    src.rob_seq = 20;
    c.uops.push_back(src);

    ChainUop st;
    st.d.uop.op = Opcode::kStore;
    st.d.uop.src1 = 2;
    st.d.uop.src2 = 3;
    st.d.vaddr = 0x300040;
    st.d.mem_value = 0xdead;
    st.src1_live_in = true;
    st.src1_val = 0x300040;
    st.epr_src2 = 0;
    st.rob_seq = 21;
    st.is_spill_store = true;
    c.uops.push_back(st);
    c.live_in_count = 1;

    ChainUop fill;
    fill.d.uop.op = Opcode::kLoad;
    fill.d.uop.dst = 4;
    fill.d.uop.src1 = 2;
    fill.d.vaddr = 0x300040;
    fill.d.mem_value = 0xdead;
    fill.d.result = 0xdead;
    fill.src1_live_in = true;
    fill.src1_val = 0x300040;
    fill.epr_dst = 1;
    fill.rob_seq = 22;
    c.uops.push_back(fill);
    ++c.live_in_count;

    c.source_pte = pte(pageNum(0x100000));
    c.pte_attached = true;

    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.observeFill(lineAlign(0x100000));
    h.run(8);
    EXPECT_TRUE(h.mc.reqs.empty());
    EXPECT_EQ(h.emc.stats().lsq_forwards, 1u);
    EXPECT_EQ(h.emc.stats().stores_executed, 1u);
    ASSERT_EQ(h.mc.results.size(), 1u);
    EXPECT_EQ(h.mc.results[0].outcome, ChainOutcome::kCompleted);
}

TEST(EmcTest, BranchMispredictHalts)
{
    EmcHarness h;
    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    // Insert a mispredicted branch dependent on the source.
    ChainUop br;
    br.d.uop.op = Opcode::kBranch;
    br.d.uop.src1 = 1;
    br.d.taken = true;
    br.d.mispredicted = true;
    br.epr_src1 = 0;
    br.rob_seq = 15;
    c.uops.insert(c.uops.begin() + 1, br);
    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.observeFill(lineAlign(0x100000));
    h.run(5);
    ASSERT_EQ(h.mc.results.size(), 1u);
    EXPECT_EQ(h.mc.results[0].outcome, ChainOutcome::kMispredict);
    // Cancel notices echo every non-source uop for un-offloading.
    EXPECT_EQ(h.mc.results[0].live_outs.size(), c.uops.size() - 1);
    EXPECT_EQ(h.emc.stats().halts_mispredict, 1u);
    EXPECT_TRUE(h.emc.hasFreeContext());
}

TEST(EmcTest, CancelChainFreesContextAndIgnoresLateResponses)
{
    ArmedHarness h;
    h.run(5);
    ASSERT_EQ(h.mc.reqs.size(), 1u);
    h.emc.cancelChain(h.chain.id, ChainOutcome::kDisambiguation);
    // The ArmedHarness warm-up chain already counted one halt.
    EXPECT_EQ(h.emc.stats().halts_disambiguation, 2u);
    // Late memory response for the canceled chain must be ignored.
    h.answerAll();
    h.run(5);
    // Only the cancel notice, no completion.
    ASSERT_EQ(h.mc.results.size(), 1u);
    EXPECT_EQ(h.mc.results[0].outcome, ChainOutcome::kDisambiguation);
}

TEST(EmcTest, SourceAlreadyArrivedArmsImmediately)
{
    EmcHarness h;
    ChainRequest warm = pointerChain(0x208000, 0x100000, 0);
    warm.id = 99;
    warm.source_pte = pte(pageNum(0x208008));
    ASSERT_TRUE(h.emc.acceptChain(warm, false));
    h.emc.cancelChain(99, ChainOutcome::kDisambiguation);
    h.mc.results.clear();

    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    ASSERT_TRUE(h.emc.acceptChain(c, true));
    h.run(4);
    EXPECT_EQ(h.mc.reqs.size(), 1u);
}

TEST(EmcTest, OracleDivergencePanics)
{
    ArmedHarness h;
    SUCCEED();  // construction alone exercises the assert-free path

    EmcHarness bad;
    ChainRequest c = pointerChain(0x100000, 0x208000, 42);
    c.uops[1].d.result = 123;  // wrong oracle for the add
    ASSERT_TRUE(bad.emc.acceptChain(c, false));
    bad.emc.observeFill(lineAlign(0x100000));
    EXPECT_DEATH(bad.run(5), "diverged");
}

TEST(EmcTest, IssueWidthBoundsPerCycleExecution)
{
    // A chain of 6 independent ALU ops (all sources live-in) through a
    // 2-wide back-end takes at least 3 issue cycles.
    EmcConfig cfg;
    EmcHarness h(cfg);
    ChainRequest c;
    c.id = 7;
    c.core = 0;
    c.source_paddr_line = 0x40;
    c.source_value = 1;
    c.source_epr = 0;
    ChainUop src;
    src.d.uop.op = Opcode::kLoad;
    src.d.uop.dst = 1;
    src.d.uop.src1 = 1;
    src.d.vaddr = 0x40;
    src.d.mem_value = 1;
    src.is_source = true;
    src.epr_dst = 0;
    src.rob_seq = 1;
    c.uops.push_back(src);
    for (unsigned i = 0; i < 6; ++i) {
        ChainUop u = chainAlu(Opcode::kAdd, static_cast<std::uint8_t>(i + 1),
                              kNoEpr, kNoEpr, 5, 0, 30 + i);
        u.d.uop.src1 = 2;
        u.src1_live_in = true;
        u.src1_val = 10;
        u.d.result = 15;
        c.uops.push_back(u);
        ++c.live_in_count;
    }
    c.source_pte = pte(0);
    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.observeFill(0x40);
    h.run(2);
    EXPECT_TRUE(h.mc.results.empty());  // cannot finish in 2 cycles
    h.run(6);
    ASSERT_EQ(h.mc.results.size(), 1u);
}

TEST(EmcTest, FullUopBufferChainExecutes)
{
    // A maximum-size chain (16 uops: source + 15 dependent ALU ops in
    // a serial EPR chain) must execute to completion through the
    // 2-wide back-end and 8-entry RS window.
    EmcHarness h;
    ChainRequest c;
    c.id = 9;
    c.core = 0;
    c.source_paddr_line = 0x80;
    c.source_value = 5;
    c.source_epr = 0;
    ChainUop src;
    src.d.uop.op = Opcode::kLoad;
    src.d.uop.dst = 1;
    src.d.uop.src1 = 1;
    src.d.vaddr = 0x80;
    src.d.mem_value = 5;
    src.is_source = true;
    src.epr_dst = 0;
    src.rob_seq = 1;
    c.uops.push_back(src);
    std::uint64_t v = 5;
    for (unsigned i = 1; i < kChainMaxUops; ++i) {
        ChainUop u;
        u.d.uop.op = Opcode::kAdd;
        u.d.uop.dst = 2;
        u.d.uop.src1 = 2;
        u.d.uop.imm = 3;
        v += 3;
        u.d.result = v;
        u.epr_dst = static_cast<std::uint8_t>(i);
        u.epr_src1 = static_cast<std::uint8_t>(i - 1);
        u.rob_seq = 1 + i;
        c.uops.push_back(u);
    }
    c.source_pte = pte(0);
    ASSERT_TRUE(h.emc.acceptChain(c, false));
    h.emc.observeFill(0x80);
    h.run(40);
    ASSERT_EQ(h.mc.results.size(), 1u);
    const ChainResult &r = h.mc.results[0];
    EXPECT_EQ(r.outcome, ChainOutcome::kCompleted);
    ASSERT_EQ(r.live_outs.size(), kChainMaxUops - 1);
    EXPECT_EQ(r.live_outs.back().value, 5u + 3u * (kChainMaxUops - 1));
}

TEST(EmcTest, TwoContextsExecuteConcurrently)
{
    EmcHarness h;
    ChainRequest a = pointerChain(0x100000, 0x208000, 1);
    a.id = 1;
    ChainRequest b = pointerChain(0x300000, 0x208040, 2);
    b.id = 2;
    b.uops[2].d.vaddr = 0x208048;
    b.source_pte = pte(pageNum(0x300000));
    // Warm the dependent page for both.
    ChainRequest warm = pointerChain(0x208000, 0x100000, 0);
    warm.id = 99;
    warm.source_pte = pte(pageNum(0x208008));
    ASSERT_TRUE(h.emc.acceptChain(warm, false));
    h.emc.cancelChain(99, ChainOutcome::kDisambiguation);
    h.mc.results.clear();

    ASSERT_TRUE(h.emc.acceptChain(a, false));
    ASSERT_TRUE(h.emc.acceptChain(b, false));
    h.emc.observeFill(lineAlign(0x100000));
    h.emc.observeFill(lineAlign(0x300000));
    h.run(6);
    // Both contexts issued their dependent loads.
    EXPECT_EQ(h.mc.reqs.size(), 2u);
    h.answerAll();
    h.run(6);
    EXPECT_EQ(h.mc.results.size(), 2u);
    EXPECT_TRUE(h.emc.hasFreeContext());
}

TEST(EmcTest, StatsTrackUopsPerChain)
{
    ArmedHarness h;
    h.run(5);
    h.answerAll();
    h.run(5);
    EXPECT_DOUBLE_EQ(h.emc.stats().uops_per_chain.mean(), 3.0);
    EXPECT_GT(h.emc.stats().chain_exec_cycles.mean(), 0.0);
    EXPECT_EQ(h.emc.stats().live_outs_total, 2u);
}

} // namespace
} // namespace emc
