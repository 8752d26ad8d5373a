/**
 * @file
 * Tests for the synthetic workload generator: profile registry,
 * functional-oracle consistency, pointer-ring structure, determinism
 * and kernel character (dependent-miss structure for chase-heavy
 * profiles, independence for streaming profiles).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mem/functional_memory.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace emc
{
namespace
{

TEST(ProfileTest, RegistryComplete)
{
    // Paper Table 2: 8 high + 21 low intensity benchmarks, plus the
    // five irregular-kernel profiles (bfs/pagerank/hashjoin/btree/
    // embed; DESIGN.md §11).
    EXPECT_EQ(highIntensityNames().size(), 8u);
    EXPECT_EQ(lowIntensityNames().size(), 21u);
    EXPECT_EQ(irregularNames().size(), 5u);
    EXPECT_EQ(allProfiles().size(), 34u);
    for (const auto &name : highIntensityNames())
        EXPECT_TRUE(profileByName(name).high_intensity) << name;
    for (const auto &name : lowIntensityNames())
        EXPECT_FALSE(profileByName(name).high_intensity) << name;
    for (const auto &name : irregularNames())
        EXPECT_NO_THROW(profileByName(name)) << name;
}

TEST(ProfileTest, QuadWorkloadsMatchTable3)
{
    const auto &w = quadWorkloads();
    ASSERT_EQ(w.size(), 10u);
    for (const auto &mix : w) {
        ASSERT_EQ(mix.size(), 4u);
        // Each benchmark appears only once per mix (paper Section 5).
        std::set<std::string> uniq(mix.begin(), mix.end());
        EXPECT_EQ(uniq.size(), 4u);
        for (const auto &b : mix)
            EXPECT_TRUE(profileByName(b).high_intensity) << b;
    }
    EXPECT_EQ(quadWorkloadName(0), "H1");
    EXPECT_EQ(quadWorkloadName(9), "H10");
    // Spot-check H4 and H5 against the paper's table.
    EXPECT_EQ(w[3][0], "mcf");
    EXPECT_EQ(w[4], (std::vector<std::string>{"lbm", "mcf", "libquantum",
                                              "bwaves"}));
}

TEST(ProfileTest, McfIsChaseHeavy)
{
    const BenchmarkProfile &mcf = profileByName("mcf");
    EXPECT_GT(mcf.mix_chase, 0.5);
    EXPECT_GT(mcf.chase_streams, 1u);
    const BenchmarkProfile &lbm = profileByName("lbm");
    EXPECT_DOUBLE_EQ(lbm.mix_chase, 0.0);
}

TEST(SyntheticTest, Deterministic)
{
    FunctionalMemory m1, m2;
    SyntheticProgram a(profileByName("mcf"), m1, 42);
    SyntheticProgram b(profileByName("mcf"), m2, 42);
    for (int i = 0; i < 5000; ++i) {
        DynUop ua, ub;
        ASSERT_TRUE(a.next(ua));
        ASSERT_TRUE(b.next(ub));
        EXPECT_EQ(ua.uop.op, ub.uop.op);
        EXPECT_EQ(ua.result, ub.result);
        EXPECT_EQ(ua.vaddr, ub.vaddr);
    }
}

TEST(SyntheticTest, CopyOnAnOverlayContinuesLikeAFreshBuild)
{
    // A generator copied right after construction onto an overlay of
    // its sealed memory (how a System takes a shared build) emits the
    // uops a freshly built generator emits, and its writes stay in
    // the overlay: a second copy from the same build starts over.
    for (const char *name : {"mcf", "lbm", "bfs", "hashjoin", "embed"}) {
        FunctionalMemory built_mem;
        const SyntheticProgram built(profileByName(name), built_mem, 42);
        built_mem.seal();
        for (int round = 0; round < 2; ++round) {
            FunctionalMemory over(built_mem.base());
            SyntheticProgram copy(built, over);
            FunctionalMemory again_mem;
            SyntheticProgram again(profileByName(name), again_mem, 42);
            for (int i = 0; i < 20000; ++i) {
                DynUop ua, ub;
                ASSERT_TRUE(again.next(ua));
                ASSERT_TRUE(copy.next(ub));
                ASSERT_EQ(ua.uop.op, ub.uop.op) << name << " uop " << i;
                ASSERT_EQ(ua.uop.pc, ub.uop.pc) << name << " uop " << i;
                ASSERT_EQ(ua.vaddr, ub.vaddr) << name << " uop " << i;
                ASSERT_EQ(ua.mem_value, ub.mem_value) << name << " uop " << i;
                ASSERT_EQ(ua.result, ub.result) << name << " uop " << i;
            }
            EXPECT_EQ(over.footprintWords(), again_mem.footprintWords())
                << name;
        }
        EXPECT_EQ(built_mem.dirtyPages(), 0u) << name;
    }
}

TEST(SyntheticTest, SeedsDiffer)
{
    FunctionalMemory m1, m2;
    SyntheticProgram a(profileByName("mcf"), m1, 1);
    SyntheticProgram b(profileByName("mcf"), m2, 2);
    int diff = 0;
    for (int i = 0; i < 2000; ++i) {
        DynUop ua, ub;
        a.next(ua);
        b.next(ub);
        diff += (ua.vaddr != ub.vaddr) ? 1 : 0;
    }
    EXPECT_GT(diff, 0);
}

/**
 * Replay the trace through an architectural interpreter and check
 * every oracle annotation — the ALU results, addresses and branch
 * directions must be self-consistent.
 */
TEST(SyntheticTest, OracleSelfConsistent)
{
    for (const char *name : {"mcf", "libquantum", "soplex", "gcc",
                             "bfs", "pagerank", "hashjoin", "btree",
                             "embed"}) {
        FunctionalMemory mem;
        SyntheticProgram prog(profileByName(name), mem, 7);
        std::uint64_t regs[kArchRegs] = {};
        for (int i = 0; i < 20000; ++i) {
            DynUop d;
            ASSERT_TRUE(prog.next(d));
            const std::uint64_t a =
                d.uop.hasSrc1() ? regs[d.uop.src1] : 0;
            const std::uint64_t b =
                d.uop.hasSrc2() ? regs[d.uop.src2] : 0;
            switch (d.uop.op) {
              case Opcode::kLoad:
                ASSERT_EQ(effectiveAddr(a, d.uop.imm), d.vaddr)
                    << name << " uop " << i;
                regs[d.uop.dst] = d.mem_value;
                ASSERT_EQ(d.result, d.mem_value);
                break;
              case Opcode::kStore:
                ASSERT_EQ(effectiveAddr(a, d.uop.imm), d.vaddr);
                ASSERT_EQ(b, d.mem_value);
                break;
              case Opcode::kBranch:
                ASSERT_EQ(evalBranch(a), d.taken);
                break;
              default:
                if (d.uop.hasDst()) {
                    ASSERT_EQ(evalAlu(d.uop.op, a, b, d.uop.imm),
                              d.result)
                        << name << " uop " << i << " "
                        << d.uop.toString();
                    regs[d.uop.dst] = d.result;
                }
                break;
            }
        }
    }
}

TEST(SyntheticTest, ChaseRingIsCyclicPermutation)
{
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("mcf");
    p.ws_bytes = 64 * 256;  // 256 nodes
    SyntheticProgram prog(p, mem, 3);
    // Follow next pointers from the first node: must visit every node
    // exactly once before returning.
    const Addr base = 0x10000000;
    Addr cur = mem.read(base);  // next of node at slot 0... start anywhere
    (void)cur;
    Addr start = base;
    Addr node = start;
    std::set<Addr> seen;
    for (int i = 0; i < 256; ++i) {
        ASSERT_TRUE(seen.insert(node).second) << "premature cycle";
        node = mem.read(node);
        ASSERT_GE(node, base);
        ASSERT_LT(node, base + 256 * kLineBytes);
        ASSERT_EQ(node % kLineBytes, 0u);
    }
    EXPECT_EQ(node, start);  // full cycle
    EXPECT_EQ(seen.size(), 256u);
}

TEST(SyntheticTest, ChasePageLocality)
{
    // Consecutive hops must revisit a bounded set of pages (the
    // block-local shuffle; see buildChaseRing).
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("mcf");
    p.ws_bytes = 1u << 22;
    SyntheticProgram prog(p, mem, 5);
    Addr node = 0x10000000;
    node = mem.read(node);
    std::set<Addr> pages;
    for (int hop = 0; hop < 300; ++hop) {
        pages.insert(pageNum(node));
        node = mem.read(node);
    }
    // 300 hops with 512-node blocks (8 pages each) touch at most a
    // handful of blocks.
    EXPECT_LE(pages.size(), 24u);
}

TEST(SyntheticTest, UopMixMatchesProfileClass)
{
    // lbm should emit mostly loads/stores over sequential lines;
    // a compute profile should be ALU-dominated.
    FunctionalMemory m1;
    SyntheticProgram lbm(profileByName("lbm"), m1, 11);
    std::map<Opcode, int> mix;
    for (int i = 0; i < 20000; ++i) {
        DynUop d;
        lbm.next(d);
        ++mix[d.uop.op];
    }
    EXPECT_GT(mix[Opcode::kLoad], 2000);
    EXPECT_GT(mix[Opcode::kStore], 500);

    FunctionalMemory m2;
    SyntheticProgram gamess(profileByName("gamess"), m2, 11);
    int alu = 0, memops = 0;
    for (int i = 0; i < 20000; ++i) {
        DynUop d;
        gamess.next(d);
        if (isMem(d.uop.op))
            ++memops;
        else if (!isBranch(d.uop.op))
            ++alu;
    }
    EXPECT_GT(alu, memops * 3);
}

TEST(SyntheticTest, FpProfilesEmitFpUops)
{
    FunctionalMemory mem;
    SyntheticProgram milc(profileByName("milc"), mem, 13);
    int fp = 0;
    for (int i = 0; i < 20000; ++i) {
        DynUop d;
        milc.next(d);
        if (d.uop.op == Opcode::kFpAdd || d.uop.op == Opcode::kFpMul)
            ++fp;
    }
    EXPECT_GT(fp, 500);
}

TEST(SyntheticTest, BranchesCarryMispredictFlags)
{
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("mcf");
    SyntheticProgram prog(p, mem, 17);
    int branches = 0, mispredicts = 0;
    for (int i = 0; i < 50000; ++i) {
        DynUop d;
        prog.next(d);
        if (isBranch(d.uop.op)) {
            ++branches;
            mispredicts += d.mispredicted ? 1 : 0;
        }
    }
    ASSERT_GT(branches, 500);
    const double rate = static_cast<double>(mispredicts) / branches;
    EXPECT_NEAR(rate, p.mispredict_rate, 0.03);
}

TEST(SyntheticTest, MultiStreamChaseUsesDistinctPointers)
{
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("mcf");
    ASSERT_GE(p.chase_streams, 2u);
    SyntheticProgram prog(p, mem, 19);
    std::set<std::uint8_t> chase_regs;
    for (int i = 0; i < 20000; ++i) {
        DynUop d;
        prog.next(d);
        // Chase hops are loads of the form  ptr = [ptr].
        if (isLoad(d.uop.op) && d.uop.dst == d.uop.src1)
            chase_regs.insert(d.uop.dst);
    }
    EXPECT_GE(chase_regs.size(), p.chase_streams);
}

TEST(SyntheticTest, SpillFillPairsMatch)
{
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("mcf");
    p.spill_rate = 1.0;  // force spills
    p.mix_chase = 1.0;
    p.mix_random = 0;
    p.mix_compute = 0;
    SyntheticProgram prog(p, mem, 23);
    // Every store must be followed (within a few uops) by a load of
    // the same address with the same value.
    std::vector<DynUop> win;
    for (int i = 0; i < 5000; ++i) {
        DynUop d;
        prog.next(d);
        win.push_back(d);
    }
    int pairs = 0;
    for (std::size_t i = 0; i < win.size(); ++i) {
        if (!isStore(win[i].uop.op))
            continue;
        for (std::size_t j = i + 1; j < std::min(i + 4, win.size()); ++j) {
            if (isLoad(win[j].uop.op) && win[j].vaddr == win[i].vaddr) {
                EXPECT_EQ(win[j].mem_value, win[i].mem_value);
                ++pairs;
                break;
            }
        }
    }
    EXPECT_GT(pairs, 100);
}

// --------------------------------------------------------------------
// Irregular kernels (irregular.cc): structure + kernel character
// --------------------------------------------------------------------

TEST(IrregularTest, GraphRowsPointIntoEdgeRegion)
{
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("bfs");
    p.ws_bytes = 1u << 20;
    SyntheticProgram prog(p, mem, 29);
    // Every row entry must hold a valid edge-array address, and every
    // edge a valid vertex id.
    const unsigned deg = p.graph_degree;
    for (std::uint64_t v = 0; v < 64; ++v) {
        const Addr row = mem.read(0x50000000 + v * 8);
        ASSERT_GE(row, Addr(0x58000000));
        ASSERT_EQ((row - 0x58000000) % (deg * 8), 0u);
        for (unsigned e = 0; e < deg; ++e) {
            const std::uint64_t target = mem.read(row + e * 8);
            // Targets index the row array (power-of-two vertex count).
            ASSERT_EQ(mem.read(0x50000000 + target * 8) % 8, 0u);
        }
    }
}

TEST(IrregularTest, HashChainsAreCyclicAndLineAligned)
{
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("hashjoin");
    p.ws_bytes = 1u << 20;
    SyntheticProgram prog(p, mem, 31);
    const unsigned chain = p.hash_chain;
    for (std::uint64_t b = 0; b < 64; ++b) {
        const Addr head = mem.read(0x60000000 + b * 8);
        ASSERT_EQ(head % kLineBytes, 0u);
        Addr node = head;
        std::set<Addr> seen;
        for (unsigned n = 0; n < chain; ++n) {
            ASSERT_TRUE(seen.insert(node).second)
                << "premature cycle in bucket " << b;
            ASSERT_GE(node, Addr(0x68000000));
            ASSERT_EQ(node % kLineBytes, 0u);
            node = mem.read(node);
        }
        EXPECT_EQ(node, head) << "chain of bucket " << b
                              << " does not close";
    }
}

TEST(IrregularTest, EmbedIndexIsSkewedTowardHotRows)
{
    FunctionalMemory mem;
    BenchmarkProfile p = profileByName("embed");
    SyntheticProgram prog(p, mem, 37);
    // Count index entries landing in the hot prefix (1/64th of the
    // table): must be roughly gather_hot_frac of them.
    std::uint64_t rows = 0, entries = 0;
    {
        // Recover layout the same way buildEmbedTable does.
        const unsigned lines = p.gather_lines;
        std::uint64_t pw = 64;
        while (pw * 2 <= p.ws_bytes / (lines * kLineBytes)
               && pw < (1ull << 20))
            pw *= 2;
        rows = pw;
        entries = std::min<std::uint64_t>(
            1ull << 16, std::max<std::uint64_t>(64, rows / 4));
    }
    const Addr hot_end =
        0x78000000
        + std::max<std::uint64_t>(1, rows / 64) * p.gather_lines
              * kLineBytes;
    std::uint64_t hot = 0;
    for (std::uint64_t i = 0; i < entries; ++i) {
        const Addr row = mem.read(0x70000000 + i * 8);
        ASSERT_GE(row, Addr(0x78000000));
        if (row < hot_end)
            ++hot;
    }
    const double frac = static_cast<double>(hot) / entries;
    EXPECT_NEAR(frac, p.gather_hot_frac, 0.05);
}

TEST(IrregularTest, KernelsEmitDependentLoadChains)
{
    // Every irregular profile must emit load-to-load address
    // dependences (the dependent-miss pattern the EMC targets):
    // a load whose address register was produced by an earlier load.
    for (const auto &name : irregularNames()) {
        FunctionalMemory mem;
        SyntheticProgram prog(profileByName(name), mem, 41);
        std::uint8_t last_load_dst = kNoReg;
        int dependent = 0;
        for (int i = 0; i < 20000; ++i) {
            DynUop d;
            prog.next(d);
            if (!isLoad(d.uop.op))
                continue;
            if (d.uop.src1 == last_load_dst)
                ++dependent;
            last_load_dst = d.uop.dst;
        }
        EXPECT_GT(dependent, 500) << name;
    }
}

} // namespace
} // namespace emc
