/**
 * @file
 * Parameterized property tests: invariants swept across geometries,
 * benchmark profiles and whole-system configurations.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "dram/dram_channel.hh"
#include "mem/functional_memory.hh"
#include "ring/ring.hh"
#include "sim/system.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace emc
{
namespace
{

// ---------------------------------------------------------------
// Cache properties across geometries
// ---------------------------------------------------------------

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
};

TEST_P(CacheGeometry, OccupancyNeverExceedsCapacity)
{
    const auto [size, ways] = GetParam();
    Cache c(size, ways, "p");
    Rng rng(size + ways);
    for (int i = 0; i < 3000; ++i) {
        const Addr a = rng.below(1 << 16) << kLineShift;
        if (!c.peek(a))
            c.insert(a);
    }
    EXPECT_LE(c.validLines(), size / kLineBytes);
}

TEST_P(CacheGeometry, InsertedLineIsFindableUntilEvicted)
{
    const auto [size, ways] = GetParam();
    Cache c(size, ways, "p");
    Rng rng(7 * size + ways);
    std::set<Addr> present;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.below(1 << 14) << kLineShift;
        if (!c.peek(a)) {
            Cache::Victim v = c.insert(a);
            if (v.valid)
                present.erase(v.addr);
            present.insert(lineAlign(a));
        }
    }
    for (Addr a : present)
        EXPECT_NE(c.peek(a), nullptr) << std::hex << a;
}

TEST_P(CacheGeometry, InvalidateThenMiss)
{
    const auto [size, ways] = GetParam();
    Cache c(size, ways, "p");
    c.insert(0x4000);
    EXPECT_TRUE(c.invalidate(0x4000).valid);
    EXPECT_EQ(c.access(0x4000), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(1024u, 1u),
                      std::make_tuple(4096u, 4u),
                      std::make_tuple(4096u, 8u),
                      std::make_tuple(32768u, 8u),
                      std::make_tuple(1u << 20, 8u),
                      std::make_tuple(4096u, 64u)));

// ---------------------------------------------------------------
// DRAM properties across geometries
// ---------------------------------------------------------------

class DramGeometryP
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
  protected:
    DramGeometry
    geo() const
    {
        DramGeometry g;
        g.channels = std::get<0>(GetParam());
        g.ranks_per_channel = std::get<1>(GetParam());
        return g;
    }
};

TEST_P(DramGeometryP, MappingIsInjectivePerLine)
{
    const DramGeometry g = geo();
    // Distinct lines within a window map to distinct (ch, rank, bank,
    // row, col) tuples.
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        unsigned>>
        seen;
    for (Addr line = 0; line < 4096; ++line) {
        const DramCoord c = mapAddress(line << kLineShift, g);
        EXPECT_TRUE(seen.emplace(c.channel, c.rank, c.bank, c.row,
                                 c.column)
                        .second)
            << "line " << line;
    }
}

TEST_P(DramGeometryP, AllReadsComplete)
{
    const DramGeometry g = geo();
    DramChannel chan(g, DramTiming{}, SchedPolicy::kBatch, 32, 4);
    unsigned done = 0;
    chan.setCallback([&](const MemRequest &) { ++done; });
    Rng rng(g.channels * 13 + g.ranks_per_channel);
    unsigned sent = 0;
    for (Cycle c = 1; c < 60000; ++c) {
        if (sent < 150 && rng.chance(0.03) && chan.canAccept()) {
            MemRequest r;
            r.paddr = rng.below(1 << 20) << kLineShift;
            r.core = static_cast<CoreId>(rng.below(4));
            r.token = sent;
            if (chan.enqueue(r, c))
                ++sent;
        }
        chan.tick(c);
    }
    EXPECT_EQ(done, sent);
}

INSTANTIATE_TEST_SUITE_P(Geometries, DramGeometryP,
                         ::testing::Combine(::testing::Values(1u, 2u,
                                                              4u),
                                            ::testing::Values(1u, 2u,
                                                              4u)));

// ---------------------------------------------------------------
// Ring properties across sizes
// ---------------------------------------------------------------

class RingSize : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RingSize, ConservationUnderLoad)
{
    const unsigned stops = GetParam();
    Ring ring(stops, false);
    unsigned delivered = 0;
    ring.setDeliver([&](const RingMsg &) { ++delivered; });
    Rng rng(stops);
    unsigned sent = 0;
    Cycle now = 1;
    for (; now < 4000; ++now) {
        if (rng.chance(0.4)) {
            RingMsg m;
            m.src = static_cast<unsigned>(rng.below(stops));
            m.dst = static_cast<unsigned>(
                (m.src + 1 + rng.below(stops - 1)) % stops);
            ring.send(m, now);
            ++sent;
        }
        ring.tick(now);
    }
    for (; ring.pending() > 0 && now < 8000; ++now)
        ring.tick(now);
    EXPECT_EQ(delivered, sent);
    EXPECT_EQ(ring.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSize,
                         ::testing::Values(2u, 3u, 5u, 9u, 10u, 16u));

// ---------------------------------------------------------------
// Generator properties across every benchmark profile
// ---------------------------------------------------------------

class EveryProfile : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryProfile, GeneratorInvariants)
{
    FunctionalMemory mem;
    SyntheticProgram prog(profileByName(GetParam()), mem, 99);
    std::uint64_t regs[kArchRegs] = {};
    int mem_ops = 0;
    for (int i = 0; i < 8000; ++i) {
        DynUop d;
        ASSERT_TRUE(prog.next(d));
        // Register indices in range.
        if (d.uop.hasDst())
            ASSERT_LT(d.uop.dst, kArchRegs);
        if (d.uop.hasSrc1())
            ASSERT_LT(d.uop.src1, kArchRegs);
        if (d.uop.hasSrc2())
            ASSERT_LT(d.uop.src2, kArchRegs);
        // Memory ops are 8-byte aligned and never split lines.
        if (isMem(d.uop.op)) {
            ++mem_ops;
            ASSERT_EQ(d.vaddr % 8, 0u);
            ASSERT_EQ(lineAlign(d.vaddr), lineAlign(d.vaddr + 7));
        }
        // Oracle self-consistency (architectural replay).
        const std::uint64_t a = d.uop.hasSrc1() ? regs[d.uop.src1] : 0;
        const std::uint64_t b = d.uop.hasSrc2() ? regs[d.uop.src2] : 0;
        switch (d.uop.op) {
          case Opcode::kLoad:
            ASSERT_EQ(effectiveAddr(a, d.uop.imm), d.vaddr);
            regs[d.uop.dst] = d.mem_value;
            break;
          case Opcode::kStore:
            ASSERT_EQ(effectiveAddr(a, d.uop.imm), d.vaddr);
            ASSERT_EQ(b, d.mem_value);
            break;
          case Opcode::kBranch:
            ASSERT_EQ(evalBranch(a), d.taken);
            break;
          default:
            if (d.uop.hasDst())
                regs[d.uop.dst] = d.result;
            break;
        }
    }
    EXPECT_GT(mem_ops, 0);
}

TEST_P(EveryProfile, RunsOnSingleCoreSystem)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 2500;
    cfg.max_cycles = 2'000'000;
    System sys(cfg, {GetParam()});
    sys.run();
    EXPECT_TRUE(sys.finished()) << GetParam();
    EXPECT_GT(sys.dump().get("core0.ipc"), 0.0);
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> v;
    for (const auto &p : allProfiles())
        v.push_back(p.name);
    return v;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EveryProfile,
                         ::testing::ValuesIn(allNames()));

// ---------------------------------------------------------------
// Whole-system properties across configurations
// ---------------------------------------------------------------

struct SysParam
{
    PrefetchConfig pf;
    bool emc;
    SchedPolicy sched;
};

class SystemMatrix : public ::testing::TestWithParam<SysParam>
{
};

TEST_P(SystemMatrix, CompletesWithSaneStats)
{
    const SysParam p = GetParam();
    SystemConfig cfg;
    cfg.prefetch = p.pf;
    cfg.emc_enabled = p.emc;
    cfg.sched = p.sched;
    cfg.target_uops = 4000;
    cfg.max_cycles = 4'000'000;
    System sys(cfg, {"mcf", "libquantum", "omnetpp", "bwaves"});
    sys.run();
    ASSERT_TRUE(sys.finished());
    const StatDump d = sys.dump();
    for (int i = 0; i < 4; ++i) {
        const std::string k = "core" + std::to_string(i) + ".";
        EXPECT_GT(d.get(k + "ipc"), 0.0);
        EXPECT_LE(d.get(k + "ipc"), 4.0);  // cannot beat issue width
        EXPECT_GE(d.get(k + "retired"), 4000.0);
    }
    EXPECT_GE(d.get("dram.row_conflict_rate"), 0.0);
    EXPECT_LE(d.get("dram.row_conflict_rate"), 1.0);
    EXPECT_GE(d.get("llc.dep_miss_frac"), 0.0);
    EXPECT_LE(d.get("llc.dep_miss_frac"), 1.0);
    if (p.emc) {
        EXPECT_GE(d.get("emc.chains_completed"), 0.0);
        EXPECT_GE(d.get("emc.dcache_hit_rate"), 0.0);
        EXPECT_LE(d.get("emc.dcache_hit_rate"), 1.0);
    }
    EXPECT_GT(d.get("energy.total_mj"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SystemMatrix,
    ::testing::Values(
        SysParam{PrefetchConfig::kNone, false, SchedPolicy::kBatch},
        SysParam{PrefetchConfig::kNone, true, SchedPolicy::kBatch},
        SysParam{PrefetchConfig::kGhb, false, SchedPolicy::kBatch},
        SysParam{PrefetchConfig::kGhb, true, SchedPolicy::kBatch},
        SysParam{PrefetchConfig::kStream, true, SchedPolicy::kBatch},
        SysParam{PrefetchConfig::kStride, true, SchedPolicy::kBatch},
        SysParam{PrefetchConfig::kNone, true, SchedPolicy::kFrFcfs},
        SysParam{PrefetchConfig::kStream, false, SchedPolicy::kFrFcfs}));

} // namespace
} // namespace emc
