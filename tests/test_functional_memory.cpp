/**
 * @file
 * Tests for the paged functional memory: read/write semantics across
 * pages and far-apart regions, footprint accounting, the base/overlay
 * model (seal, revert, several overlays on one base) and dirty-word
 * checkpoint round trips, and the per-profile footprint of every built
 * workload.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "ckpt/serial.hh"
#include "mem/functional_memory.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace emc
{
namespace
{

constexpr Addr kPage = Addr{1} << FunctionalMemory::kPageShift;

/** Addresses spread over the generator's regions, plus one past 4 GB. */
std::vector<Addr>
farAddrs()
{
    std::vector<Addr> out;
    for (Addr region = 0x10000000; region <= 0x78000000;
         region += 0x08000000) {
        out.push_back(region);
        out.push_back(region + kPage - 8);  // last word of a page
        out.push_back(region + kPage);      // first word of the next
    }
    out.push_back((Addr{1} << 32) + 0x1238);
    out.push_back((Addr{5} << 40) + 0x40);
    return out;
}

TEST(FunctionalMemoryTest, UnwrittenReadsZero)
{
    FunctionalMemory mem;
    EXPECT_EQ(mem.read(0), 0u);
    EXPECT_EQ(mem.read(0x10000000), 0u);
    mem.write(0x10000000, 7);
    // Same page, other word; other page in the same table; far away.
    EXPECT_EQ(mem.read(0x10000008), 0u);
    EXPECT_EQ(mem.read(0x10000000 + kPage), 0u);
    EXPECT_EQ(mem.read(0x70000000), 0u);
    EXPECT_EQ(mem.footprintWords(), 1u);
}

TEST(FunctionalMemoryTest, WritesLandAcrossPagesAndRegions)
{
    FunctionalMemory mem;
    const std::vector<Addr> addrs = farAddrs();
    for (std::size_t i = 0; i < addrs.size(); ++i)
        mem.write(addrs[i], 0x1000 + i);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        EXPECT_EQ(mem.read(addrs[i]), 0x1000 + i) << std::hex << addrs[i];
        // Sub-word offsets alias the aligned word.
        EXPECT_EQ(mem.read(addrs[i] + 3), 0x1000 + i);
    }
    EXPECT_EQ(mem.footprintWords(), addrs.size());
    // Rewriting a word does not grow the footprint.
    mem.write(addrs[0], 99);
    EXPECT_EQ(mem.read(addrs[0]), 99u);
    EXPECT_EQ(mem.footprintWords(), addrs.size());
}

TEST(FunctionalMemoryTest, WrittenZeroCounts)
{
    FunctionalMemory mem;
    mem.write(0x20000000, 0);
    EXPECT_EQ(mem.read(0x20000000), 0u);
    EXPECT_EQ(mem.footprintWords(), 1u);
    EXPECT_EQ(mem.dirtyWords(), 1u);
}

TEST(FunctionalMemoryTest, SerRoundTrips)
{
    FunctionalMemory a;
    const std::vector<Addr> addrs = farAddrs();
    for (std::size_t i = 0; i < addrs.size(); ++i)
        a.write(addrs[i], i * 0x9e3779b97f4a7c15ULL);
    a.write(0x30000040, 0);

    FunctionalMemory b;
    b.write(0x44000000, 5);  // stale content the load must drop
    ckpt::load(b, ckpt::save(a));
    for (const Addr x : addrs)
        EXPECT_EQ(b.read(x), a.read(x)) << std::hex << x;
    EXPECT_EQ(b.read(0x44000000), 0u);
    EXPECT_EQ(b.footprintWords(), a.footprintWords());
    EXPECT_EQ(b.dirtyPages(), a.dirtyPages());
    EXPECT_EQ(b.dirtyWords(), a.dirtyWords());
    // Byte-identical re-save: the page order is canonical.
    EXPECT_EQ(ckpt::save(b), ckpt::save(a));
}

TEST(FunctionalMemoryTest, SealRevertAndDirtyOnlyCheckpoint)
{
    auto build = [](FunctionalMemory &m) {
        for (Addr a = 0x10000000; a < 0x10000000 + 4 * kPage; a += 8)
            m.write(a, a ^ 0x5a5a);
        m.seal();
    };
    FunctionalMemory a, b;
    build(a);
    build(b);
    EXPECT_EQ(a.dirtyPages(), 0u);
    const std::size_t base_words = a.footprintWords();
    EXPECT_EQ(base_words, 4 * FunctionalMemory::kPageWords);

    // Dirty one base page, and a page the base never had.
    a.write(0x10000000 + kPage + 16, 1);
    a.write(0x50000000, 2);
    EXPECT_EQ(a.dirtyPages(), 2u);
    EXPECT_EQ(a.dirtyWords(), 2u);
    EXPECT_EQ(a.footprintWords(), base_words + 1);

    // The image holds only the dirty words, and loading it into a
    // memory with the same base (dirtied differently) reproduces a.
    const std::vector<std::uint8_t> img = ckpt::save(a);
    EXPECT_LT(img.size(), 256u);
    b.write(0x10000000 + 3 * kPage, 77);
    b.write(0x60000000, 3);
    ckpt::load(b, img);
    EXPECT_EQ(b.read(0x10000000 + kPage + 16), 1u);
    EXPECT_EQ(b.read(0x50000000), 2u);
    EXPECT_EQ(b.read(0x10000000 + 3 * kPage),
              (0x10000000 + 3 * kPage) ^ 0x5a5a);
    EXPECT_EQ(b.read(0x60000000), 0u);
    EXPECT_EQ(b.footprintWords(), a.footprintWords());
    EXPECT_EQ(ckpt::save(b), img);

    // Revert returns to the base exactly.
    a.revert();
    EXPECT_EQ(a.dirtyPages(), 0u);
    EXPECT_EQ(a.footprintWords(), base_words);
    EXPECT_EQ(a.read(0x10000000 + kPage + 16),
              (0x10000000 + kPage + 16) ^ 0x5a5a);
    EXPECT_EQ(a.read(0x50000000), 0u);
}

/** What a test can observe of a memory's dirty state. */
struct DirtyState
{
    std::vector<std::uint8_t> image;
    std::size_t footprint_words, dirty_pages, dirty_words;

    explicit DirtyState(FunctionalMemory &m)
        : image(ckpt::save(m)), footprint_words(m.footprintWords()),
          dirty_pages(m.dirtyPages()), dirty_words(m.dirtyWords())
    {
    }

    bool
    operator==(const DirtyState &o) const
    {
        return image == o.image && footprint_words == o.footprint_words
               && dirty_pages == o.dirty_pages
               && dirty_words == o.dirty_words;
    }
};

TEST(FunctionalMemoryTest, OverlaysOnOneBaseStayPrivate)
{
    const Addr lo = 0x10000000;
    auto build = [&](FunctionalMemory &m) {
        for (Addr a = lo; a < lo + 4 * kPage; a += 8)
            m.write(a, a ^ 0x5a5a);
        m.seal();
    };
    // The same writes: into a base page, a page the base lacks, and a
    // base page written twice.
    auto dirty = [&](FunctionalMemory &m) {
        m.write(lo + kPage + 16, 1);
        m.write(0x50000000, 2);
        m.write(lo + 2 * kPage, 3);
        m.write(lo + 2 * kPage, 4);
    };
    FunctionalMemory sealed;
    build(sealed);
    FunctionalMemory a(sealed.base()), b(sealed.base());
    EXPECT_EQ(a.dirtyPages(), 0u);
    EXPECT_EQ(a.footprintWords(), 4 * FunctionalMemory::kPageWords);
    EXPECT_EQ(a.read(lo + 3 * kPage), (lo + 3 * kPage) ^ 0x5a5a);

    dirty(a);
    EXPECT_EQ(a.read(lo + kPage + 16), 1u);
    EXPECT_EQ(a.read(lo + 2 * kPage), 4u);
    // Neither the other overlay nor the base sees a's writes.
    for (FunctionalMemory *m : {&b, &sealed}) {
        EXPECT_EQ(m->read(lo + kPage + 16), (lo + kPage + 16) ^ 0x5a5a);
        EXPECT_EQ(m->read(0x50000000), 0u);
        EXPECT_EQ(m->read(lo + 2 * kPage), (lo + 2 * kPage) ^ 0x5a5a);
        EXPECT_EQ(m->dirtyPages(), 0u);
    }

    // An overlay reports what a memory built cold reports.
    FunctionalMemory cold;
    build(cold);
    dirty(cold);
    EXPECT_TRUE(DirtyState(a) == DirtyState(cold));
    EXPECT_EQ(a.dirtyPages(), 3u);
    EXPECT_EQ(a.dirtyWords(), 3u);

    // An overlay's image loads into another overlay on the same base.
    b.write(lo, 9);
    ckpt::load(b, ckpt::save(a));
    EXPECT_TRUE(DirtyState(b) == DirtyState(a));
    EXPECT_EQ(b.read(lo), lo ^ 0x5a5a);

    // revert() restores the base.
    a.revert();
    EXPECT_EQ(a.dirtyPages(), 0u);
    EXPECT_EQ(a.footprintWords(), 4 * FunctionalMemory::kPageWords);
    EXPECT_EQ(a.read(lo + kPage + 16), (lo + kPage + 16) ^ 0x5a5a);
    EXPECT_EQ(a.read(0x50000000), 0u);
    EXPECT_TRUE(DirtyState(a) == DirtyState(sealed));
}

TEST(FunctionalMemoryTest, OverlayOnEmptyBaseMatchesUnsealedMemory)
{
    FunctionalMemory empty;
    empty.seal();
    FunctionalMemory over(empty.base());
    FunctionalMemory plain;
    const std::vector<Addr> addrs = farAddrs();
    for (FunctionalMemory *m : {&over, &plain}) {
        for (std::size_t i = 0; i < addrs.size(); ++i)
            m->write(addrs[i], 0x77 + i);
    }
    EXPECT_TRUE(DirtyState(over) == DirtyState(plain));
    EXPECT_EQ(over.dirtyPages(), plain.dirtyPages());
    over.revert();
    EXPECT_EQ(over.footprintWords(), 0u);
    EXPECT_EQ(over.read(addrs[0]), 0u);
}

/**
 * Words each profile's generator writes at construction (seed 42),
 * as recorded with the previous hash-map store: the paged store keeps
 * the exact footprint semantics.
 */
TEST(FunctionalMemoryTest, ProfileFootprintsMatchRecorded)
{
    const std::vector<std::pair<const char *, std::size_t>> expected = {
        {"omnetpp", 786432},  {"milc", 0},
        {"soplex", 786432},   {"sphinx3", 393216},
        {"bwaves", 0},        {"libquantum", 0},
        {"lbm", 0},           {"mcf", 1572864},  // x4 = 6,291,456
        {"bfs", 4194304},     {"pagerank", 4194304},
        {"hashjoin", 851968}, {"btree", 655360},
        {"embed", 65536},
    };
    for (const auto &[name, words] : expected) {
        FunctionalMemory mem;
        SyntheticProgram prog(profileByName(name), mem, 42);
        EXPECT_EQ(mem.footprintWords(), words) << name;
    }
}

} // namespace
} // namespace emc
