/**
 * @file
 * Unit and property tests for the set-associative cache and MSHR file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "ckpt/serial.hh"
#include "common/rng.hh"

namespace emc
{
namespace
{

TEST(CacheTest, GeometryFromSize)
{
    Cache c(32 * 1024, 8, "l1");
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_EQ(c.ways(), 8u);
}

TEST(CacheTest, MissThenHit)
{
    Cache c(4096, 4, "t");
    EXPECT_EQ(c.access(0x1000), nullptr);
    c.insert(0x1000);
    EXPECT_NE(c.access(0x1000), nullptr);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheTest, SameSetEvictsLru)
{
    // 4 KB, 4-way, 64 B lines -> 16 sets. Addresses spaced 16 lines
    // apart land in the same set.
    Cache c(4096, 4, "t");
    const Addr stride = 16 * kLineBytes;
    for (Addr i = 0; i < 4; ++i)
        c.insert(i * stride);
    // Touch line 0 so line 1 becomes LRU.
    ASSERT_NE(c.access(0), nullptr);
    Cache::Victim v = c.insert(4 * stride);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, stride);
}

TEST(CacheTest, VictimAddressReconstruction)
{
    Cache c(4096, 1, "direct");
    const Addr a = 0x40 * 64;  // set = 0 for 64 sets
    c.insert(a);
    Cache::Victim v = c.insert(a + 64 * 64);  // same set, new tag
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, a);
}

TEST(CacheTest, PeekDoesNotDisturbState)
{
    Cache c(4096, 4, "t");
    c.insert(0x1000);
    EXPECT_NE(c.peek(0x1000), nullptr);
    EXPECT_EQ(c.peek(0x2000), nullptr);
    EXPECT_EQ(c.stats().hits, 0u);
    EXPECT_EQ(c.stats().misses, 0u);
}

TEST(CacheTest, InvalidateRemovesLine)
{
    Cache c(4096, 4, "t");
    CacheLineMeta meta;
    meta.dirty = true;
    c.insert(0x1000, meta);
    Cache::Victim v = c.invalidate(0x1000);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.meta.dirty);
    EXPECT_EQ(c.peek(0x1000), nullptr);
    EXPECT_FALSE(c.invalidate(0x1000).valid);
}

TEST(CacheTest, WarmInvalidateRemovesLineWithoutStats)
{
    // Functional warming runs outside simulated time: back-
    // invalidations on the warm path must not count invalidation
    // statistics (DESIGN.md §8 — caught by the warm-contract lint).
    Cache c(4096, 4, "t");
    CacheLineMeta meta;
    meta.dirty = true;
    c.insert(0x1000, meta);
    Cache::Victim v = c.warmInvalidate(0x1000);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.meta.dirty);
    EXPECT_EQ(c.peek(0x1000), nullptr);
    EXPECT_FALSE(c.warmInvalidate(0x1000).valid);
    EXPECT_EQ(c.stats().invalidations, 0u);
}

TEST(CacheTest, MetadataRoundTrip)
{
    Cache c(4096, 4, "t");
    CacheLineMeta meta;
    meta.presence = 0b1010;
    meta.emc = true;
    c.insert(0x2000, meta);
    CacheLineMeta *m = c.peek(0x2000);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->presence, 0b1010u);
    EXPECT_TRUE(m->emc);
    m->dirty = true;
    EXPECT_TRUE(c.peek(0x2000)->dirty);
}

TEST(CacheTest, DirtyEvictionCounted)
{
    Cache c(1024, 1, "tiny");  // 16 sets
    CacheLineMeta dirty;
    dirty.dirty = true;
    c.insert(0, dirty);
    c.insert(16 * 64);  // same set
    EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

/** Property: a cache never holds more valid lines than its capacity. */
TEST(CacheProperty, OccupancyBounded)
{
    Cache c(2048, 4, "prop");
    Rng rng(123);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.below(1 << 20) << kLineShift;
        if (!c.peek(a))
            c.insert(a);
        EXPECT_LE(c.validLines(), 2048u / kLineBytes);
    }
}

/** Property: after insert, the line is present until evicted. */
TEST(CacheProperty, InsertedLinesFindable)
{
    Cache c(4096, 8, "prop");  // 8 sets, 8 ways
    // Insert exactly ways lines into one set: all must be present.
    const Addr stride = 8 * kLineBytes;
    for (Addr i = 0; i < 8; ++i)
        c.insert(i * stride);
    for (Addr i = 0; i < 8; ++i)
        EXPECT_NE(c.peek(i * stride), nullptr) << i;
}

/** Property: LRU order means untouched lines evict before touched. */
TEST(CacheProperty, LruRespectsRecency)
{
    Cache c(4096, 8, "prop");
    const Addr stride = 8 * kLineBytes;
    for (Addr i = 0; i < 8; ++i)
        c.insert(i * stride);
    // Touch all but #3.
    for (Addr i = 0; i < 8; ++i) {
        if (i != 3)
            ASSERT_NE(c.access(i * stride), nullptr);
    }
    Cache::Victim v = c.insert(8 * stride);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 3 * stride);
}

TEST(CacheTest, CheckpointRestoresTagsAndRejectsOtherGeometry)
{
    // The tag store starts unwritten (each set is blanked on first
    // use): a fresh cache is empty, and an image round-trips every
    // way. An image of another geometry is a corrupt stream, not a
    // resize.
    Cache src(64 * 1024, 8, "t");
    EXPECT_EQ(src.validLines(), 0u);
    {
        // A never-used set is written as blank lines: after the
        // length word, a fresh cache's image is all zeros.
        ckpt::Ar fresh = ckpt::Ar::saver();
        src.ser(fresh);
        const std::vector<std::uint8_t> &b = fresh.bytes();
        ASSERT_GT(b.size(), 8u);
        EXPECT_EQ(b[0], 0u);  // 1024 lines: low byte of the length
        EXPECT_EQ(b[1], 4u);
        EXPECT_TRUE(std::all_of(b.begin() + 8, b.end(),
                                [](std::uint8_t x) { return x == 0; }));
    }
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        const Addr a = rng.below(1 << 14) << kLineShift;
        if (!src.access(a))
            src.insert(a, CacheLineMeta{i % 3 == 0, 1u << (i % 4), false});
    }
    ckpt::Ar save = ckpt::Ar::saver();
    src.ser(save);
    const std::vector<std::uint8_t> image = save.takeBytes();

    Cache dst(64 * 1024, 8, "t");
    ckpt::Ar load = ckpt::Ar::loader(image);
    dst.ser(load);
    EXPECT_TRUE(load.exhausted());
    EXPECT_EQ(dst.validLines(), src.validLines());
    std::vector<std::pair<Addr, bool>> a, b;
    src.forEachValidLine([&](Addr l, const CacheLineMeta &m) {
        a.emplace_back(l, m.dirty);
    });
    dst.forEachValidLine([&](Addr l, const CacheLineMeta &m) {
        b.emplace_back(l, m.dirty);
    });
    EXPECT_EQ(a, b);

    Cache other(32 * 1024, 8, "t");
    ckpt::Ar bad = ckpt::Ar::loader(image);
    EXPECT_THROW(other.ser(bad), ckpt::Error);
}

TEST(MshrTest, AllocateAndComplete)
{
    MshrFile m(4);
    EXPECT_TRUE(m.allocate(0x1000, 1));   // new entry
    EXPECT_FALSE(m.allocate(0x1000, 2));  // merged
    EXPECT_TRUE(m.has(0x1000));
    std::vector<std::uint64_t> tokens;
    ASSERT_TRUE(m.complete(0x1000, tokens));
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_EQ(tokens[0], 1u);
    EXPECT_EQ(tokens[1], 2u);
    EXPECT_FALSE(m.has(0x1000));
}

TEST(MshrTest, FullAndCapacity)
{
    MshrFile m(2);
    m.allocate(0x1000, 1);
    m.allocate(0x2000, 2);
    EXPECT_TRUE(m.full());
    // Merging into an existing entry is still allowed when full.
    EXPECT_FALSE(m.allocate(0x1000, 3));
}

TEST(MshrTest, CompleteUnknownLine)
{
    MshrFile m(2);
    std::vector<std::uint64_t> tokens;
    EXPECT_FALSE(m.complete(0x1000, tokens));
}

} // namespace
} // namespace emc
