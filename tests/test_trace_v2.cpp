/**
 * @file
 * Tests for the v2 compressed trace container (src/trace/,
 * DESIGN.md §11): round-trip fidelity across block boundaries, size
 * vs the retired v1 fixed-record dump, seek-index positioning,
 * rejection of version-1 files, typed structural errors with byte
 * offsets (crafted headers included), and the record/replay
 * stat-identity guarantee on a fig13-class single-core run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/rng.hh"
#include "mem/functional_memory.hh"
#include "sim/system.hh"
#include "trace/reader.hh"
#include "trace/record.hh"
#include "trace/writer.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace emc
{
namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Generate n realistic uops from a profile's generator. */
std::vector<DynUop>
genUops(const char *profile, std::uint64_t n, std::uint64_t seed)
{
    FunctionalMemory mem;
    SyntheticProgram gen(profileByName(profile), mem, seed);
    std::vector<DynUop> v(n);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_TRUE(gen.next(v[i]));
    return v;
}

/** Adversarial uops: every field at its extremes, no ISA semantics. */
std::vector<DynUop>
weirdUops(std::uint64_t n)
{
    Rng rng(99);
    std::vector<DynUop> v(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        DynUop &d = v[i];
        d.uop.op = static_cast<Opcode>(rng.below(
            static_cast<std::uint64_t>(Opcode::kNop) + 1));
        d.uop.dst = static_cast<std::uint8_t>(rng.below(kArchRegs));
        d.uop.src1 = static_cast<std::uint8_t>(rng.below(kArchRegs));
        d.uop.src2 =
            rng.chance(0.3)
                ? kNoReg
                : static_cast<std::uint8_t>(rng.below(kArchRegs));
        d.uop.imm = static_cast<std::int64_t>(rng.next());
        d.uop.pc = rng.next();
        d.result = rng.next();
        d.vaddr = rng.next();
        d.mem_value = rng.next();
        d.taken = rng.chance(0.5);
        d.mispredicted = rng.chance(0.1);
        v[i] = d;
    }
    return v;
}

void
expectSameUop(const DynUop &a, const DynUop &b, std::uint64_t i)
{
    EXPECT_EQ(a.uop.op, b.uop.op) << i;
    EXPECT_EQ(a.uop.dst, b.uop.dst) << i;
    EXPECT_EQ(a.uop.src1, b.uop.src1) << i;
    EXPECT_EQ(a.uop.src2, b.uop.src2) << i;
    EXPECT_EQ(a.uop.imm, b.uop.imm) << i;
    EXPECT_EQ(a.uop.pc, b.uop.pc) << i;
    EXPECT_EQ(a.result, b.result) << i;
    EXPECT_EQ(a.vaddr, b.vaddr) << i;
    EXPECT_EQ(a.mem_value, b.mem_value) << i;
    EXPECT_EQ(a.taken, b.taken) << i;
    EXPECT_EQ(a.mispredicted, b.mispredicted) << i;
}

std::size_t
fileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    const long n = std::ftell(f);
    std::fclose(f);
    return static_cast<std::size_t>(n);
}

/** Flip one byte in place. */
void
corruptByte(const std::string &path, long at)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, at, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, at, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
}

/** Overwrite @p width little-endian bytes at @p at with @p value. */
void
patchLe(const std::string &path, long at, std::uint64_t value,
        unsigned width)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, at, SEEK_SET);
    for (unsigned i = 0; i < width; ++i)
        std::fputc(static_cast<int>((value >> (8 * i)) & 0xff), f);
    std::fclose(f);
}

void
truncateTo(const std::string &path, std::size_t bytes)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::vector<char> buf(bytes);
    ASSERT_EQ(std::fread(buf.data(), 1, bytes, in), bytes);
    std::fclose(in);
    std::FILE *out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(buf.data(), 1, bytes, out), bytes);
    std::fclose(out);
}

// --------------------------------------------------------------------
// Round-trip fidelity
// --------------------------------------------------------------------

/** Property test: profile streams survive the codec at every block
 *  size, including sizes that split the stream mid-iteration. */
TEST(TraceV2Test, RoundTripAcrossBlockBoundaries)
{
    for (const char *profile : {"mcf", "bfs", "hashjoin", "embed"}) {
        const std::vector<DynUop> ref = genUops(profile, 500, 7);
        for (std::uint32_t block_uops : {1u, 7u, 64u, 4096u}) {
            const std::string path = tmpPath("rt.emct");
            {
                trace::Writer w(path, {}, true, block_uops);
                for (const DynUop &d : ref)
                    w.append(d);
                w.close();
            }
            trace::Reader r(path);
            ASSERT_EQ(r.size(), ref.size())
                << profile << " block_uops=" << block_uops;
            DynUop d;
            for (std::uint64_t i = 0; i < ref.size(); ++i) {
                ASSERT_TRUE(r.next(d));
                expectSameUop(d, ref[i], i);
            }
            EXPECT_FALSE(r.next(d));
        }
    }
}

/** Records that defy ISA semantics (random results, random branch
 *  bits) must round-trip via the explicit-fallback flags. */
TEST(TraceV2Test, RoundTripAdversarialRecords)
{
    const std::vector<DynUop> ref = weirdUops(400);
    for (bool compress : {true, false}) {
        const std::string path = tmpPath("weird.emct");
        {
            trace::Writer w(path, {}, compress, 32);
            for (const DynUop &d : ref)
                w.append(d);
            w.close();
        }
        trace::Reader r(path);
        DynUop d;
        for (std::uint64_t i = 0; i < ref.size(); ++i) {
            ASSERT_TRUE(r.next(d)) << compress;
            expectSameUop(d, ref[i], i);
        }
    }
}

TEST(TraceV2Test, EmptyTraceRoundTrips)
{
    const std::string path = tmpPath("empty.emct");
    {
        trace::Writer w(path);
        w.close();
    }
    trace::Reader r(path);
    EXPECT_EQ(r.size(), 0u);
    DynUop d;
    EXPECT_FALSE(r.next(d));
    EXPECT_EQ(trace::verifyFile(path), 0u);
}

TEST(TraceV2Test, ProvenanceSurvives)
{
    const std::string path = tmpPath("prov.emct");
    trace::Provenance prov;
    prov.workload = "bfs";
    prov.meta = "unit-test recipe";
    prov.config_hash = 0x1234abcd;
    prov.seed = 42;
    {
        trace::Writer w(path, prov);
        w.append(genUops("bfs", 1, 3)[0]);
        w.close();
    }
    const trace::Info info = trace::probeFile(path);
    EXPECT_EQ(info.version, trace::kVersion);
    EXPECT_EQ(info.uop_count, 1u);
    EXPECT_EQ(info.provenance.workload, "bfs");
    EXPECT_EQ(info.provenance.meta, "unit-test recipe");
    EXPECT_EQ(info.provenance.config_hash, 0x1234abcdu);
    EXPECT_EQ(info.provenance.seed, 42u);
    EXPECT_TRUE(info.finalized());
}

// --------------------------------------------------------------------
// Compression gate: v2 must be >= 4x smaller than the v1 dump
// --------------------------------------------------------------------

TEST(TraceV2Test, AtLeastFourTimesSmallerThanV1)
{
    for (const char *profile : {"mcf", "bfs"}) {
        const std::vector<DynUop> ref = genUops(profile, 20000, 11);
        const std::string v2 = tmpPath("size.v2.emct");
        {
            trace::Writer w2(v2);
            for (const DynUop &d : ref)
                w2.append(d);
            w2.close();
        }
        // v1 was a 16-byte header plus one fixed 46-byte record per
        // uop, whatever the stream.
        const std::size_t b1 = 16 + 46 * ref.size();
        const std::size_t b2 = fileBytes(v2);
        EXPECT_GE(b1, 4 * b2)
            << profile << ": v1=" << b1 << " v2=" << b2 << " ratio="
            << static_cast<double>(b1) / static_cast<double>(b2);
    }
}

// --------------------------------------------------------------------
// Seek index
// --------------------------------------------------------------------

TEST(TraceV2Test, SeekToMatchesSequentialRead)
{
    const std::vector<DynUop> ref = genUops("mcf", 700, 5);
    const std::string path = tmpPath("seek.emct");
    {
        trace::Writer w(path, {}, true, 64);
        for (const DynUop &d : ref)
            w.append(d);
        w.close();
    }
    trace::Reader r(path);
    // Jump around: forward, backward, block-boundary, clamped-at-end.
    for (std::uint64_t idx : {0ull, 63ull, 64ull, 65ull, 311ull, 5ull,
                              699ull, 640ull}) {
        r.seekTo(idx);
        DynUop d;
        ASSERT_TRUE(r.next(d)) << idx;
        expectSameUop(d, ref[idx], idx);
    }
    r.seekTo(700); // clamp: positioned at EOF
    DynUop d;
    EXPECT_FALSE(r.next(d));
}

TEST(TraceV2Test, LoopModeWraps)
{
    const std::vector<DynUop> ref = genUops("mcf", 50, 9);
    const std::string path = tmpPath("loop.emct");
    {
        trace::Writer w(path, {}, true, 16);
        for (const DynUop &d : ref)
            w.append(d);
        w.close();
    }
    trace::Reader r(path, /*loop=*/true);
    DynUop d;
    for (int i = 0; i < 125; ++i) {
        ASSERT_TRUE(r.next(d)) << i;
        expectSameUop(d, ref[i % 50], i);
    }
    EXPECT_EQ(r.produced(), 125u);
}

// --------------------------------------------------------------------
// Version check
// --------------------------------------------------------------------

TEST(TraceV2Test, VersionOneFileIsRejected)
{
    // A v1 header: magic, u32 version 1, u64 record count.
    const std::string path = tmpPath("v1.emct");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::uint8_t head[16] = {'E', 'M', 'C', 'T', 1, 0, 0, 0,
                                       0, 0, 0, 0, 0, 0, 0, 0};
        ASSERT_EQ(std::fwrite(head, 1, sizeof head, f), sizeof head);
        std::fclose(f);
    }
    auto expectVersionOneError = [](const trace::Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unsupported trace version 1"),
                  std::string::npos)
            << what;
        EXPECT_EQ(e.offset(), 4u) << what;
    };
    try {
        trace::probeFile(path);
        FAIL() << "probeFile accepted a v1 file";
    } catch (const trace::Error &e) {
        expectVersionOneError(e);
    }
    try {
        trace::Reader r(path);
        FAIL() << "Reader accepted a v1 file";
    } catch (const trace::Error &e) {
        expectVersionOneError(e);
    }
}

// --------------------------------------------------------------------
// Typed errors with byte offsets
// --------------------------------------------------------------------

TEST(TraceV2Test, MissingFileThrows)
{
    EXPECT_THROW(trace::Reader r(tmpPath("nope.emct")), trace::Error);
    EXPECT_THROW(trace::probeFile(tmpPath("nope.emct")), trace::Error);
}

TEST(TraceV2Test, BadMagicThrows)
{
    const std::string path = tmpPath("badmagic.emct");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("NOTATRACEFILE---", f);
    std::fclose(f);
    try {
        trace::probeFile(path);
        FAIL() << "no error";
    } catch (const trace::Error &e) {
        EXPECT_NE(std::string(e.what()).find("magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceV2Test, UnfinalizedFileRejectedByReader)
{
    const std::string path = tmpPath("unfinalized.emct");
    {
        trace::Writer w(path, {}, true, 8);
        for (const DynUop &d : genUops("mcf", 20, 2))
            w.append(d);
        // no close(): destructor leaves index_offset == 0
    }
    EXPECT_FALSE(trace::probeFile(path).finalized());
    try {
        trace::Reader r(path);
        FAIL() << "no error";
    } catch (const trace::Error &e) {
        // The unfinalized marker is the index_offset word at byte 32.
        EXPECT_NE(std::string(e.what()).find("offset 32"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceV2Test, TruncationReportsByteOffset)
{
    const std::string path = tmpPath("trunc.emct");
    {
        trace::Writer w(path, {}, true, 16);
        for (const DynUop &d : genUops("mcf", 200, 13))
            w.append(d);
        w.close();
    }
    const std::size_t full = fileBytes(path);
    truncateTo(path, full - 17);
    try {
        trace::verifyFile(path);
        FAIL() << "no error";
    } catch (const trace::Error &e) {
        EXPECT_NE(std::string(e.what()).find("byte offset"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceV2Test, CorruptionFailsChecksumWithOffset)
{
    const std::string path = tmpPath("corrupt.emct");
    {
        trace::Writer w(path, {}, true, 16);
        for (const DynUop &d : genUops("mcf", 200, 17))
            w.append(d);
        w.close();
    }
    // Flip a payload byte in the middle of the block region.
    corruptByte(path, static_cast<long>(fileBytes(path) / 2));
    try {
        trace::verifyFile(path);
        FAIL() << "no error";
    } catch (const trace::Error &e) {
        EXPECT_NE(std::string(e.what()).find("byte offset"),
                  std::string::npos)
            << e.what();
    }
    // The sequential reader hits the same wall (typed, not fatal).
    trace::Reader r(path);
    DynUop d;
    EXPECT_THROW(
        {
            for (std::uint64_t i = 0; i < r.size(); ++i)
                r.next(d);
        },
        trace::Error);
}

// Crafted headers: sizes read from the file are bounded by the file
// before anything is allocated, so they fail typed instead of aborting.

TEST(TraceV2Test, HugeBlockCountIsATypedError)
{
    const std::string path = tmpPath("huge_blocks.emct");
    {
        trace::Writer w(path, {}, true, 16);
        for (const DynUop &d : genUops("bfs", 100, 3))
            w.append(d);
        w.close();
    }
    patchLe(path, 24, 1ull << 60, 8);  // block_count
    try {
        trace::Reader r(path);
        FAIL() << "no error";
    } catch (const trace::Error &e) {
        EXPECT_NE(std::string(e.what()).find("overruns the file"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.offset(), 24u) << e.what();
    }
    EXPECT_THROW(trace::verifyFile(path), trace::Error);
}

TEST(TraceV2Test, HugeBlockPayloadIsATypedError)
{
    const std::string path = tmpPath("huge_payload.emct");
    {
        trace::Writer w(path, {}, true, 16);
        for (const DynUop &d : genUops("bfs", 100, 3))
            w.append(d);
        w.close();
    }
    // The first block starts right after the header; its u32
    // stored_bytes sits 8 bytes in.
    const std::uint64_t first_block = trace::probeFile(path).header_bytes;
    patchLe(path, static_cast<long>(first_block + 8), 0xfffffff0u, 4);
    trace::Reader r(path);
    DynUop d;
    try {
        r.next(d);
        FAIL() << "no error";
    } catch (const trace::Error &e) {
        EXPECT_NE(std::string(e.what()).find("overruns the file"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.offset(), first_block + 8) << e.what();
    }
}

TEST(TraceV2Test, HugeDeflatedRawSizeIsATypedError)
{
    if (!ckpt::compressionAvailable())
        GTEST_SKIP() << "built without zlib";
    const std::string path = tmpPath("huge_raw.emct");
    {
        trace::Writer w(path, {}, true, 16);
        for (const DynUop &d : genUops("bfs", 100, 3))
            w.append(d);
        w.close();
    }
    // The deflated first block's u32 raw_bytes sits 4 bytes in; ask
    // for 4 GiB from a payload of a few hundred bytes.
    const std::uint64_t first_block = trace::probeFile(path).header_bytes;
    patchLe(path, static_cast<long>(first_block + 4), 0xffffffffu, 4);
    trace::Reader r(path);
    DynUop d;
    try {
        r.next(d);
        FAIL() << "no error";
    } catch (const trace::Error &e) {
        EXPECT_NE(std::string(e.what()).find("maximum ratio"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.offset(), first_block + 4) << e.what();
    }
}

// --------------------------------------------------------------------
// Record / replay stat identity (fig13-class single core)
// --------------------------------------------------------------------

TEST(TraceV2Test, RecordedReplayIsStatIdenticalToLiveRun)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.emc_enabled = true;
    cfg.target_uops = 4000;
    cfg.warmup_uops = 1000;

    System live(cfg, {"mcf"});
    live.run();
    const StatDump d_live = live.dump();

    // Record strictly more uops than the run consumes (the core
    // fetches ahead of commit), with the System's own seed derivation.
    trace::RecordSpec spec;
    spec.profile = "mcf";
    spec.path = tmpPath("identity.emct");
    spec.uops = 6 * cfg.target_uops;
    spec.base_seed = cfg.seed;
    spec.core = 0;
    trace::recordProfile(spec);

    SystemConfig replay_cfg = cfg;
    replay_cfg.trace_files = {spec.path};
    System replayed(replay_cfg, {"mcf"});
    replayed.run();
    const StatDump d_replay = replayed.dump();

    ASSERT_EQ(d_live.all().size(), d_replay.all().size());
    auto il = d_live.all().begin();
    auto ir = d_replay.all().begin();
    for (; il != d_live.all().end(); ++il, ++ir) {
        EXPECT_EQ(il->first, ir->first);
        EXPECT_EQ(il->second, ir->second) << il->first;
    }
}

} // namespace
} // namespace emc
