#include "trace/reader.hh"

#include <algorithm>
#include <cstring>

#include "ckpt/ckpt.hh"
#include "ckpt/serial.hh"

namespace emc::trace
{

namespace
{

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** RAII FILE handle for the probe/verify helpers. */
struct File
{
    explicit File(const std::string &path)
        : f(std::fopen(path.c_str(), "rb"))
    {
        if (!f)
            throw Error("cannot open trace file: " + path, 0);
    }
    ~File()
    {
        if (f)
            std::fclose(f);
    }
    std::FILE *f;
};

void
readAt(std::FILE *f, std::uint64_t at, void *bytes, std::size_t n,
       const char *what)
{
    if (std::fseek(f, static_cast<long>(at), SEEK_SET) != 0
        || std::fread(bytes, 1, n, f) != n)
        throw Error(std::string("short read (") + what + ")", at);
}

std::uint64_t
fileSize(std::FILE *f)
{
    std::fseek(f, 0, SEEK_END);
    return static_cast<std::uint64_t>(std::ftell(f));
}

Info
probeOpen(std::FILE *f, const std::string &path)
{
    Info info;
    info.file_bytes = fileSize(f);

    std::uint8_t head[8];
    readAt(f, 0, head, sizeof head, "header magic");
    if (std::memcmp(head, kMagic, 4) != 0)
        throw Error("not an EMCT trace file: " + path, 0);
    info.version = getU32(head + 4);
    if (info.version != kVersion)
        throw Error("unsupported trace version "
                        + std::to_string(info.version) + " in " + path,
                    4);

    std::uint8_t fixed[kHeaderFixedBytes];
    readAt(f, 0, fixed, sizeof fixed, "v2 header");
    info.header_bytes = getU64(fixed + 8);
    info.uop_count = getU64(fixed + 16);
    info.block_count = getU64(fixed + 24);
    info.index_offset = getU64(fixed + 32);
    info.provenance.config_hash = getU64(fixed + 40);
    info.provenance.seed = getU64(fixed + 48);
    info.block_uops = getU32(fixed + 56);
    info.flags = getU32(fixed + 60);

    if (info.header_bytes < kHeaderFixedBytes + 8
        || info.header_bytes > info.file_bytes)
        throw Error("v2 header length out of range", 8);
    std::vector<std::uint8_t> tail(info.header_bytes
                                   - kHeaderFixedBytes);
    readAt(f, kHeaderFixedBytes, tail.data(), tail.size(),
           "v2 header strings");
    std::size_t p = 0;
    auto getString = [&](const char *what) {
        if (p + 4 > tail.size())
            throw Error(std::string("v2 header truncated (") + what
                            + ")",
                        kHeaderFixedBytes + p);
        const std::uint32_t len = getU32(tail.data() + p);
        p += 4;
        if (p + len > tail.size())
            throw Error(std::string("v2 header truncated (") + what
                            + ")",
                        kHeaderFixedBytes + p);
        std::string s(tail.begin() + static_cast<std::ptrdiff_t>(p),
                      tail.begin()
                          + static_cast<std::ptrdiff_t>(p + len));
        p += len;
        return s;
    };
    info.provenance.workload = getString("workload");
    info.provenance.meta = getString("meta");
    return info;
}

} // namespace

Info
probeFile(const std::string &path)
{
    File f(path);
    return probeOpen(f.f, path);
}

Reader::Reader(const std::string &path, bool loop)
    : path_(path), loop_(loop)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        throw Error("cannot open trace file: " + path, 0);
    try {
        info_ = probeOpen(file_, path);
        if (!info_.finalized())
            throw Error("trace was never finalized (writer did not "
                        "close cleanly): "
                            + path,
                        32);

        // Load and validate the seek index. Bound block_count by
        // the bytes after the index magic, without overflowing.
        if (info_.index_offset > info_.file_bytes
            || info_.file_bytes - info_.index_offset < 8)
            throw Error("seek index offset past the end of the file",
                        32);
        if (info_.block_count
            > (info_.file_bytes - info_.index_offset - 8) / 16)
            throw Error("seek index overruns the file", 24);
        std::uint8_t magic[8];
        readAt(file_, info_.index_offset, magic, sizeof magic,
               "index magic");
        if (std::memcmp(magic, kIndexMagic, 8) != 0)
            throw Error("bad seek-index magic", info_.index_offset);
        std::vector<std::uint8_t> idx(16 * info_.block_count);
        readAt(file_, info_.index_offset + 8, idx.data(), idx.size(),
               "seek index");
        index_.resize(info_.block_count);
        std::uint64_t prev_uop = 0;
        for (std::size_t i = 0; i < index_.size(); ++i) {
            index_[i].offset = getU64(idx.data() + 16 * i);
            index_[i].first_uop = getU64(idx.data() + 16 * i + 8);
            if (index_[i].offset < info_.header_bytes
                || index_[i].offset >= info_.index_offset
                || (i > 0 && index_[i].first_uop <= prev_uop))
                throw Error("seek index entry "
                                + std::to_string(i)
                                + " is inconsistent",
                            info_.index_offset + 8 + 16 * i);
            prev_uop = index_[i].first_uop;
        }
        if (!index_.empty() && index_[0].first_uop != 0)
            throw Error("seek index does not start at record 0",
                        info_.index_offset + 8);
    } catch (...) {
        std::fclose(file_);
        file_ = nullptr;
        throw;
    }
}

Reader::~Reader()
{
    if (file_)
        std::fclose(file_);
}

void
Reader::readRaw(void *bytes, std::size_t n, std::uint64_t at,
                const char *what)
{
    readAt(file_, at, bytes, n, what);
}

void
Reader::loadBlock(std::size_t block_idx)
{
    const IndexEntry &e = index_[block_idx];
    const std::uint64_t expect_uops =
        (block_idx + 1 < index_.size()
             ? index_[block_idx + 1].first_uop
             : info_.uop_count)
        - e.first_uop;

    std::uint8_t bh[kBlockHeaderBytes];
    readRaw(bh, sizeof bh, e.offset, "block header");
    const std::uint32_t uops = getU32(bh);
    const std::uint32_t raw_bytes = getU32(bh + 4);
    const std::uint32_t stored_bytes = getU32(bh + 8);
    const std::uint8_t codec = bh[12];
    const std::uint64_t checksum = getU64(bh + 13);

    if (uops != expect_uops)
        throw Error("block record count disagrees with the seek index",
                    e.offset);
    if (codec != kCodecRaw && codec != kCodecDeflate)
        throw Error("unknown block codec "
                        + std::to_string(codec),
                    e.offset + 12);

    const std::uint64_t body_at = e.offset + kBlockHeaderBytes;
    // The block header read succeeded, so body_at <= file_bytes.
    if (stored_bytes > info_.file_bytes - body_at)
        throw Error("block payload overruns the file", e.offset + 8);
    std::vector<std::uint8_t> body(stored_bytes);
    readRaw(body.data(), body.size(), body_at, "block payload");
    if (codec == kCodecDeflate) {
        // Deflate expands at most ~1032:1, so a larger raw size is a
        // crafted header asking for an allocation of up to 4 GiB.
        if (raw_bytes > std::uint64_t{stored_bytes} * 1032 + 64)
            throw Error("block raw size exceeds deflate's maximum ratio",
                        e.offset + 4);
        try {
            raw_ = ckpt::inflateBytes(body.data(), body.size(),
                                      raw_bytes);
        } catch (const ckpt::Error &err) {
            throw Error(std::string("block inflate failed: ")
                            + err.what(),
                        body_at);
        }
    } else {
        if (stored_bytes != raw_bytes)
            throw Error("raw block sizes disagree", e.offset + 4);
        raw_ = std::move(body);
    }
    if (ckpt::fnv1a(raw_.data(), raw_.size()) != checksum)
        throw Error("block checksum mismatch (trace corrupt)",
                    body_at);
    if (raw_.size() < 8 * kCodecStateWords)
        throw Error("block payload shorter than its entry state",
                    body_at);

    std::uint64_t state[kCodecStateWords];
    for (std::size_t i = 0; i < kCodecStateWords; ++i)
        state[i] = getU64(raw_.data() + 8 * i);
    codec_.loadState(state);

    raw_pos_ = 8 * kCodecStateWords;
    raw_base_ = body_at;  // offsets reported against the stored body
    block_idx_ = block_idx;
    block_uops_ = uops;
    block_read_ = 0;
    block_valid_ = true;
}

bool
Reader::next(DynUop &out)
{
    if (pos_ >= info_.uop_count) {
        if (!loop_ || info_.uop_count == 0)
            return false;
        seekTo(0);
    }
    if (!block_valid_ || block_read_ >= block_uops_) {
        const std::size_t idx = block_valid_ ? block_idx_ + 1 : 0;
        if (idx >= index_.size())
            throw Error("record index "
                            + std::to_string(pos_)
                            + " has no covering block",
                        info_.index_offset);
        // Entering the next block sequentially: the codec state is
        // already correct, but reloading from the snapshot keeps the
        // sequential and seek paths on one code path.
        loadBlock(idx);
    }
    codec_.decode(raw_.data(), raw_.size(), raw_pos_, raw_base_, out);
    ++block_read_;
    ++pos_;
    ++produced_;
    return true;
}

void
Reader::seekTo(std::uint64_t uop_index)
{
    uop_index = std::min(uop_index, info_.uop_count);
    if (uop_index == info_.uop_count) {
        pos_ = uop_index;
        block_valid_ = false;
        return;
    }
    // Last block whose first_uop <= uop_index.
    std::size_t lo = 0, hi = index_.size();
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (index_[mid].first_uop <= uop_index)
            lo = mid;
        else
            hi = mid;
    }
    loadBlock(lo);
    pos_ = index_[lo].first_uop;
    DynUop scratch;
    while (pos_ < uop_index) {
        codec_.decode(raw_.data(), raw_.size(), raw_pos_, raw_base_,
                      scratch);
        ++block_read_;
        ++pos_;
    }
}

void
Reader::ckptSer(ckpt::Ar &ar)
{
    std::uint64_t produced = produced_;
    ar.io(produced);
    if (ar.loading()) {
        // O(block) restore: seek straight to the stream position.
        if (info_.uop_count == 0 && produced != 0)
            throw ckpt::Error("checkpointed position in an empty "
                              "trace");
        if (info_.uop_count != 0)
            seekTo(produced % info_.uop_count);
        produced_ = produced;
        if (produced > pos_ && !loop_)
            throw ckpt::Error("trace file shorter than checkpointed "
                              "position");
    }
}

std::uint64_t
verifyFile(const std::string &path)
{
    Reader r(path);
    DynUop d;
    std::uint64_t n = 0;
    while (r.next(d))
        ++n;
    if (n != r.size())
        throw Error("record count disagrees with the header ("
                        + std::to_string(n) + " decoded, header says "
                        + std::to_string(r.size()) + ")",
                    16);
    return n;
}

} // namespace emc::trace
