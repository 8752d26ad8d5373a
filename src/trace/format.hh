/**
 * @file
 * The v2 binary uop-trace container (DESIGN.md §11).
 *
 * A v2 trace is a versioned, seekable, compressed container for
 * dynamic uop streams — the only format a trace file in or out of the
 * simulator uses; probeFile() rejects every other version. Layout, all
 * multi-byte integers little-endian:
 *
 *   header:
 *     0  char[4] "EMCT"
 *     4  u32     version = 2
 *     8  u64     header_bytes      (file offset of the first block)
 *    16  u64     uop_count         (back-patched at close)
 *    24  u64     block_count       (back-patched at close)
 *    32  u64     index_offset      (back-patched; 0 = never closed)
 *    40  u64     config_hash       (provenance)
 *    48  u64     seed              (provenance)
 *    56  u32     block_uops        (uops per full block)
 *    60  u32     flags             (bit0: blocks may be deflated)
 *    64  u32 len + bytes           workload name (provenance)
 *        u32 len + bytes           free-form meta (provenance)
 *
 *   blocks, each:
 *     u32 uop_count   u32 raw_bytes   u32 stored_bytes
 *     u8  codec       (0 raw, 1 deflate)
 *     u64 checksum    (fnv1a-64 of the raw payload)
 *     payload         (stored_bytes)
 *
 *   block raw payload: the codec entry state (16 architectural
 *   registers, previous pc/vaddr/load value — 19 u64) followed by
 *   uop_count delta/varint-encoded records (src/trace/codec.hh). A
 *   block decodes with no context from earlier blocks, which is what
 *   makes the seek index work.
 *
 *   index, at index_offset: char[8] "EMCTIDX\n", then one
 *   (u64 file_offset, u64 first_uop) pair per block.
 *
 * Readers hold one block at a time, so replay memory is O(block),
 * not O(trace).
 */

#ifndef EMC_TRACE_FORMAT_HH
#define EMC_TRACE_FORMAT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace emc::trace
{

/** Magic opening every trace file, whatever its version. */
constexpr char kMagic[4] = {'E', 'M', 'C', 'T'};
/** Container version this subsystem writes. */
constexpr std::uint32_t kVersion = 2;
/** Marker opening the block seek index. */
constexpr char kIndexMagic[8] = {'E', 'M', 'C', 'T', 'I', 'D', 'X',
                                 '\n'};
/** Uops per full block (the last block of a file may be shorter). */
constexpr std::uint32_t kDefaultBlockUops = 4096;

/** Block payload codecs. */
constexpr std::uint8_t kCodecRaw = 0;
constexpr std::uint8_t kCodecDeflate = 1;

/** Header flag: some blocks may be deflate-compressed. */
constexpr std::uint32_t kFlagDeflate = 1u << 0;

/** Fixed-size prefix of the v2 header (before the two strings). */
constexpr std::size_t kHeaderFixedBytes = 64;
/** On-disk size of a block header. */
constexpr std::size_t kBlockHeaderBytes = 4 + 4 + 4 + 1 + 8;

/**
 * A trace I/O failure: what went wrong and the file byte offset of
 * the read/write that surfaced it. Readers and writers throw this for
 * short reads/writes, checksum mismatches and malformed structure
 * instead of dying fatally, so drivers and `emctracegen verify` can
 * report and recover.
 */
class Error : public std::runtime_error
{
  public:
    Error(const std::string &what, std::uint64_t offset)
        : std::runtime_error(what + " (at byte offset "
                             + std::to_string(offset) + ")"),
          offset_(offset)
    {}

    /** File byte offset of the failing access. */
    std::uint64_t offset() const { return offset_; }

  private:
    std::uint64_t offset_;
};

/** Workload provenance carried in every v2 header. */
struct Provenance
{
    /// Benchmark-profile name the stream was generated from; drivers
    /// replaying the trace label the core with this (never guessed).
    std::string workload;
    /// Free-form recording recipe, e.g. the emctracegen command line.
    std::string meta;
    /// Hash of the generating configuration (0 when not applicable).
    std::uint64_t config_hash = 0;
    /// Generator seed of the recorded stream.
    std::uint64_t seed = 0;
};

/** Parsed v2 header. */
struct Info
{
    std::uint32_t version = 0;
    std::uint64_t uop_count = 0;
    std::uint64_t block_count = 0;
    std::uint32_t block_uops = 0;
    std::uint64_t index_offset = 0;  ///< 0 when never finalized
    std::uint64_t header_bytes = 0;
    std::uint32_t flags = 0;
    std::uint64_t file_bytes = 0;
    Provenance provenance;

    bool finalized() const { return index_offset != 0; }
};

/**
 * Probe @p path: magic, version, header fields, provenance, without
 * touching record data. Throws Error on open failure, a version other
 * than kVersion or a malformed header.
 */
Info probeFile(const std::string &path);

// ---------------------------------------------------------------
// Varint / zigzag primitives shared by the writer and reader.
// ---------------------------------------------------------------

/** Append @p v LEB128-encoded to @p out. */
inline void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/** Zigzag-map a signed delta into varint-friendly space. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1)
           ^ static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void
putZigzag(std::vector<std::uint8_t> &out, std::int64_t v)
{
    putVarint(out, zigzag(v));
}

/**
 * Decode one LEB128 varint from @p buf at @p pos (advanced past the
 * encoding). @p base is the file offset of buf[0], used only to
 * report a precise offset when the buffer ends mid-varint.
 */
inline std::uint64_t
getVarint(const std::uint8_t *buf, std::size_t size, std::size_t &pos,
          std::uint64_t base)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        if (pos >= size)
            throw Error("trace record truncated mid-varint",
                        base + pos);
        const std::uint8_t byte = buf[pos++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
        if (shift >= 64)
            throw Error("trace varint overruns 64 bits", base + pos);
    }
}

inline std::int64_t
getZigzag(const std::uint8_t *buf, std::size_t size, std::size_t &pos,
          std::uint64_t base)
{
    return unzigzag(getVarint(buf, size, pos, base));
}

} // namespace emc::trace

#endif // EMC_TRACE_FORMAT_HH
