/**
 * @file
 * Streaming v2 trace reader (format.hh has the container layout).
 *
 * The reader conforms to TraceSource, holds exactly one decoded-from
 * block in memory (O(block), never O(trace) — multi-billion-uop
 * traces replay without loading), and uses the block seek index for
 * O(block) positioning: checkpoint restore and fast-forward skip
 * straight to a uop index instead of replaying the file. Every
 * structural problem — short read, bad magic, checksum mismatch,
 * truncation — surfaces as trace::Error with the failing byte offset.
 */

#ifndef EMC_TRACE_READER_HH
#define EMC_TRACE_READER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "isa/trace.hh"
#include "trace/codec.hh"
#include "trace/format.hh"

namespace emc::trace
{

/** Replays a v2 container file as a TraceSource. */
class Reader : public TraceSource
{
  public:
    /**
     * Open and validate @p path: header, index presence, index magic.
     * @param loop restart from the beginning when exhausted
     * Throws Error on anything structurally wrong.
     */
    explicit Reader(const std::string &path, bool loop = false);
    ~Reader() override;

    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    bool next(DynUop &out) override;
    std::uint64_t produced() const override { return produced_; }

    /** O(block) restore: seeks instead of replaying the stream. */
    void ckptSer(ckpt::Ar &ar) override;

    /** Total records in the file. */
    std::uint64_t size() const { return info_.uop_count; }

    /** Header fields and provenance. */
    const Info &info() const { return info_; }

    /**
     * Position the stream so the next next() yields record
     * @p uop_index (clamped to [0, size()]): binary-search the block
     * index, load that block, decode-and-discard within it.
     */
    void seekTo(std::uint64_t uop_index);

  private:
    void readRaw(void *bytes, std::size_t n, std::uint64_t at,
                 const char *what);
    void loadBlock(std::size_t block_idx);

    std::FILE *file_ = nullptr;
    std::string path_;
    Info info_;
    bool loop_;

    struct IndexEntry
    {
        std::uint64_t offset;
        std::uint64_t first_uop;
    };
    std::vector<IndexEntry> index_;

    // Current block (raw payload bytes + decode cursor).
    std::vector<std::uint8_t> raw_;
    std::size_t raw_pos_ = 0;        ///< cursor into raw_
    std::uint64_t raw_base_ = 0;     ///< file offset raw_[0] came from
    std::size_t block_idx_ = 0;      ///< index of the loaded block
    std::uint32_t block_uops_ = 0;   ///< records in the loaded block
    std::uint32_t block_read_ = 0;   ///< records consumed from it
    bool block_valid_ = false;

    Codec codec_;
    std::uint64_t pos_ = 0;       ///< absolute next-record index
    std::uint64_t produced_ = 0;  ///< total records handed out
};

/**
 * Walk every block of a v2 file end to end: validate the header,
 * index, per-block checksums, record encodings and count agreement.
 * Returns the number of records decoded; throws trace::Error (with
 * byte offset) on the first structural problem. Backs
 * `emctracegen verify`.
 */
std::uint64_t verifyFile(const std::string &path);

} // namespace emc::trace

#endif // EMC_TRACE_READER_HH
