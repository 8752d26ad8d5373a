/**
 * @file
 * Interval stat streaming (DESIGN.md §6).
 *
 * A StatStreamer snapshots the stat registry every N cycles into a
 * JSONL file — one self-contained JSON object per line, carrying the
 * snapshot cycle and the full flat name -> value map — so a run's
 * stats become a time series instead of a single end-of-run
 * aggregate. The System drives it from the event loop (cycle-skip
 * aware: a skipped idle region still produces its due snapshots) and
 * writes a final snapshot when the run ends.
 */

#ifndef EMC_OBS_STREAM_HH
#define EMC_OBS_STREAM_HH

#include <cstdio>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace emc::obs
{

/** Streams periodic StatDump snapshots as JSONL. */
class StatStreamer
{
  public:
    /**
     * @param path output file (one JSON object per line)
     * @param interval cycles between snapshots (>= 1)
     */
    StatStreamer(const std::string &path, Cycle interval);

    ~StatStreamer();

    StatStreamer(const StatStreamer &) = delete;
    StatStreamer &operator=(const StatStreamer &) = delete;

    /** True if the output file opened successfully. */
    bool ok() const { return out_ != nullptr; }

    /** First cycle at/after which the next snapshot is due. */
    Cycle nextDue() const { return next_; }

    /** Write one snapshot line and advance the schedule past @p now. */
    void snapshot(Cycle now, const StatDump &d);

    /** Write a final snapshot and close the file. Idempotent. */
    void finish(Cycle now, const StatDump &d);

    /** Snapshot lines written so far. */
    std::uint64_t lines() const { return lines_; }

  private:
    void writeLine(Cycle now, const StatDump &d);

    std::FILE *out_ = nullptr;
    Cycle interval_;
    Cycle next_;
    std::uint64_t lines_ = 0;
};

} // namespace emc::obs

#endif // EMC_OBS_STREAM_HH
