/**
 * @file
 * Reader side of the trace subsystem: a dependency-free JSON parser
 * plus validation and summarization of exported Chrome trace files.
 * Shared by the tools/emctrace CLI and tests/test_trace.cpp so both
 * apply identical rules; summarization feeds the same
 * PhaseAccumulator the simulator uses, which is what makes
 * `emctrace summarize` agree exactly with the exported `phase.*`
 * statistics.
 */

#ifndef EMC_OBS_TRACE_READER_HH
#define EMC_OBS_TRACE_READER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase.hh"
#include "obs/trace.hh"

namespace emc::obs
{

/** A parsed JSON value (minimal DOM; enough for trace events). */
struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    /** Object member lookup (nullptr if absent / not an object). */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key as a number, or @p dflt. */
    double numberOr(const std::string &key, double dflt) const;

    /** Member @p key as a string, or @p dflt. */
    std::string stringOr(const std::string &key,
                         const std::string &dflt) const;
};

/**
 * Parse @p text as one JSON value.
 * @return true on success; on failure @p err describes the problem.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &err);

/** One validation finding (line is 1-based in the trace file). */
struct TraceIssue
{
    std::size_t line = 0;
    std::string message;
};

/** Aggregate counts over one trace file. */
struct TraceCounts
{
    std::uint64_t events = 0;     ///< all trace events incl. metadata
    std::uint64_t meta = 0;       ///< "M" metadata records
    std::uint64_t spans = 0;      ///< lifecycle spans ("b" events)
    std::uint64_t truncated = 0;  ///< spans force-closed at end of run
    std::uint64_t instants = 0;   ///< "i" instants (row_act, ...)
    Cycle first_cycle = 0;
    Cycle last_cycle = 0;
};

/**
 * Result of reading a trace: counts, issues, and (optionally) the
 * phase histograms rebuilt from the complete, non-truncated,
 * non-prefetch, non-store lifecycle spans whose own read DRAM
 * serviced (a `dram_data` annotation).
 */
struct TraceSummary
{
    bool ok = false;  ///< parsed and structurally valid
    TraceCounts counts;
    std::vector<TraceIssue> issues;    ///< first max_issues findings
    std::uint64_t issue_total = 0;     ///< all findings, incl. dropped
    PhaseAccumulator phases;
    /// Per-point event totals, keyed by tracePointName order.
    std::uint64_t point_counts[kNumTracePoints] = {};
};

/**
 * Read, validate and summarize the Chrome trace at @p path.
 *
 * Validation: the file parses line by line as trace_event JSON; span
 * events ("b"/"n"/"e", cat "txn") are well-formed per id (open
 * before annotate/close, close exactly once, all on one track,
 * cycles monotone within the span) and globally monotone in file
 * order. Issues beyond @p max_issues are counted but not stored.
 */
TraceSummary readTrace(const std::string &path,
                       std::size_t max_issues = 20);

} // namespace emc::obs

#endif // EMC_OBS_TRACE_READER_HH
