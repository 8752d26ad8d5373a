/**
 * @file
 * In-memory span recorder for the traced benchmark run. A span has a
 * name, a start, an end, a parent and a run id (the iteration it
 * belongs to). Spans stay in memory while the benchmark runs and are
 * written once, at exit; a span's self time is its duration minus the
 * time its child spans cover.
 */

#ifndef EMCBENCH_SPANS_HH
#define EMCBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace emcbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One recorded span. */
struct SpanRecord
{
    std::string name;
    double start_s = 0;  ///< since the recorder was created
    double end_s = 0;
    int parent = -1;     ///< index of the enclosing span, -1 at the root
    int run_id = -1;     ///< iteration index, -1 outside iterations
    double self_s = 0;   ///< filled by SpanRecorder::finish()
};

/** Per-name totals over every recorded span. */
struct SpanTotal
{
    unsigned count = 0;
    double total_s = 0;
    double self_s = 0;
};

/** Records nested spans from one thread. */
class SpanRecorder
{
  public:
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void setRunId(int id) { run_id_ = id; }

    /** Open a span under the innermost open one. @return its index. */
    int open(const char *name);

    /** Close span @p index, the innermost open one. */
    void close(int index);

    /** Compute every span's self time. Call once, after the last close. */
    void finish();

    /** Count, total and self time per span name (after finish()). */
    std::map<std::string, SpanTotal> totals() const;

    /**
     * Write every span as JSON to @p path, under a "spans" key after
     * the caller's @p header members (a JSON object body fragment).
     * @retval false the file could not be written
     */
    bool writeJson(const std::string &path, const std::string &header) const;

  private:
    bool enabled_ = false;
    int run_id_ = -1;
    Clock::time_point epoch_ = Clock::now();
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/** Scoped span; records nothing while the recorder is disabled. */
class Span
{
  public:
    Span(SpanRecorder &rec, const char *name)
        : rec_(rec), index_(rec.enabled() ? rec.open(name) : -1)
    {}

    ~Span()
    {
        if (index_ >= 0)
            rec_.close(index_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder &rec_;
    int index_;
};

} // namespace emcbench

#endif // EMCBENCH_SPANS_HH
