/**
 * @file
 * Shared harness for the paper-reproduction benches: the Table 1
 * configs, the job engine every figure runs on, and the text
 * renderers the figures print with (bench/campaign.hh plans the
 * figures themselves).
 *
 * Run lengths default to quick settings; set EMC_SIM_UOPS to lengthen
 * (e.g. EMC_SIM_UOPS=120000 for tighter statistics).
 *
 * Observability (DESIGN.md §6): set EMC_TRACE=prefix to write a Chrome
 * trace "<prefix>.runK.json" per simulation the engine launches (K is
 * a process-wide counter, so parallel jobs never collide), and
 * EMC_TRACE_INTERVAL=N to also stream interval stats alongside each.
 */

#ifndef EMC_BENCH_BENCH_UTIL_HH
#define EMC_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace emc::bench
{

/** Default per-core uop target for bench runs (env-overridable). */
std::uint64_t defaultUops();

/** Build a Table 1 quad-core config. */
SystemConfig quadConfig(PrefetchConfig pf = PrefetchConfig::kNone,
                        bool emc = false);

/** Build a Table 1 eight-core config (single or dual MC). */
SystemConfig eightConfig(PrefetchConfig pf, bool emc, bool dual_mc);

/** Run a system to completion and collect its stats. */
StatDump run(const SystemConfig &cfg,
             const std::vector<std::string> &benchmarks);

/** One independent simulation for runJobs() / runMany(). */
struct RunJob
{
    SystemConfig cfg;
    std::vector<std::string> benchmarks;
    /**
     * Warm-shared job (DESIGN.md §7): restore the warmup image of this
     * config (built once per runJobs() call) and run only the measured
     * phase; cfg.warmup_uops is ignored. Must agree with cfg on the
     * warmup-relevant fields.
     */
    std::optional<SystemConfig> warm = std::nullopt;
};

/** What a job returns. */
struct RunResult
{
    StatDump stats;
    std::set<Addr> emc_miss_lines;  ///< when cfg.record_emc_miss_lines
    std::set<Addr> prefetch_lines;  ///< when cfg.record_prefetch_lines
};

/** One failed job: which job and what its exception said. */
struct RunFailure
{
    std::size_t index;
    std::string what;
};

/**
 * The key two jobs share exactly when they simulate the same thing:
 * ckpt::fullConfigHash of the config and benchmarks, the energy
 * parameters (dump-time only, so fullConfigHash leaves them out) and,
 * for a warm-shared job, its warm config.
 */
std::uint64_t jobKey(const RunJob &job);

/**
 * Worker threads the engine fans across: EMC_BENCH_THREADS if set,
 * else the hardware concurrency — except on small machines
 * (hardware_concurrency() <= 2), where jobs run inline on one thread:
 * the thread-pool overhead outweighs any overlap there, and inline
 * failures carry full backtraces.
 */
unsigned benchThreads();

/**
 * The job engine (DESIGN.md §9). Jobs with equal jobKey() run once;
 * the distinct set fans across benchThreads() pool workers. result[i]
 * belongs to jobs[i] whichever worker ran it and whenever it finished,
 * so output is byte-identical at any worker count. A job that throws
 * does not stop the others: with @p failures each failure (index +
 * message) is stored there and its slot is default-constructed;
 * without, they are printed to stderr and one std::runtime_error is
 * thrown once every job has finished.
 *
 * With EMC_CKPT_DIR set, a job keyed K (16 hex digits) autosaves
 * "<dir>/K.ckpt" every EMC_CKPT_INTERVAL cycles (default 1000000) and
 * leaves "<dir>/K.stats" when done; a rerun loads finished jobs from
 * their .stats and resumes interrupted ones from their .ckpt. Jobs
 * that record line sets always simulate (sidecars hold stats only).
 * EMC_TRACE does not combine with checkpoints (restore refuses
 * tracers), so warm-shared jobs are never traced.
 */
std::vector<RunResult> runJobs(const std::vector<RunJob> &jobs,
                               std::vector<RunFailure> *failures = nullptr);

/** runJobs(), keeping only each job's stats. */
std::vector<StatDump> runMany(const std::vector<RunJob> &jobs,
                              std::vector<RunFailure> *failures = nullptr);

/**
 * Performance metric used throughout the benches: geometric mean over
 * cores of per-core IPC normalized to the same core in @p base.
 * 1.0 means "same as baseline".
 */
double relPerf(const StatDump &d, const StatDump &base, unsigned cores);

/** Print the standard bench banner. */
void banner(std::FILE *out, const std::string &item,
            const std::string &what, const std::string &paper_says);

/** Print one line of text. */
void note(std::FILE *out, const std::string &text);

/**
 * The note each figure whose paper version has a Markov+stream column
 * prints in its place.
 */
inline constexpr const char *kMarkovNotModelled =
    "markov+stream: not modelled — no LLC miss line recurs in these"
    " workloads, so a Markov table never fires; its column equalled"
    " stream's (EXPERIMENTS.md)";

/** Four copies of one benchmark (homogeneous quad workloads). */
std::vector<std::string> homo(const std::string &name);

/**
 * Render a horizontal ASCII bar chart (the terminal rendition of a
 * paper figure). Bars are scaled to the maximum value; @p unit is
 * appended to the printed values.
 */
void barChart(std::FILE *out,
              const std::vector<std::pair<std::string, double>> &rows,
              const std::string &unit = "", unsigned width = 44);

/**
 * Render a grouped bar chart: one row per label with several series
 * values (e.g. base vs +emc), using a legend of one glyph per series.
 */
void groupedChart(std::FILE *out, const std::vector<std::string> &series,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>> &rows,
                  unsigned width = 40);

} // namespace emc::bench

#endif // EMC_BENCH_BENCH_UTIL_HH
