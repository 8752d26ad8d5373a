/**
 * @file
 * Shared harness for the paper-reproduction benches: one binary per
 * table/figure, each printing the same rows/series the paper reports
 * alongside the paper's own numbers where the paper states them.
 *
 * Run lengths default to quick settings; set EMC_SIM_UOPS to lengthen
 * (e.g. EMC_SIM_UOPS=120000 for tighter statistics).
 *
 * Observability (DESIGN.md §6): set EMC_TRACE=prefix to write a Chrome
 * trace "<prefix>.runK.json" per simulation the bench launches (K is a
 * process-wide counter, so parallel runMany() jobs never collide), and
 * EMC_TRACE_INTERVAL=N to also stream interval stats alongside each.
 */

#ifndef EMC_BENCH_BENCH_UTIL_HH
#define EMC_BENCH_BENCH_UTIL_HH

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

/** One independent simulation for runMany(). */
struct RunJob
{
    SystemConfig cfg;
    std::vector<std::string> benchmarks;
};

/** One failed runMany() job: which job and what its exception said. */
struct RunFailure
{
    std::size_t index;
    std::string what;
};

/**
 * Worker threads runMany() fans across: EMC_BENCH_THREADS if set,
 * else the hardware concurrency — except on small machines
 * (hardware_concurrency() <= 2), where jobs run inline on one thread:
 * the thread-pool overhead outweighs any overlap there, and inline
 * failures carry full backtraces.
 */
unsigned benchThreads();

/**
 * Run every job to completion, fanning independent System instances
 * across benchThreads() pool workers. Results come back indexed by
 * job — result[i] belongs to jobs[i] no matter which worker ran it or
 * in what order jobs finished, so output is deterministic and
 * byte-identical at any worker count.
 */
std::vector<StatDump> runMany(const std::vector<RunJob> &jobs);

/**
 * Like runMany(), but a job that throws does not take the bench down:
 * its failure (job index + exception message) is stored in
 * @p failures, the remaining jobs still run to completion, and the
 * failed job's slot comes back as a default-constructed StatDump.
 * The overload without @p failures (or with a null one) prints each
 * failure to stderr and throws after all jobs finish.
 *
 * Crash-resumable sweeps (DESIGN.md §9): when EMC_CKPT_DIR is set,
 * each job autosaves a full checkpoint to "<dir>/jobN.ckpt" every
 * EMC_CKPT_INTERVAL cycles (default 1000000) and writes its final
 * stats to "<dir>/jobN.stats". A rerun of the same job list resumes:
 * finished jobs load their .stats file without simulating, interrupted
 * jobs restore their .ckpt and continue. Checkpointing is
 * incompatible with EMC_TRACE on the same run (restore refuses
 * attached tracers).
 */
std::vector<StatDump> runMany(const std::vector<RunJob> &jobs,
                              std::vector<RunFailure> *failures);

/**
 * Warm-once-fork-many sweep (DESIGN.md §7): run the warmup phase under
 * @p warm_cfg once, snapshot the warmed caches / TLBs / predictors /
 * memory image, then run the measured phase of every config in
 * @p cfgs from that same snapshot. Every cfg must agree with
 * @p warm_cfg on the warmup-relevant fields (cores, cache geometry,
 * seed, workload) but may vary EMC / prefetcher / DRAM parameters —
 * exactly the fields an ablation sweeps. A config whose run throws
 * fails like a runMany() job: the others finish, then one
 * std::runtime_error names it. EMC_TRACE is ignored for these runs
 * (restore refuses tracers).
 */
std::vector<StatDump>
runManyWarmShared(const SystemConfig &warm_cfg,
                  const std::vector<std::string> &benchmarks,
                  const std::vector<SystemConfig> &cfgs);

/**
 * SMARTS-style sampled counterpart of runMany() (DESIGN.md §8): each
 * job fast-warms, then alternates detailed windows of @p p.detail uops
 * per core with fast-forwarded gaps to @p p.period, and its StatDump
 * carries the per-window means and 95% CIs as `sampled.*` keys
 * alongside the usual stats (which then cover detailed windows only).
 * Results are job-indexed like runMany(). EMC_CKPT_DIR resume applies
 * at job granularity: a finished job's "<dir>/jobN.sampled.stats"
 * sidecar is reloaded instead of re-simulating, while an interrupted
 * job restarts from scratch (the fastwarm phase has no mid-run
 * checkpoint). Failures throw like the runMany() overload without
 * a failure list.
 */
std::vector<StatDump> runManySampled(const std::vector<RunJob> &jobs,
                                     const SampleParams &p);

/**
 * Performance metric used throughout the benches: geometric mean over
 * cores of per-core IPC normalized to the same core in @p base.
 * 1.0 means "same as baseline".
 */
double relPerf(const StatDump &d, const StatDump &base, unsigned cores);

/** Print the standard bench banner. */
void banner(const std::string &item, const std::string &what,
            const std::string &paper_says);

/** Print a labelled measured-vs-paper line. */
void note(const std::string &text);

/** Four copies of one benchmark (homogeneous quad workloads). */
std::vector<std::string> homo(const std::string &name);

/** The H-i mix duplicated to eight cores (paper Section 5). */
std::vector<std::string> eightCoreMix(std::size_t h_index);

/**
 * Render a horizontal ASCII bar chart (the terminal rendition of a
 * paper figure). Bars are scaled to the maximum value; @p unit is
 * appended to the printed values.
 */
void barChart(const std::vector<std::pair<std::string, double>> &rows,
              const std::string &unit = "", unsigned width = 44);

/**
 * Render a grouped bar chart: one row per label with several series
 * values (e.g. base vs +emc), using a legend of one glyph per series.
 */
void groupedChart(const std::vector<std::string> &series,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>> &rows,
                  unsigned width = 40);

} // namespace emc::bench

#endif // EMC_BENCH_BENCH_UTIL_HH
