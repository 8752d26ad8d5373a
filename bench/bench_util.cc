#include "bench/bench_util.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hh"
#include "workload/profile.hh"

namespace emc::bench
{

namespace
{

/**
 * Apply the EMC_TRACE / EMC_TRACE_INTERVAL env overrides (DESIGN.md
 * §6) to one run's config. Bench binaries launch many Systems — some
 * concurrently via runMany() — so each traced run gets a distinct
 * "<EMC_TRACE>.runK.json" path from a process-wide counter.
 */
void
applyTraceEnv(SystemConfig &cfg)
{
    static std::atomic<unsigned> next_run{0};
    const char *prefix = std::getenv("EMC_TRACE");
    if (!prefix || !*prefix || !cfg.trace_path.empty())
        return;
    const unsigned k = next_run.fetch_add(1);
    cfg.trace_path =
        std::string(prefix) + ".run" + std::to_string(k) + ".json";
    if (const char *iv = std::getenv("EMC_TRACE_INTERVAL"))
        cfg.trace_interval = std::strtoull(iv, nullptr, 10);
}

/**
 * Stats sidecar files for crash-resumable sweeps: "name value" rows,
 * %.17g so a reloaded dump is bit-identical to the original doubles.
 */
bool
loadStatsFile(const std::string &path, StatDump &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos || space == 0)
            return false;
        char *end = nullptr;
        const double v = std::strtod(line.c_str() + space + 1, &end);
        if (!end || *end != '\0')
            return false;
        out.put(line.substr(0, space), v);
    }
    return true;
}

void
writeStatsFile(const std::string &path, const StatDump &d)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out)
            throw std::runtime_error("cannot write " + tmp);
        char buf[64];
        for (const auto &[name, value] : d.all()) {
            std::snprintf(buf, sizeof buf, "%.17g", value);
            out << name << ' ' << buf << '\n';
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot rename " + tmp);
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Non-empty env var, or nullptr. */
const char *
envOr(const char *name)
{
    const char *v = std::getenv(name);
    return (v && *v) ? v : nullptr;
}

/**
 * One runMany() job, honoring the crash-resume protocol: load the
 * job's .stats sidecar if a previous sweep already finished it,
 * otherwise restore its autosaved checkpoint (if any), run with
 * periodic autosave to "<EMC_CKPT_DIR>/jobN.ckpt", and leave the
 * sidecar behind for the next rerun.
 */
StatDump
runJob(const RunJob &job, std::size_t index)
{
    const char *dir = envOr("EMC_CKPT_DIR");
    if (!dir)
        return run(job.cfg, job.benchmarks);

    SystemConfig cfg = job.cfg;
    applyTraceEnv(cfg);

    const std::string base =
        std::string(dir) + "/job" + std::to_string(index);
    StatDump cached;
    if (loadStatsFile(base + ".stats", cached))
        return cached;

    Cycle interval = 1000000;
    if (const char *iv = std::getenv("EMC_CKPT_INTERVAL"))
        interval = std::strtoull(iv, nullptr, 10);

    System sys(cfg, job.benchmarks);
    const std::string ckpt = base + ".ckpt";
    if (fileExists(ckpt))
        sys.restoreCheckpoint(ckpt);
    sys.setAutosave(ckpt, interval);
    sys.run();
    StatDump d = sys.dump();
    writeStatsFile(base + ".stats", d);
    return d;
}

/**
 * One runManySampled() job with sidecar-granular resume: a finished
 * job's "<EMC_CKPT_DIR>/jobN.sampled.stats" is reloaded instead of
 * re-simulating; an *interrupted* sampled job restarts from scratch
 * (the fastwarm phase has no mid-run checkpoint), so resume here is
 * job-granular, not cycle-granular.
 */
StatDump
runSampledJob(const RunJob &job, const SampleParams &p,
              std::size_t index)
{
    std::string sidecar;
    if (const char *dir = envOr("EMC_CKPT_DIR")) {
        sidecar = std::string(dir) + "/job" + std::to_string(index)
                  + ".sampled.stats";
        StatDump cached;
        if (loadStatsFile(sidecar, cached))
            return cached;
    }
    System sys(job.cfg, job.benchmarks);
    sys.runSampled(p);
    StatDump d = sys.dump();
    if (!sidecar.empty())
        writeStatsFile(sidecar, d);
    return d;
}

/**
 * The sweep engine behind every runMany*() entry point: run job(i)
 * for each i in [0, n) on benchThreads() pool workers, result i in
 * slot i whatever order the jobs finish in. A job that throws leaves
 * its slot default-constructed and does not stop the others. The
 * failures, sorted by job index, go to @p failures; when that is
 * null, each is printed to stderr and, after every job has finished,
 * one std::runtime_error names the count and the first failed job.
 */
std::vector<StatDump>
runPool(const char *who, std::size_t n,
        const std::function<StatDump(std::size_t)> &job,
        std::vector<RunFailure> *failures = nullptr)
{
    std::vector<StatDump> results(n);
    std::vector<RunFailure> failed;
    std::mutex mu;
    ThreadPool pool(benchThreads());
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            try {
                results[i] = job(i);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mu);
                failed.push_back({i, e.what()});
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                failed.push_back({i, "unknown exception"});
            }
        });
    }
    pool.waitAll();
    std::sort(failed.begin(), failed.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  return a.index < b.index;
              });
    if (failures) {
        *failures = std::move(failed);
    } else if (!failed.empty()) {
        for (const RunFailure &f : failed) {
            std::fprintf(stderr, "%s: job %zu failed: %s\n", who,
                         f.index, f.what.c_str());
        }
        throw std::runtime_error(
            std::string(who) + ": " + std::to_string(failed.size())
            + " of " + std::to_string(n) + " jobs failed (job "
            + std::to_string(failed.front().index) + ": "
            + failed.front().what + ")");
    }
    return results;
}

} // namespace

std::uint64_t
defaultUops()
{
    return targetUopsFromEnv(20000);
}

SystemConfig
quadConfig(PrefetchConfig pf, bool emc)
{
    SystemConfig cfg;
    cfg.prefetch = pf;
    cfg.emc_enabled = emc;
    cfg.target_uops = defaultUops();
    cfg.warmup_uops = defaultUops() / 2;
    return cfg;
}

SystemConfig
eightConfig(PrefetchConfig pf, bool emc, bool dual_mc)
{
    SystemConfig cfg;
    cfg.scaleToEightCores(dual_mc);
    cfg.prefetch = pf;
    cfg.emc_enabled = emc;
    cfg.target_uops = defaultUops();
    cfg.warmup_uops = defaultUops() / 2;
    return cfg;
}

StatDump
run(const SystemConfig &cfg, const std::vector<std::string> &benchmarks)
{
    SystemConfig traced_cfg = cfg;
    applyTraceEnv(traced_cfg);
    System sys(traced_cfg, benchmarks);
    sys.run();
    return sys.dump();
}

unsigned
benchThreads()
{
    // An explicit EMC_BENCH_THREADS always wins. Otherwise fall back
    // to inline (single-thread) execution on machines with <= 2
    // hardware threads — pool overhead and memory pressure outweigh
    // any overlap there, and a 1-thread ThreadPool runs jobs inline.
    if (std::getenv("EMC_BENCH_THREADS") != nullptr)
        return ThreadPool::defaultThreads();
    if (std::thread::hardware_concurrency() <= 2)
        return 1;
    return ThreadPool::defaultThreads();
}

std::vector<StatDump>
runMany(const std::vector<RunJob> &jobs,
        std::vector<RunFailure> *failures)
{
    return runPool(
        "runMany", jobs.size(),
        [&jobs](std::size_t i) { return runJob(jobs[i], i); }, failures);
}

std::vector<StatDump>
runMany(const std::vector<RunJob> &jobs)
{
    return runMany(jobs, nullptr);
}

std::vector<StatDump>
runManySampled(const std::vector<RunJob> &jobs, const SampleParams &p)
{
    return runPool("runManySampled", jobs.size(),
                   [&jobs, &p](std::size_t i) {
                       return runSampledJob(jobs[i], p, i);
                   });
}

std::vector<StatDump>
runManyWarmShared(const SystemConfig &warm_cfg,
                  const std::vector<std::string> &benchmarks,
                  const std::vector<SystemConfig> &cfgs)
{
    const std::vector<std::uint8_t> warm =
        System(warm_cfg, benchmarks).warmupCheckpointBytes();
    return runPool("runManyWarmShared", cfgs.size(), [&](std::size_t i) {
        SystemConfig cfg = cfgs[i];
        cfg.warmup_uops = 0;
        System sys(cfg, benchmarks);
        sys.restoreCheckpointBytes(warm);
        sys.run();
        return sys.dump();
    });
}

double
relPerf(const StatDump &d, const StatDump &base, unsigned cores)
{
    double log_sum = 0;
    for (unsigned i = 0; i < cores; ++i) {
        const std::string key = "core" + std::to_string(i) + ".ipc";
        const double a = d.get(key);
        const double b = base.get(key);
        if (a > 0 && b > 0)
            log_sum += std::log(a / b);
    }
    return std::exp(log_sum / cores);
}

void
banner(const std::string &item, const std::string &what,
       const std::string &paper_says)
{
    std::printf("================================================================\n");
    std::printf("%s — %s\n", item.c_str(), what.c_str());
    if (!paper_says.empty())
        std::printf("paper: %s\n", paper_says.c_str());
    std::printf("uops/core: %llu (set EMC_SIM_UOPS to lengthen)\n",
                static_cast<unsigned long long>(defaultUops()));
    std::printf("================================================================\n");
}

void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

std::vector<std::string>
homo(const std::string &name)
{
    return {name, name, name, name};
}

void
barChart(const std::vector<std::pair<std::string, double>> &rows,
         const std::string &unit, unsigned width)
{
    double max = 0;
    for (const auto &[label, v] : rows)
        max = std::max(max, v);
    if (max <= 0)
        max = 1;
    for (const auto &[label, v] : rows) {
        const unsigned n = static_cast<unsigned>(
            width * (v / max) + 0.5);
        std::printf("  %-14s |", label.c_str());
        for (unsigned i = 0; i < n; ++i)
            std::printf("#");
        std::printf("%*s %.2f%s\n", static_cast<int>(width - n + 1),
                    "", v, unit.c_str());
    }
}

void
groupedChart(const std::vector<std::string> &series,
             const std::vector<std::pair<std::string,
                                         std::vector<double>>> &rows,
             unsigned width)
{
    static const char glyphs[] = {'#', '=', '+', ':', '.'};
    double max = 0;
    for (const auto &[label, vs] : rows) {
        for (double v : vs)
            max = std::max(max, v);
    }
    if (max <= 0)
        max = 1;
    std::printf("  legend:");
    for (std::size_t s = 0; s < series.size(); ++s)
        std::printf("  %c %s", glyphs[s % sizeof(glyphs)],
                    series[s].c_str());
    std::printf("\n");
    for (const auto &[label, vs] : rows) {
        for (std::size_t s = 0; s < vs.size(); ++s) {
            const unsigned n = static_cast<unsigned>(
                width * (vs[s] / max) + 0.5);
            std::printf("  %-8s %c |", s == 0 ? label.c_str() : "",
                        glyphs[s % sizeof(glyphs)]);
            for (unsigned i = 0; i < n; ++i)
                std::printf("%c", glyphs[s % sizeof(glyphs)]);
            std::printf("%*s %.3f\n", static_cast<int>(width - n + 1),
                        "", vs[s]);
        }
    }
}

std::vector<std::string>
eightCoreMix(std::size_t h_index)
{
    const auto &mix = quadWorkloads().at(h_index);
    std::vector<std::string> out = mix;
    out.insert(out.end(), mix.begin(), mix.end());
    return out;
}

} // namespace emc::bench
