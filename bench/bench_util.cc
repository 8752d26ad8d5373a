#include "bench/bench_util.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "ckpt/ckpt.hh"
#include "common/thread_pool.hh"
#include "workload/profile.hh"

namespace emc::bench
{

namespace
{

/**
 * Apply the EMC_TRACE / EMC_TRACE_INTERVAL env overrides (DESIGN.md
 * §6) to one run's config. The engine launches many Systems, some
 * concurrently, so each traced run gets a distinct
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

/** Warm images of one runJobs() call, built once per warm config. */
struct WarmImage
{
    std::once_flag once;
    std::vector<std::uint8_t> bytes;
};

using WarmImages = std::map<std::uint64_t, WarmImage>;

std::uint64_t
warmKey(const RunJob &job)
{
    return ckpt::fullConfigHash(*job.warm, job.benchmarks);
}

/**
 * One distinct job under the crash-resume protocol (runJobs()): reuse
 * its .stats sidecar, else restore its autosave or its warm image, run
 * with autosave, and leave the sidecar for the next rerun.
 */
RunResult
runJob(const RunJob &job, WarmImages &images)
{
    SystemConfig cfg = job.cfg;
    if (job.warm)
        cfg.warmup_uops = 0;
    else
        applyTraceEnv(cfg);
    const bool records =
        cfg.record_emc_miss_lines || cfg.record_prefetch_lines;
    const char *dir = records ? nullptr : std::getenv("EMC_CKPT_DIR");
    if (dir && !*dir)
        dir = nullptr;

    std::string base;
    if (dir) {
        char key[17];
        std::snprintf(key, sizeof key, "%016llx",
                      static_cast<unsigned long long>(jobKey(job)));
        base = std::string(dir) + "/" + key;
        RunResult cached;
        if (loadStatsFile(base + ".stats", cached.stats))
            return cached;
    }

    System sys(cfg, job.benchmarks);
    if (dir && std::filesystem::exists(base + ".ckpt")) {
        sys.restoreCheckpoint(base + ".ckpt");
    } else if (job.warm) {
        WarmImage &img = images.at(warmKey(job));
        std::call_once(img.once, [&] {
            img.bytes =
                System(*job.warm, job.benchmarks).warmupCheckpointBytes();
        });
        sys.restoreCheckpointBytes(img.bytes);
    }
    if (dir) {
        Cycle interval = 1000000;
        if (const char *iv = std::getenv("EMC_CKPT_INTERVAL"))
            interval = std::strtoull(iv, nullptr, 10);
        sys.setAutosave(base + ".ckpt", interval);
    }
    sys.run();
    RunResult r{sys.dump(), sys.emcMissLines(), sys.prefetchLines()};
    if (dir)
        writeStatsFile(base + ".stats", r.stats);
    return r;
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
    // A 1-thread ThreadPool runs jobs inline (see the header).
    if (std::getenv("EMC_BENCH_THREADS") != nullptr)
        return ThreadPool::defaultThreads();
    if (std::thread::hardware_concurrency() <= 2)
        return 1;
    return ThreadPool::defaultThreads();
}

std::uint64_t
jobKey(const RunJob &job)
{
    static_assert(std::is_trivially_copyable_v<EnergyParams>);
    std::uint64_t h[2] = {0, 0};
    if (job.warm) {
        SystemConfig cfg = job.cfg;
        cfg.warmup_uops = 0;  // a warm-shared job never runs its own
        h[0] = ckpt::fullConfigHash(cfg, job.benchmarks);
        h[1] = warmKey(job);
    } else {
        h[0] = ckpt::fullConfigHash(job.cfg, job.benchmarks);
    }
    return ckpt::fnv1a(
        reinterpret_cast<const std::uint8_t *>(&job.cfg.energy),
        sizeof job.cfg.energy,
        ckpt::fnv1a(reinterpret_cast<const std::uint8_t *>(h), sizeof h));
}

std::vector<RunResult>
runJobs(const std::vector<RunJob> &jobs,
        std::vector<RunFailure> *failures)
{
    // Plan: the first job with each key is the one that runs; slot[i]
    // is the distinct run job i reads its result from.
    std::vector<const RunJob *> distinct;
    std::vector<std::size_t> slot(jobs.size());
    std::unordered_map<std::uint64_t, std::size_t> by_key;
    WarmImages images;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto [it, fresh] =
            by_key.try_emplace(jobKey(jobs[i]), distinct.size());
        if (fresh) {
            distinct.push_back(&jobs[i]);
            if (jobs[i].warm)
                images.try_emplace(warmKey(jobs[i]));
        }
        slot[i] = it->second;
    }

    std::vector<RunResult> ran(distinct.size());
    std::vector<std::optional<std::string>> error(distinct.size());
    {
        ThreadPool pool(benchThreads());
        for (std::size_t d = 0; d < distinct.size(); ++d) {
            pool.submit([&, d] {
                try {
                    ran[d] = runJob(*distinct[d], images);
                } catch (const std::exception &e) {
                    error[d] = e.what();
                } catch (...) {
                    error[d] = "unknown exception";
                }
            });
        }
        pool.waitAll();
    }

    std::vector<RunResult> results(jobs.size());
    std::vector<RunFailure> fails;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (error[slot[i]])
            fails.push_back({i, *error[slot[i]]});
        else
            results[i] = ran[slot[i]];
    }
    if (failures) {
        *failures = std::move(fails);
    } else if (!fails.empty()) {
        for (const RunFailure &f : fails) {
            std::fprintf(stderr, "runMany: job %zu failed: %s\n",
                         f.index, f.what.c_str());
        }
        throw std::runtime_error(
            "runMany: " + std::to_string(fails.size()) + " of "
            + std::to_string(jobs.size()) + " jobs failed (job "
            + std::to_string(fails.front().index) + ": "
            + fails.front().what + ")");
    }
    return results;
}

std::vector<StatDump>
runMany(const std::vector<RunJob> &jobs,
        std::vector<RunFailure> *failures)
{
    std::vector<StatDump> stats;
    for (RunResult &r : runJobs(jobs, failures))
        stats.push_back(std::move(r.stats));
    return stats;
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
banner(std::FILE *out, const std::string &item, const std::string &what,
       const std::string &paper_says)
{
    const char *rule =
        "================================================================\n";
    std::fputs(rule, out);
    std::fprintf(out, "%s — %s\n", item.c_str(), what.c_str());
    if (!paper_says.empty())
        std::fprintf(out, "paper: %s\n", paper_says.c_str());
    std::fprintf(out, "uops/core: %llu (set EMC_SIM_UOPS to lengthen)\n",
                 static_cast<unsigned long long>(defaultUops()));
    std::fputs(rule, out);
}

void
note(std::FILE *out, const std::string &text)
{
    std::fprintf(out, "%s\n", text.c_str());
}

std::vector<std::string>
homo(const std::string &name)
{
    return {name, name, name, name};
}

void
barChart(std::FILE *out,
         const std::vector<std::pair<std::string, double>> &rows,
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
        std::fprintf(out, "  %-14s |", label.c_str());
        for (unsigned i = 0; i < n; ++i)
            std::fprintf(out, "#");
        std::fprintf(out, "%*s %.2f%s\n", static_cast<int>(width - n + 1),
                    "", v, unit.c_str());
    }
}

void
groupedChart(std::FILE *out, const std::vector<std::string> &series,
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
    std::fprintf(out, "  legend:");
    for (std::size_t s = 0; s < series.size(); ++s)
        std::fprintf(out, "  %c %s", glyphs[s % sizeof(glyphs)],
                    series[s].c_str());
    std::fprintf(out, "\n");
    for (const auto &[label, vs] : rows) {
        for (std::size_t s = 0; s < vs.size(); ++s) {
            const unsigned n = static_cast<unsigned>(
                width * (vs[s] / max) + 0.5);
            std::fprintf(out, "  %-8s %c |", s == 0 ? label.c_str() : "",
                        glyphs[s % sizeof(glyphs)]);
            for (unsigned i = 0; i < n; ++i)
                std::fprintf(out, "%c", glyphs[s % sizeof(glyphs)]);
            std::fprintf(out, "%*s %.3f\n", static_cast<int>(width - n + 1),
                        "", vs[s]);
        }
    }
}

} // namespace emc::bench
