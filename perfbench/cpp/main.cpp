/**
 * @file
 * emcbench — the driver of the repo benchmark (perfbench/README.md).
 *
 * One process runs one workload as a closed loop with one client: an
 * iteration constructs, runs and dumps its Systems one after another,
 * and the next iteration starts when the previous one has ended, until
 * the requested seconds are used. The simulator is driven only through
 * public calls: the System constructor, run(), fastwarmCheckpointBytes(),
 * restoreCheckpointBytes(), dump(), and the component classes the layer
 * drives use (layers.cpp).
 *
 *   emcbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--size full|tiny] [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * is the separate traced run: iterations alternate untraced and traced
 * (spans around every public call), the layer drives run after them,
 * the per-layer metrics are reported, and the spans are written to
 * DIR/spans-NAME-seedN.json at exit. The last line of stdout is the
 * JSON summary {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/ckpt.hh"
#include "layers.hh"
#include "sim/system.hh"
#include "spans.hh"

extern char **environ;

namespace emcbench
{
namespace
{

using emc::PrefetchConfig;
using emc::StatDump;
using emc::System;
using emc::SystemConfig;
using Image = std::vector<std::uint8_t>;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr unsigned kCores = 4;  // Table 1 quad-core config

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool tiny = false;
    std::string out_dir = ".";
};

/** One workload: its cores' programs, prefetcher and run lengths. */
struct Workload
{
    std::string name;
    std::vector<std::string> mix;
    PrefetchConfig pf;          ///< prefetcher of the EMC-on config
    std::uint64_t target_uops;  ///< measured uops per core
    std::uint64_t warmup_uops;  ///< detailed, or fast-warmed (warm_sweep)
    bool warm_sweep;            ///< fast-warm once, restore per point
    const char *paper;          ///< the paper's figure for emc_speedup
};

/**
 * The three workloads; README.md says why each was chosen. Full run
 * lengths make an iteration take a few host seconds; tiny ones only
 * walk every code path, for the smoke test.
 */
Workload
workloadByName(const std::string &name, bool tiny)
{
    if (name == "quad_emc") {
        return {name, {"mcf", "sphinx3", "soplex", "libquantum"},
                PrefetchConfig::kGhb, tiny ? 1000u : 20000u,
                tiny ? 500u : 10000u, false,
                "Fig. 12: EMC +13% over GHB on quad-core mixes"};
    }
    if (name == "stream_writeback") {
        return {name, {"lbm", "lbm", "lbm", "lbm"},
                PrefetchConfig::kStream, tiny ? 2000u : 40000u,
                tiny ? 500u : 10000u, false,
                "Fig. 13: lbm ~0% (no dependent misses)"};
    }
    if (name == "warm_sweep") {
        return {name, {"mcf", "mcf", "mcf", "mcf"},
                PrefetchConfig::kGhb, tiny ? 500u : 20000u,
                tiny ? 2000u : 100000u, true,
                "Fig. 13: EMC ~+8% over each prefetcher, mcf gains most"};
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

SystemConfig
configFor(const Workload &w, std::uint64_t seed, PrefetchConfig pf,
          bool emc, bool restored)
{
    SystemConfig cfg;  // Table 1 quad-core defaults
    cfg.prefetch = pf;
    cfg.emc_enabled = emc;
    cfg.target_uops = w.target_uops;
    // A System restored from a warmup image measures from the start.
    cfg.warmup_uops = restored ? 0 : w.warmup_uops;
    cfg.seed = seed;
    return cfg;
}

/** Operations attempted and failed, with the reason of each failure. */
struct Outcome
{
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        ++failed;
        errors.push_back(why);
    }

    void
    add(const Outcome &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    }
};

/** Host times and simulated results of one iteration. */
struct Iteration
{
    double wall_s = 0;              ///< first ctor to last dump + teardown
    double setup_s = 0;             ///< summed System::System
    std::vector<double> ctor_s;     ///< each System::System
    double run_s = 0;               ///< summed System::run
    double dump_s = 0;              ///< summed System::dump
    std::uint64_t sim_uops = 0;     ///< uops the cores consumed in run()
    std::uint64_t sim_cycles = 0;   ///< cycles simulated in run()
    std::uint64_t image_bytes = 0;  ///< warm_sweep's warmup image
    std::uint64_t digest = kFnvBasis;  ///< stat_digest over every dump
    double emc_speedup = 0;
    StatDump primary;  ///< dump of the EMC-on (GHB+EMC) config
    Outcome outcome;
};

/** Seconds since @p t; moves @p t to now. */
double
lap(Clock::time_point &t)
{
    const Clock::time_point now = Clock::now();
    const double s = secondsBetween(t, now);
    t = now;
    return s;
}

/** Account one System::System of @p s seconds to @p it. */
void
addCtor(Iteration &it, double s)
{
    it.setup_s += s;
    it.ctor_s.push_back(s);
}

/** FNV-1a over every "name=value" line of @p d, continuing @p h. */
std::uint64_t
statDigest(std::uint64_t h, const StatDump &d)
{
    char buf[48];
    for (const auto &[name, value] : d.all()) {
        h = emc::ckpt::fnv1a(
            reinterpret_cast<const std::uint8_t *>(name.data()),
            name.size(), h);
        const int n = std::snprintf(buf, sizeof buf, "=%.17g\n", value);
        h = emc::ckpt::fnv1a(reinterpret_cast<const std::uint8_t *>(buf),
                             static_cast<std::size_t>(n), h);
    }
    return h;
}

/**
 * The benches' bench::relPerf: geometric mean over cores of per-core
 * IPC relative to the same core in @p base.
 */
double
relPerf(const StatDump &d, const StatDump &base)
{
    double log_sum = 0;
    for (unsigned i = 0; i < kCores; ++i) {
        const std::string key = "core" + std::to_string(i) + ".ipc";
        const double a = d.get(key);
        const double b = base.get(key);
        if (a > 0 && b > 0)
            log_sum += std::log(a / b);
    }
    return std::exp(log_sum / kCores);
}

std::uint64_t
uopsProduced(const System &sys)
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < sys.config().num_cores; ++i)
        n += sys.uopsProduced(i);
    return n;
}

/** Why @p sys did not finish properly, or "" when it did. */
std::string
finishProblem(const System &sys, const StatDump &d)
{
    const SystemConfig &cfg = sys.config();
    if (!sys.finished() || sys.cycles() >= cfg.max_cycles)
        return "max_cycles exit before every core reached its uop target";
    for (unsigned i = 0; i < cfg.num_cores; ++i) {
        const std::string key = "core" + std::to_string(i) + ".retired";
        if (d.get(key) < static_cast<double>(cfg.target_uops))
            return key + " is below the uop target";
    }
    return {};
}

/** Runs the iterations of one workload at one seed. */
class Runner
{
  public:
    Runner(const Workload &w, std::uint64_t seed, SpanRecorder &rec)
        : w_(w), seed_(seed), rec_(rec)
    {}

    SystemConfig
    config(PrefetchConfig pf, bool emc, bool restored = false) const
    {
        return configFor(w_, seed_, pf, emc, restored);
    }

    Iteration
    iterate()
    {
        Iteration it;
        Image image;
        const Clock::time_point start = Clock::now();
        {
            Span span(rec_, "iteration");
            if (w_.warm_sweep)
                sweep(it, image);
            else
                pair(it);
        }
        it.wall_s = secondsBetween(start, Clock::now());
        // Hashed after the clock stops: the image is checked, not
        // measured.
        it.image_bytes = image.size();
        it.digest = emc::ckpt::fnv1a(image.data(), image.size(), it.digest);
        return it;
    }

    /** Bytes of the workload's fast-warmed warmup image. */
    std::uint64_t
    warmImageBytes(Outcome &out) const
    {
        ++out.attempted;
        try {
            System sys(config(w_.pf, true), w_.mix);
            return sys.fastwarmCheckpointBytes().size();
        } catch (const std::exception &e) {
            out.fail(std::string("fastwarm image: ") + e.what());
            return 0;
        }
    }

    /**
     * Time extra EMC-on System constructions until @p samples (not
     * empty) holds @p want of them or the next one would end past
     * @p budget_s seconds, so a workload with few, cheap constructions
     * per iteration still reports its setup time as a median over many.
     */
    void
    moreCtorSamples(std::vector<double> &samples, std::size_t want,
                    double budget_s, Outcome &out) const
    {
        const Clock::time_point start = Clock::now();
        while (samples.size() < want
               && secondsBetween(start, Clock::now()) + samples.back()
                      < budget_s) {
            try {
                Clock::time_point t = Clock::now();
                const System sys(config(w_.pf, true), w_.mix);
                samples.push_back(lap(t));
            } catch (const std::exception &e) {
                ++out.attempted;
                out.fail(std::string("System construction: ") + e.what());
                return;
            }
        }
    }

  private:
    /** quad_emc, stream_writeback: the config without, then with, EMC. */
    void
    pair(Iteration &it)
    {
        const StatDump base = simulate(config(w_.pf, false), nullptr, it);
        it.primary = simulate(config(w_.pf, true), nullptr, it);
        it.emc_speedup = relPerf(it.primary, base);
    }

    /** warm_sweep: fast-warm once, restore into {none, GHB} x EMC. */
    void
    sweep(Iteration &it, Image &image)
    {
        ++it.outcome.attempted;
        try {
            Clock::time_point t = Clock::now();
            std::unique_ptr<System> warm;
            {
                Span span(rec_, "system.ctor");
                warm = std::make_unique<System>(config(w_.pf, true), w_.mix);
            }
            addCtor(it, lap(t));
            Span span(rec_, "fastwarm.image");
            image = warm->fastwarmCheckpointBytes();
        } catch (const std::exception &e) {
            it.outcome.fail(std::string("fastwarm image: ") + e.what());
            return;
        }
        StatDump ghb;
        for (PrefetchConfig pf :
             {PrefetchConfig::kNone, PrefetchConfig::kGhb}) {
            const StatDump off = simulate(config(pf, false, true), &image, it);
            const StatDump on = simulate(config(pf, true, true), &image, it);
            if (pf == PrefetchConfig::kGhb) {
                ghb = off;
                it.primary = on;
            }
        }
        it.emc_speedup = relPerf(it.primary, ghb);
    }

    /** Construct, (restore,) run and dump one System; check it. */
    StatDump
    simulate(const SystemConfig &cfg, const Image *image, Iteration &it)
    {
        ++it.outcome.attempted;
        try {
            Clock::time_point t = Clock::now();
            std::unique_ptr<System> sys;
            {
                Span span(rec_, "system.ctor");
                sys = std::make_unique<System>(cfg, w_.mix);
            }
            addCtor(it, lap(t));
            if (image) {
                Span span(rec_, "ckpt.restore");
                sys->restoreCheckpointBytes(*image);
            }
            const std::uint64_t uops0 = uopsProduced(*sys);
            const emc::Cycle cycles0 = sys->cycles();
            t = Clock::now();
            {
                Span span(rec_, "system.run");
                sys->run();
            }
            it.run_s += lap(t);
            it.sim_uops += uopsProduced(*sys) - uops0;
            it.sim_cycles += sys->cycles() - cycles0;
            StatDump d;
            {
                Span span(rec_, "system.dump");
                d = sys->dump();
            }
            it.dump_s += lap(t);
            const std::string problem = finishProblem(*sys, d);
            if (!problem.empty())
                it.outcome.fail(w_.name + ": " + problem);
            it.digest = statDigest(it.digest, d);
            return d;
        } catch (const std::exception &e) {
            it.outcome.fail(w_.name + ": " + e.what());
            return {};
        }
    }

    const Workload &w_;
    std::uint64_t seed_;
    SpanRecorder &rec_;
};

/** Metrics in print order, each with its unit. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        rows_.push_back({name, value, unit});
    }

    /**
     * Print one line per metric and return the JSON "metrics" object.
     * A value that is not a finite number fails the run.
     */
    std::string
    report(Outcome &out) const
    {
        std::string json = "{";
        char buf[64];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            double v = r.value;
            if (!std::isfinite(v)) {
                out.fail("metric " + r.name + " is not a finite number");
                v = 0;
            }
            std::printf("  %-26s %14.6g %s\n", r.name.c_str(), v, r.unit);
            std::snprintf(buf, sizeof buf, "%.17g", v);
            json += std::string(i ? ", \"" : "\"") + r.name
                    + "\": {\"value\": " + buf + ", \"unit\": \"" + r.unit
                    + "\"}";
        }
        return json + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Row> rows_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <class F>
double
medianOf(const std::vector<Iteration> &its, F f)
{
    std::vector<double> v;
    for (const Iteration &it : its)
        v.push_back(f(it));
    return median(std::move(v));
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

/** nproc, build type and the compile-time knobs of this build. */
std::string
hostFacts()
{
#ifdef EMC_SIM_CHECK
    const char *check = "on";
#else
    const char *check = "off";
#endif
#ifdef EMC_SIM_TRACE
    const char *trace = "on";
#else
    const char *trace = "off";
#endif
#if defined(__SANITIZE_ADDRESS__)
    const char *sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
    const char *sanitizer = "thread";
#else
    const char *sanitizer = "none";
#endif
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "nproc=%u build=%s EMC_SIM_CHECK=%s EMC_SIM_TRACE=%s "
                  "sanitizer=%s",
                  std::thread::hardware_concurrency(), EMCBENCH_BUILD_TYPE,
                  check, trace, sanitizer);
    return buf;
}

/**
 * Set environment variables that change the program under test:
 * EMC_NO_CYCLE_SKIP (System's event loop), EMC_CHAIN_DEBUG (stderr I/O
 * in the core and the EMC), EMC_SIM_UOPS (run length) and the
 * EMC_TRACE*, EMC_CKPT_* and EMC_BENCH_* harness knobs.
 */
std::vector<std::string>
refusedKnobs()
{
    static const char *const kPrefixes[] = {
        "EMC_NO_CYCLE_SKIP", "EMC_CHAIN_DEBUG", "EMC_SIM_UOPS",
        "EMC_TRACE",         "EMC_CKPT_",       "EMC_BENCH_",
    };
    std::vector<std::string> found;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        const std::string name = kv.substr(0, kv.find('='));
        for (const char *p : kPrefixes) {
            if (name.rfind(p, 0) == 0) {
                found.push_back(name);
                break;
            }
        }
    }
    return found;
}

/** Per-layer counts from the untraced dump (summed over cores). */
void
addDumpCounts(const StatDump &d, Metrics &m)
{
    const auto cores = [&d](const char *field) {
        double sum = 0;
        for (unsigned i = 0; i < kCores; ++i)
            sum += d.get("core" + std::to_string(i) + "." + field);
        return sum;
    };
    m.add("core.retired", cores("retired"), "uops");
    m.add("core.full_window_stalls", cores("full_window_stalls"), "cycles");
    m.add("core.chains_generated", cores("chains_generated"), "count");
    static const char *const kStats[][2] = {
        {"emc.chains_accepted", "count"}, {"emc.chains_completed", "count"},
        {"emc.uops_executed", "uops"},    {"emc.miss_fraction", "ratio"},
        {"emc.halts_tlb", "count"},       {"llc.demand_accesses", "count"},
        {"llc.demand_misses", "count"},   {"llc.dep_misses", "count"},
        {"prefetch.issued", "count"},     {"prefetch.useful", "count"},
        {"pred.emc.accuracy", "ratio"},   {"dram.reads", "count"},
        {"dram.writes", "count"},         {"dram.row_hits", "count"},
        {"dram.row_conflicts", "count"},  {"dram.avg_queue_wait", "cycles"},
        {"ring.data_msgs", "count"},      {"ring.control_msgs", "count"},
        {"ring.avg_latency", "cycles"},   {"lat.core_total", "cycles"},
        {"lat.emc_total", "cycles"},      {"system.cycles", "cycles"},
    };
    for (const auto &s : kStats)
        m.add(s[0], d.get(s[0]), s[1]);
}

/** The layer drives, each one attempted operation under its own span. */
void
runDrives(const Workload &w, const Options &opt, const StatDump &dump,
          SpanRecorder &rec, Metrics &m, Outcome &out)
{
    Shape shape;
    shape.cfg = configFor(w, opt.seed, w.pf, true, false);
    shape.mix = w.mix;
    shape.dump = dump;
    shape.seed = opt.seed;
    const std::uint64_t k = opt.tiny ? 100 : 1;

    const auto drive = [&](const char *name, const auto &fn) {
        ++out.attempted;
        try {
            Span span(rec, name);
            fn();
        } catch (const std::exception &e) {
            out.fail(std::string(name) + ": " + e.what());
        }
    };
    const double nan = std::nan("");
    double core = nan, dram = nan, ring = nan, evq = nan, cache = nan;
    WorkloadCost wc{nan, nan, nan};
    CkptCost cc{nan, nan, nan, nan};
    drive("drive.core", [&] { core = driveCore(shape, 200000 / k); });
    drive("drive.dram", [&] { dram = driveDram(shape, 400000 / k); });
    drive("drive.ring", [&] { ring = driveRing(shape, 1000000 / k); });
    drive("drive.evq", [&] { evq = driveEventQueue(shape, 500000 / k); });
    drive("drive.cache", [&] { cache = driveCache(shape, 2000000 / k); });
    drive("drive.workload", [&] { wc = driveWorkload(shape, 200000 / k); });
    drive("drive.ckpt", [&] { cc = driveCkpt(shape, rec); });

    m.add("core.ns_per_tick", core, "ns");
    m.add("dram.ns_per_tick", dram, "ns");
    m.add("ring.ns_per_tick", ring, "ns");
    m.add("evq.ns_per_event", evq, "ns");
    m.add("cache.ns_per_access", cache, "ns");
    m.add("workload.build_s", wc.build_s, "s");
    m.add("workload.gen_ns_per_uop", wc.gen_ns_per_uop, "ns");
    m.add("mem.footprint_words", wc.footprint_words, "words");
    m.add("fastwarm.uops_per_s", cc.fastwarm_uops_per_s, "uops/s");
    m.add("ckpt.save_s", cc.save_s, "s");
    m.add("ckpt.restore_s", cc.restore_s, "s");
    m.add("ckpt.image_bytes", cc.image_bytes, "bytes");
}

void
printSpans(const SpanRecorder &rec)
{
    std::printf("spans (traced iterations and layer drives):\n");
    std::printf("  %-18s %6s %12s %12s\n", "name", "count", "total_s",
                "self_s");
    for (const auto &[name, t] : rec.totals()) {
        std::printf("  %-18s %6u %12.6f %12.6f\n", name.c_str(), t.count,
                    t.total_s, t.self_s);
    }
}

void
printSummary(const Outcome &out, const std::string &metrics)
{
    for (const std::string &e : out.errors)
        std::printf("error: %s\n", e.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": %s}\n",
                out.failed == 0 ? "true" : "false",
                std::max(out.attempted, 1u), out.failed, metrics.c_str());
    std::fflush(stdout);
}

int
runBenchmark(const Options &opt)
{
    const Workload w = workloadByName(opt.workload, opt.tiny);
    const std::string host = hostFacts();
    std::printf("emcbench: workload=%s seed=%llu seconds=%g trace=%d "
                "size=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full");
    std::printf("host: %s\n", host.c_str());
    std::printf("mix: %s %s %s %s, prefetch %s, %llu uops/core measured "
                "after %llu uops/core of %s warmup\n",
                w.mix[0].c_str(), w.mix[1].c_str(), w.mix[2].c_str(),
                w.mix[3].c_str(),
                w.warm_sweep ? "{none,ghb}" : emc::prefetchConfigName(w.pf),
                static_cast<unsigned long long>(w.target_uops),
                static_cast<unsigned long long>(w.warmup_uops),
                w.warm_sweep ? "fast" : "detailed");

    Outcome out;
    const std::vector<std::string> knobs = refusedKnobs();
    if (!knobs.empty()) {
        out.attempted = 1;
        out.fail("refusing to run: " + knobs.front()
                 + " is set and changes the program under test");
        printSummary(out, "{}");
        return 3;
    }

    SpanRecorder rec;
    Runner runner(w, opt.seed, rec);
    std::vector<Iteration> plain, traced;
    // Taken after the first iteration: every iteration does the same
    // work, and later ones only add allocator fragmentation.
    double peak_rss_mb = 0;
    const Clock::time_point start = Clock::now();
    for (int k = 0;; ++k) {
        const bool traced_iter = opt.trace && k % 2 == 1;
        rec.setRunId(k);
        rec.enable(traced_iter);
        Iteration it = runner.iterate();
        rec.enable(false);
        if (k == 0)
            peak_rss_mb = peakRssMb();
        out.add(it.outcome);
        std::printf("iteration %d%s: wall %.4f s, setup %.4f s, run %.4f s\n",
                    k, traced_iter ? " (traced)" : "", it.wall_s, it.setup_s,
                    it.run_s);
        const double last = it.wall_s;
        (traced_iter ? traced : plain).push_back(std::move(it));
        if (out.failed > 0)
            break;
        const bool owe_traced = opt.trace && traced.empty();
        if (!owe_traced
            && secondsBetween(start, Clock::now()) + last > opt.seconds) {
            break;
        }
    }

    const Iteration &first = plain.front();
    if (out.failed == 0) {
        for (const Iteration &it : plain) {
            if (it.digest != first.digest)
                out.fail("stat_digest differs between untraced iterations");
        }
        for (const Iteration &it : traced) {
            if (it.digest != first.digest)
                out.fail("traced stat_digest differs from the untraced one");
        }
    }
    std::printf("iterations: %zu untraced, %zu traced (closed loop, one "
                "client, %.2f s)\n",
                plain.size(), traced.size(),
                secondsBetween(start, Clock::now()));
    std::printf("stat_digest: %016llx\n",
                static_cast<unsigned long long>(first.digest));
    std::printf("emc_speedup: %.4f (%+.2f%%), EMC on vs off with %s; "
                "paper %s; this model is unvalidated against hardware\n",
                first.emc_speedup, 100 * (first.emc_speedup - 1),
                emc::prefetchConfigName(w.pf), w.paper);

    Metrics m;
    if (!opt.trace) {
        const std::uint64_t ckpt_bytes =
            w.warm_sweep ? first.image_bytes : runner.warmImageBytes(out);
        m.add("wall_s", medianOf(plain, [](const Iteration &i) {
                  return i.wall_s;
              }), "s");
        // The median System::System, times the constructions of one
        // iteration.
        std::vector<double> ctors;
        for (const Iteration &i : plain)
            ctors.insert(ctors.end(), i.ctor_s.begin(), i.ctor_s.end());
        if (!ctors.empty())
            runner.moreCtorSamples(ctors, 50, 0.5, out);
        m.add("setup_s",
              median(ctors) * static_cast<double>(first.ctor_s.size()),
              "s");
        m.add("sim_uops_per_s", medianOf(plain, [](const Iteration &i) {
                  return static_cast<double>(i.sim_uops) / i.run_s;
              }), "uops/s");
        m.add("peak_rss_mb", peak_rss_mb, "MB");
        m.add("ckpt_mb", static_cast<double>(ckpt_bytes) / kMiB, "MB");
        m.add("emc_speedup", first.emc_speedup, "ratio");
    } else {
        rec.setRunId(-1);
        rec.enable(true);
        runDrives(w, opt, first.primary, rec, m, out);
        rec.enable(false);
        m.add("sim.run_s", medianOf(traced, [](const Iteration &i) {
                  return i.run_s;
              }), "s");
        m.add("sim.ns_per_cycle", medianOf(traced, [](const Iteration &i) {
                  return i.run_s * 1e9 / static_cast<double>(i.sim_cycles);
              }), "ns");
        m.add("sim.dump_s", medianOf(traced, [](const Iteration &i) {
                  return i.dump_s;
              }), "s");
        const auto wall = [](const Iteration &i) { return i.wall_s; };
        m.add("trace.overhead_s",
              medianOf(traced, wall) - medianOf(plain, wall), "s");
        addDumpCounts(first.primary, m);

        rec.finish();
        printSpans(rec);
        const std::string path = opt.out_dir + "/spans-" + w.name + "-seed"
                                 + std::to_string(opt.seed) + ".json";
        const std::string header =
            "\"workload\": \"" + w.name + "\", \"seed\": "
            + std::to_string(opt.seed) + ", \"host\": \"" + host + "\"";
        if (rec.writeJson(path, header))
            std::printf("spans written to %s\n", path.c_str());
        else
            out.fail("cannot write " + path);
    }
    std::printf("metrics:\n");
    const std::string metrics = m.report(out);
    printSummary(out, metrics);
    return out.failed == 0 ? 0 : 1;
}

/** Parse the command line. @retval false on any malformed argument. */
bool
parseArgs(int argc, char **argv, Options &opt)
{
    bool have_workload = false, have_seed = false;
    bool have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string v = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            if (v.empty() || v[0] == '-')
                return false;
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0')
                return false;
            have_seed = true;
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0))
                return false;
            have_seconds = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return false;
            opt.trace = v == "1";
            have_trace = true;
        } else if (flag == "--size") {
            if (v != "full" && v != "tiny")
                return false;
            opt.tiny = v == "tiny";
        } else if (flag == "--out-dir") {
            opt.out_dir = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_seed && have_seconds
           && have_trace;
}

} // namespace
} // namespace emcbench

int
main(int argc, char **argv)
{
    emcbench::Options opt;
    if (!emcbench::parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: emcbench --workload quad_emc|stream_writeback|"
                     "warm_sweep --seed N --seconds S --trace 0|1 "
                     "[--size full|tiny] [--out-dir DIR]\n");
        return 2;
    }
    try {
        return emcbench::runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "emcbench: %s\n", e.what());
        return 2;
    }
}
