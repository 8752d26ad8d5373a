/**
 * @file
 * emcsweep — parameter-sweep CLI (DESIGN.md §9).
 *
 *   emcsweep --mix H4 --emc --vary emc-contexts=1,2,4 \
 *            --vary sched=batch,frfcfs
 *
 * Builds the cross-product of every --vary axis over a base config,
 * runs one job per point through bench::runMany() on the thread pool
 * (EMC_BENCH_THREADS workers) and prints one row per point. Sweeps
 * compose with the crash-resume machinery: --ckpt-dir gives each point
 * autosaves and a stats sidecar named by its config (bench::jobKey),
 * so a re-run reloads finished points and resumes interrupted ones,
 * and a different sweep sharing the directory never reads them.
 *
 * Results are job-indexed and byte-identical at any worker count.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "workload/profile.hh"

using namespace emc;

namespace
{

void
usage()
{
    std::printf(
        "emcsweep — parameter sweeps over emcsim configs\n"
        "\n"
        "workload (one of):\n"
        "  --workload a,b,...     benchmark per core (repeat last to"
        " fill)\n"
        "  --mix H1..H10          a paper Table 3 mix\n"
        "\n"
        "base config (applied to every point):\n"
        "  --cores N --dual-mc --pf P --emc --uops N --warmup N"
        " --seed N\n"
        "\n"
        "sweep axes (repeatable; cross-product of all axes):\n"
        "  --vary KEY=V1,V2,...   KEY one of: emc, pf, emc-contexts,\n"
        "                         chain-cap, indirection,"
        " emc-dcache-kb,\n"
        "                         emc-tlb, channels, ranks, sched\n"
        "\n"
        "execution:\n"
        "  --ckpt-dir DIR         crash-resume autosaves"
        " (EMC_CKPT_DIR)\n"
        "  --jsonl FILE           write final per-point stats as"
        " JSONL\n");
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end && *end == '\0' && !s.empty();
}

/** Apply one KEY=VALUE sweep assignment to @p cfg. */
bool
applyKey(SystemConfig &cfg, const std::string &key,
         const std::string &val)
{
    std::uint64_t v = 0;
    if (key == "emc") {
        if (val != "0" && val != "1")
            return false;
        cfg.emc_enabled = val == "1";
        return true;
    }
    if (key == "pf") {
        if (val == "none") cfg.prefetch = PrefetchConfig::kNone;
        else if (val == "ghb") cfg.prefetch = PrefetchConfig::kGhb;
        else if (val == "stream") cfg.prefetch = PrefetchConfig::kStream;
        else if (val == "stride")
            cfg.prefetch = PrefetchConfig::kStride;
        else return false;
        return true;
    }
    if (key == "sched") {
        if (val == "batch") cfg.sched = SchedPolicy::kBatch;
        else if (val == "frfcfs") cfg.sched = SchedPolicy::kFrFcfs;
        else return false;
        return true;
    }
    if (!parseU64(val, v))
        return false;
    if (key == "emc-contexts")
        cfg.emc.contexts = static_cast<unsigned>(v);
    else if (key == "chain-cap")
        cfg.core.chain_max_uops = static_cast<unsigned>(v);
    else if (key == "indirection")
        cfg.core.chain_max_indirection = static_cast<unsigned>(v);
    else if (key == "emc-dcache-kb")
        cfg.emc.dcache_bytes = static_cast<unsigned>(v) * 1024;
    else if (key == "emc-tlb")
        cfg.emc.tlb_entries = static_cast<unsigned>(v);
    else if (key == "channels")
        cfg.dram.channels = static_cast<unsigned>(v);
    else if (key == "ranks")
        cfg.dram.ranks_per_channel = static_cast<unsigned>(v);
    else
        return false;
    return true;
}

struct Axis
{
    std::string key;
    std::vector<std::string> values;
};

/** "a.b=1.5" with enough digits to reparse bit-exactly. */
void
writeJsonStats(std::FILE *out, const StatDump &d)
{
    std::fputc('{', out);
    bool first = true;
    for (const auto &[name, value] : d.all()) {
        std::fprintf(out, "%s\"%s\":%.17g", first ? "" : ",",
                     name.c_str(), value);
        first = false;
    }
    std::fputc('}', out);
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig base;
    base.target_uops = 20000;
    std::uint64_t warmup = 0;
    bool have_warmup = false;
    unsigned cores = 4;
    bool dual_mc = false;
    std::vector<std::string> workload;
    std::vector<Axis> axes;
    std::string jsonl_path;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--workload") {
            workload = splitCommas(need("--workload"));
        } else if (a == "--mix") {
            const std::string m = need("--mix");
            bool found = false;
            for (std::size_t h = 0; h < quadWorkloads().size(); ++h) {
                if (quadWorkloadName(h) == m) {
                    workload = quadWorkloads()[h];
                    found = true;
                }
            }
            if (!found) {
                std::fprintf(stderr, "unknown mix %s\n", m.c_str());
                return 2;
            }
        } else if (a == "--cores") {
            std::uint64_t v;
            if (!parseU64(need("--cores"), v))
                return 2;
            cores = static_cast<unsigned>(v);
        } else if (a == "--dual-mc") {
            dual_mc = true;
        } else if (a == "--emc") {
            base.emc_enabled = true;
        } else if (a == "--pf") {
            if (!applyKey(base, "pf", need("--pf")))
                return 2;
        } else if (a == "--uops") {
            if (!parseU64(need("--uops"), base.target_uops))
                return 2;
        } else if (a == "--warmup") {
            if (!parseU64(need("--warmup"), warmup))
                return 2;
            have_warmup = true;
        } else if (a == "--seed") {
            if (!parseU64(need("--seed"), base.seed))
                return 2;
        } else if (a == "--vary") {
            const std::string spec = need("--vary");
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0
                || eq + 1 >= spec.size()) {
                std::fprintf(stderr, "--vary wants KEY=V1,V2,...\n");
                return 2;
            }
            axes.push_back({spec.substr(0, eq),
                            splitCommas(spec.substr(eq + 1))});
        } else if (a == "--ckpt-dir") {
            setenv("EMC_CKPT_DIR", need("--ckpt-dir"), 1);
        } else if (a == "--jsonl") {
            jsonl_path = need("--jsonl");
        } else {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            usage();
            return 2;
        }
    }

    if (workload.empty()) {
        std::fprintf(stderr, "pick a workload (--workload or --mix)\n");
        return 2;
    }

    if (cores == 8)
        base.scaleToEightCores(dual_mc);
    else
        base.num_cores = cores;
    base.warmup_uops = have_warmup ? warmup : base.target_uops / 2;
    while (workload.size() < base.num_cores)
        workload.push_back(workload.back());

    // Cross-product of the axes, first axis slowest: a plain odometer,
    // so point order (the row order printed below) is stable.
    std::vector<bench::RunJob> jobs;
    std::vector<std::vector<std::string>> assignments;
    std::vector<std::size_t> idx(axes.size(), 0);
    while (true) {
        SystemConfig cfg = base;
        std::vector<std::string> assign;
        for (std::size_t ax = 0; ax < axes.size(); ++ax) {
            const std::string &key = axes[ax].key;
            const std::string &val = axes[ax].values[idx[ax]];
            if (!applyKey(cfg, key, val)) {
                std::fprintf(stderr, "bad sweep assignment %s=%s\n",
                             key.c_str(), val.c_str());
                return 2;
            }
            assign.push_back(key + "=" + val);
        }
        jobs.push_back({cfg, workload});
        assignments.push_back(std::move(assign));
        if (axes.empty())
            break;
        std::size_t ax = axes.size() - 1;
        bool wrapped = false;
        while (++idx[ax] >= axes[ax].values.size()) {
            idx[ax] = 0;
            if (ax == 0) {
                wrapped = true;
                break;
            }
            --ax;
        }
        if (wrapped)
            break;
    }

    std::printf("emcsweep: %zu points, %u threads\n", jobs.size(),
                bench::benchThreads());

    std::vector<StatDump> results;
    try {
        results = bench::runMany(jobs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "emcsweep: %s\n", e.what());
        return 1;
    }

    std::FILE *jsonl =
        jsonl_path.empty() ? nullptr
                           : std::fopen(jsonl_path.c_str(), "w");
    if (!jsonl_path.empty() && !jsonl) {
        std::fprintf(stderr, "emcsweep: cannot write %s\n",
                     jsonl_path.c_str());
        return 1;
    }

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::string label;
        for (const std::string &kv : assignments[j])
            label += (label.empty() ? "" : " ") + kv;
        if (label.empty())
            label = "(base)";
        const double ipc = results[j].get("system.ipc_sum");
        const double rel =
            bench::relPerf(results[j], results[0],
                           jobs[j].cfg.num_cores);
        std::printf("  point %2zu  %-40s ipc_sum=%7.3f rel=%6.3f\n",
                    j, label.c_str(), ipc, rel);
        if (jsonl) {
            std::fprintf(jsonl, "{\"job\":%zu,\"params\":{", j);
            for (std::size_t ax = 0; ax < axes.size(); ++ax) {
                const std::size_t eq = assignments[j][ax].find('=');
                std::fprintf(
                    jsonl, "%s\"%s\":\"%s\"", ax ? "," : "",
                    assignments[j][ax].substr(0, eq).c_str(),
                    assignments[j][ax].substr(eq + 1).c_str());
            }
            std::fputs("},\"stats\":", jsonl);
            writeJsonStats(jsonl, results[j]);
            std::fputs("}\n", jsonl);
        }
    }
    if (jsonl)
        std::fclose(jsonl);
    return 0;
}
