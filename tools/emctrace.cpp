/**
 * @file
 * emctrace — validate and summarize exported transaction traces
 * (DESIGN.md §6).
 *
 *   emctrace check     run.json          structural validation
 *   emctrace summarize run.json          phase-latency percentiles
 *   emctrace diff      a.json b.json     side-by-side phase deltas
 *
 * `summarize` rebuilds the simulator's phase histograms from the
 * trace (same bucketing, same sampling rules — see obs/phase.hh), so
 * its numbers agree exactly with the run's exported `phase.*` stats.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "obs/trace_reader.hh"

namespace
{

using namespace emc;
using namespace emc::obs;

void
usage()
{
    std::printf(
        "emctrace — transaction-trace validation and summaries\n"
        "\n"
        "  emctrace check FILE        validate structure; nonzero exit\n"
        "                             on any finding\n"
        "  emctrace summarize FILE    per-class, per-phase latency\n"
        "                             samples/avg/p50/p95/p99\n"
        "  emctrace diff A B          phase-latency deltas B vs A\n");
}

void
printCounts(const TraceSummary &s)
{
    std::printf("events    %llu (%llu meta, %llu instants)\n",
                (unsigned long long)s.counts.events,
                (unsigned long long)s.counts.meta,
                (unsigned long long)s.counts.instants);
    std::printf("spans     %llu (%llu truncated at end of run)\n",
                (unsigned long long)s.counts.spans,
                (unsigned long long)s.counts.truncated);
    std::printf("cycles    %llu .. %llu\n",
                (unsigned long long)s.counts.first_cycle,
                (unsigned long long)s.counts.last_cycle);
    for (int p = 0; p < 10; ++p) {
        if (s.point_counts[p] == 0)
            continue;
        std::printf("  %-16s %llu\n",
                    tracePointName(static_cast<TracePoint>(p)),
                    (unsigned long long)s.point_counts[p]);
    }
}

int
cmdCheck(const std::string &path)
{
    const TraceSummary s = readTrace(path);
    printCounts(s);
    for (const auto &iss : s.issues)
        std::printf("issue @%zu: %s\n", iss.line, iss.message.c_str());
    if (s.issue_total > s.issues.size())
        std::printf("... and %llu more issues\n",
                    (unsigned long long)(s.issue_total - s.issues.size()));
    std::printf("%s: %s\n", path.c_str(), s.ok ? "OK" : "INVALID");
    return s.ok ? 0 : 1;
}

void
printPhases(const PhaseAccumulator &ph)
{
    std::printf("%-12s %-8s %10s %10s %10s %10s %10s\n", "class",
                "phase", "samples", "avg", "p50", "p95", "p99");
    for (std::size_t c = 0; c < kNumPhaseClasses; ++c) {
        const auto cls = static_cast<PhaseClass>(c);
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            const Histogram &h = ph.hist(cls, p);
            if (h.samples() == 0)
                continue;
            std::printf("%-12s %-8s %10llu %10.1f %10.1f %10.1f %10.1f\n",
                        phaseClassName(cls), phaseName(p),
                        (unsigned long long)h.samples(), h.mean(),
                        h.percentile(0.50), h.percentile(0.95),
                        h.percentile(0.99));
        }
    }
}

int
cmdSummarize(const std::string &path)
{
    const TraceSummary s = readTrace(path);
    if (!s.ok) {
        std::fprintf(stderr, "%s: trace invalid; run `emctrace check`\n",
                     path.c_str());
        return 1;
    }
    printCounts(s);
    std::printf("\n");
    printPhases(s.phases);
    return 0;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b)
{
    const TraceSummary a = readTrace(path_a);
    const TraceSummary b = readTrace(path_b);
    if (!a.ok || !b.ok) {
        std::fprintf(stderr, "invalid trace: %s\n",
                     (!a.ok ? path_a : path_b).c_str());
        return 1;
    }
    std::printf("%-12s %-8s %12s %12s %9s\n", "class", "phase",
                "avg(A)", "avg(B)", "delta");
    for (std::size_t c = 0; c < kNumPhaseClasses; ++c) {
        const auto cls = static_cast<PhaseClass>(c);
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            const Histogram &ha = a.phases.hist(cls, p);
            const Histogram &hb = b.phases.hist(cls, p);
            if (ha.samples() == 0 && hb.samples() == 0)
                continue;
            const double ma = ha.mean();
            const double mb = hb.mean();
            std::printf("%-12s %-8s %12.1f %12.1f ", phaseClassName(cls),
                        phaseName(p), ma, mb);
            if (ma > 0)
                std::printf("%+8.1f%%\n", 100.0 * (mb - ma) / ma);
            else
                std::printf("%9s\n", "n/a");
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }
    if (cmd == "check" && argc == 3)
        return cmdCheck(argv[2]);
    if (cmd == "summarize" && argc == 3)
        return cmdSummarize(argv[2]);
    if (cmd == "diff" && argc == 4)
        return cmdDiff(argv[2], argv[3]);
    usage();
    return 2;
}
