/**
 * @file
 * figures — regenerate the paper's tables and figures (DESIGN.md §9).
 *
 *   figures [--list] [--out DIR] [NAME...]
 *
 * Plans the named figures (all of them when none is named) as one job
 * list, runs each distinct job once on EMC_BENCH_THREADS workers and
 * writes each figure to "DIR/NAME.txt" (default DIR: results), plus
 * the JSON artifacts of the extension studies. Job counts and the
 * wall-clock go to stderr; the figure files are byte-identical at any
 * worker count.
 */

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench/campaign.hh"

int
main(int argc, char **argv)
{
    using namespace emc::bench;

    std::string dir = "results";
    std::vector<const Figure *> figs;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list") {
            for (const Figure &f : allFigures())
                std::printf("%s\n", f.name);
            return 0;
        } else if (a == "--out" && i + 1 < argc) {
            dir = argv[++i];
        } else if (const Figure *f = findFigure(a)) {
            figs.push_back(f);
        } else {
            std::fprintf(stderr, "usage: figures [--list] [--out DIR] "
                                 "[NAME...]\nfigures: unknown figure or "
                                 "option '%s' (--list names them)\n",
                         a.c_str());
            return 2;
        }
    }
    if (figs.empty()) {
        for (const Figure &f : allFigures())
            figs.push_back(&f);
    }

    const auto t0 = std::chrono::steady_clock::now();
    try {
        const CampaignPlan plan = runCampaign(figs, dir);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        std::fprintf(stderr,
                     "figures: %zu figures, %zu jobs planned, %zu "
                     "distinct, %u threads, %.1f s -> %s/\n",
                     figs.size(), plan.planned, plan.distinct,
                     benchThreads(), wall.count(), dir.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "figures: %s\n", e.what());
        return 1;
    }
    return 0;
}
