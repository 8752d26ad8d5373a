/**
 * @file
 * The figure campaign (DESIGN.md §9): every paper table and figure,
 * ablation and extension study is a Figure — its jobs and a render
 * function over their results. bench/figures.cpp is the command line.
 */

#ifndef EMC_BENCH_CAMPAIGN_HH
#define EMC_BENCH_CAMPAIGN_HH

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

namespace emc::bench
{

using Results = std::vector<RunResult>;

/** One table or figure of the campaign. */
struct Figure
{
    /** Output stem: the figure renders into "<dir>/<name>.txt". */
    const char *name;
    /** The jobs the figure reads, in the order render() expects. */
    std::vector<RunJob> (*jobs)();
    /** Print the figure from @p res (res[i] belongs to jobs()[i]) to
     *  @p out; @p json is the artifact below, or null without one. */
    void (*render)(const Results &res, std::FILE *out, std::FILE *json);
    /** Optional machine-readable artifact written beside the text. */
    const char *json = nullptr;
};

/** The figures of each family (bench/figs_*.cpp). */
std::vector<Figure> motivationFigures();
std::vector<Figure> performanceFigures();
std::vector<Figure> mechanismFigures();
std::vector<Figure> extensionFigures();

/** Every figure, sorted by name. */
const std::vector<Figure> &allFigures();

/** The figure called @p name, or null. */
const Figure *findFigure(const std::string &name);

/** Job counts of one campaign. */
struct CampaignPlan
{
    std::size_t planned = 0;   ///< jobs the figures list
    std::size_t distinct = 0;  ///< of which distinct by jobKey()
};

/**
 * Run @p figs as one job list (each distinct job once, see runJobs()),
 * then render each figure into "<dir>/<name>.txt" (creating @p dir)
 * and its JSON
 * artifact into "<dir>/<json>". A figure's output depends only on its
 * own jobs, so it is the same whatever else is selected. Throws
 * std::runtime_error if a job fails or a file cannot be written.
 */
CampaignPlan runCampaign(const std::vector<const Figure *> &figs,
                         const std::string &dir);

} // namespace emc::bench

#endif // EMC_BENCH_CAMPAIGN_HH
