/**
 * @file
 * The figure campaign (bench/campaign.hh, DESIGN.md §9):
 *
 *  - figures that share a job run it once, and each still renders
 *    from the same StatDump runMany() gives on its own job list
 *  - jobs that differ only in energy parameters are not merged
 *  - a figure renders the same alone as inside a larger campaign
 *  - EMC_BENCH_THREADS=1 and =4 render identical files (run under
 *    TSan by the sanitize-thread CI config)
 *  - fig19's per-phase savings total fig18's saving, mix by mix
 */

#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/campaign.hh"

using emc::StatDump;
using emc::SystemConfig;
using namespace emc::bench;

namespace
{

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 600;
    cfg.warmup_uops = 200;
    return cfg;
}

/** Figure A: the EMC off and on. Figure B: the EMC on, then a GHB
 *  run. They share the EMC-on job. */
std::vector<RunJob>
jobsA()
{
    SystemConfig emc = tinyConfig();
    emc.emc_enabled = true;
    return {{tinyConfig(), {"mcf"}}, {emc, {"mcf"}}};
}

std::vector<RunJob>
jobsB()
{
    SystemConfig emc = tinyConfig();
    emc.emc_enabled = true;
    SystemConfig ghb = tinyConfig();
    ghb.prefetch = emc::PrefetchConfig::kGhb;
    return {{emc, {"mcf"}}, {ghb, {"mcf"}}};
}

/** Two jobs that differ only in the dump-time energy parameters. */
std::vector<RunJob>
energyJobs()
{
    RunJob hot{tinyConfig(), {"mcf"}};
    hot.cfg.energy.core_static_w *= 2;
    return {{tinyConfig(), {"mcf"}}, hot};
}

/** Print every stat of every result. */
void
renderAll(const Results &res, std::FILE *out, std::FILE *)
{
    for (const RunResult &r : res)
        std::fputs(r.stats.format().c_str(), out);
}

std::string
formatAll(const std::vector<StatDump> &dumps)
{
    std::string s;
    for (const StatDump &d : dumps)
        s += d.format();
    return s;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::size_t
filesIn(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        n += e.is_regular_file() ? 1 : 0;
    return n;
}

/** Real figures that share jobs among themselves: warm-shared jobs
 *  (ablation), line-recording jobs (fig21) and plain ones. */
std::vector<const Figure *>
realFigures(const std::vector<std::string> &names)
{
    std::vector<const Figure *> figs;
    for (const std::string &n : names) {
        const Figure *f = findFigure(n);
        EXPECT_NE(f, nullptr) << n;
        if (f)
            figs.push_back(f);
    }
    return figs;
}

} // namespace

TEST(Campaign, SharedJobRunsOnceAndMatchesRunMany)
{
    const Figure a{"a", jobsA, renderAll};
    const Figure b{"b", jobsB, renderAll};

    // Each simulated job writes one trace file: three, not four.
    const std::string dir = freshDir("campaign_shared");
    const std::string traces = freshDir("campaign_shared_traces");
    setenv("EMC_TRACE", (traces + "/t").c_str(), 1);
    const CampaignPlan plan = runCampaign({&a, &b}, dir);
    unsetenv("EMC_TRACE");
    EXPECT_EQ(plan.planned, 4u);
    EXPECT_EQ(plan.distinct, 3u);
    EXPECT_EQ(filesIn(traces), 3u);

    EXPECT_EQ(slurp(dir + "/a.txt"), formatAll(runMany(jobsA())));
    EXPECT_EQ(slurp(dir + "/b.txt"), formatAll(runMany(jobsB())));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(traces);
}

TEST(Campaign, EnergyOnlyDifferenceIsNotMerged)
{
    const Figure e{"energy", energyJobs, renderAll};
    const std::string dir = freshDir("campaign_energy");
    EXPECT_EQ(runCampaign({&e}, dir).distinct, 2u);
    std::filesystem::remove_all(dir);
    const std::vector<StatDump> res = runMany(energyJobs());
    EXPECT_EQ(res[0].get("system.cycles"), res[1].get("system.cycles"));
    EXPECT_LT(res[0].get("energy.total_mj"), res[1].get("energy.total_mj"));
}

TEST(Campaign, FigureRendersTheSameAloneAndInACampaign)
{
    setenv("EMC_SIM_UOPS", "300", 1);
    const std::string alone = freshDir("campaign_alone");
    const std::string all = freshDir("campaign_all");
    runCampaign(realFigures({"fig16_rowbuffer_conflicts"}), alone);
    runCampaign(realFigures({"fig15_emc_miss_fraction",
                             "fig16_rowbuffer_conflicts",
                             "sec65_interconnect_overhead"}),
                all);
    unsetenv("EMC_SIM_UOPS");

    const std::string fig16 = slurp(alone + "/fig16_rowbuffer_conflicts.txt");
    EXPECT_NE(fig16.find("Figure 16"), std::string::npos);
    EXPECT_EQ(fig16, slurp(all + "/fig16_rowbuffer_conflicts.txt"));
    std::filesystem::remove_all(alone);
    std::filesystem::remove_all(all);
}

TEST(Campaign, ThreadCountDoesNotChangeOutput)
{
    const std::vector<std::string> names = {
        "ablation_emc_params", "fig21_prefetch_emc_overlap",
        "ext_workload_diversity", "fig16_rowbuffer_conflicts"};
    setenv("EMC_SIM_UOPS", "300", 1);
    const std::string one = freshDir("campaign_t1");
    const std::string four = freshDir("campaign_t4");
    setenv("EMC_BENCH_THREADS", "1", 1);
    runCampaign(realFigures(names), one);
    setenv("EMC_BENCH_THREADS", "4", 1);
    runCampaign(realFigures(names), four);
    unsetenv("EMC_BENCH_THREADS");
    unsetenv("EMC_SIM_UOPS");

    for (const std::string &n : names) {
        const std::string a = slurp(one + "/" + n + ".txt");
        EXPECT_GT(a.size(), 200u) << n;
        EXPECT_EQ(a, slurp(four + "/" + n + ".txt")) << n;
    }
    const std::string json = slurp(one + "/BENCH_diversity.json");
    EXPECT_NE(json.find("\"family\": \"gather\""), std::string::npos);
    EXPECT_EQ(json, slurp(four + "/BENCH_diversity.json"));
    std::filesystem::remove_all(one);
    std::filesystem::remove_all(four);
}

/** Column @p col (0-based, whitespace-split) of each "H<n>" row. */
std::map<std::string, std::string>
mixColumn(const std::string &text, std::size_t col)
{
    std::map<std::string, std::string> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.size() < 2 || line[0] != 'H' || !std::isdigit(line[1]))
            continue;
        std::istringstream words(line);
        std::vector<std::string> w;
        for (std::string x; words >> x;)
            w.push_back(x);
        if (col < w.size())
            out[w[0]] = w[col];
    }
    return out;
}

TEST(Campaign, Fig19SavingsTotalFig18Saving)
{
    setenv("EMC_SIM_UOPS", "2000", 1);
    const std::string dir = freshDir("campaign_fig18_19");
    runCampaign(realFigures({"fig18_miss_latency", "fig19_latency_savings"}),
                dir);
    unsetenv("EMC_SIM_UOPS");

    // fig18: mix core emc saved saving; fig19: mix lookup xfer queue
    // dram ret total.
    const auto saved = mixColumn(slurp(dir + "/fig18_miss_latency.txt"), 3);
    const auto total =
        mixColumn(slurp(dir + "/fig19_latency_savings.txt"), 6);
    EXPECT_GE(saved.size(), 5u);
    EXPECT_EQ(saved, total);
    std::filesystem::remove_all(dir);
}
