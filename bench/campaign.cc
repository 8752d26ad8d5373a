#include "bench/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <unordered_set>

namespace emc::bench
{

const std::vector<Figure> &
allFigures()
{
    static const std::vector<Figure> all = [] {
        std::vector<Figure> v;
        for (auto family : {motivationFigures, performanceFigures,
                            mechanismFigures, extensionFigures}) {
            for (const Figure &f : family())
                v.push_back(f);
        }
        std::sort(v.begin(), v.end(), [](const Figure &a, const Figure &b) {
            return std::strcmp(a.name, b.name) < 0;
        });
        return v;
    }();
    return all;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &f : allFigures()) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

CampaignPlan
runCampaign(const std::vector<const Figure *> &figs, const std::string &dir)
{
    std::vector<RunJob> jobs;
    std::vector<std::size_t> first;  // figure i's jobs start here
    for (const Figure *f : figs) {
        first.push_back(jobs.size());
        for (RunJob &job : f->jobs())
            jobs.push_back(std::move(job));
    }
    first.push_back(jobs.size());
    std::unordered_set<std::uint64_t> keys;
    for (const RunJob &job : jobs)
        keys.insert(jobKey(job));
    Results res = runJobs(jobs);
    std::filesystem::create_directories(dir);

    struct Closer
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };
    using File = std::unique_ptr<std::FILE, Closer>;
    auto open = [&](const std::string &name) {
        File f(std::fopen((dir + "/" + name).c_str(), "w"));
        if (!f)
            throw std::runtime_error("cannot write " + dir + "/" + name
                                     + ": " + std::strerror(errno));
        return f;
    };
    for (std::size_t i = 0; i < figs.size(); ++i) {
        const Figure &f = *figs[i];
        const Results mine(std::make_move_iterator(res.begin() + first[i]),
                           std::make_move_iterator(res.begin()
                                                   + first[i + 1]));
        const File out = open(std::string(f.name) + ".txt");
        const File json = f.json ? open(f.json) : nullptr;
        f.render(mine, out.get(), json.get());
        if (std::fflush(out.get()) != 0
            || (json && std::fflush(json.get()) != 0))
            throw std::runtime_error("cannot write " + dir + "/" + f.name);
    }
    return {jobs.size(), keys.size()};
}

} // namespace emc::bench
