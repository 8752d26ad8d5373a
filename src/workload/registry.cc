#include "workload/registry.hh"

#include <utility>

#include "workload/profile.hh"

namespace emc
{

BuiltWorkload::BuiltWorkload(const std::string &profile,
                             std::uint64_t seed)
    : program_(profileByName(profile), mem_, seed)
{
    mem_.seal();
    base_ = mem_.base();
    mem_ = FunctionalMemory();  // its directory is not needed again
}

std::unique_ptr<FunctionalMemory>
BuiltWorkload::memory() const
{
    return std::make_unique<FunctionalMemory>(base_);
}

std::unique_ptr<SyntheticProgram>
BuiltWorkload::program(FunctionalMemory &mem) const
{
    return std::make_unique<SyntheticProgram>(program_, mem);
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry r;
    return r;
}

std::vector<std::shared_ptr<const BuiltWorkload>>
WorkloadRegistry::acquire(const std::vector<Key> &keys)
{
    WorkloadRegistry &r = instance();
    std::vector<std::shared_ptr<const BuiltWorkload>> out(keys.size());
    {
        std::lock_guard<std::mutex> lock(r.mu_);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            auto it = r.entries_.find(keys[i]);
            if (it != r.entries_.end())
                out[i] = it->second.lock();
        }
    }
    std::vector<std::shared_ptr<const BuiltWorkload>> built(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!out[i])
            out[i] = built[i] = std::make_shared<const BuiltWorkload>(
                keys[i].first, keys[i].second);
    }
    // The previous System's set, released after the lock.
    std::vector<std::shared_ptr<const BuiltWorkload>> previous;
    {
        std::lock_guard<std::mutex> lock(r.mu_);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (!built[i])
                continue;
            std::weak_ptr<const BuiltWorkload> &e = r.entries_[keys[i]];
            if (auto live = e.lock())
                out[i] = live;  // another thread built it first
            else
                e = built[i];
        }
        std::erase_if(r.entries_,
                      [](const auto &e) { return e.second.expired(); });
        previous = std::exchange(r.recent_, out);
    }
    return out;
}

} // namespace emc
