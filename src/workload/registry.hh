/**
 * @file
 * Build each synthetic workload once per process (DESIGN.md §7).
 *
 * A SyntheticProgram's memory and generator state right after
 * construction are a pure function of (profile name, generator seed),
 * which is also the pair a checkpoint's `workload` section records.
 * BuiltWorkload keeps one such build: the sealed memory and the
 * generator that built it. Every System core with the same pair gets
 * a fresh overlay on that memory and a copy of the generator, instead
 * of rebuilding both.
 */

#ifndef EMC_WORKLOAD_REGISTRY_HH
#define EMC_WORKLOAD_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mem/functional_memory.hh"
#include "workload/synthetic.hh"

namespace emc
{

/** A synthetic workload as its generator left it at construction. */
class BuiltWorkload
{
  public:
    BuiltWorkload(const std::string &profile, std::uint64_t seed);

    /** A clean overlay on the built memory. */
    std::unique_ptr<FunctionalMemory> memory() const;

    /** A generator continuing from the built state, on @p mem (an
     *  overlay from memory()). */
    std::unique_ptr<SyntheticProgram> program(FunctionalMemory &mem) const;

  private:
    /// What program_ built on; emptied once sealed into base_, since
    /// program_ is never advanced, only copied onto overlays.
    FunctionalMemory mem_;
    SyntheticProgram program_;
    std::shared_ptr<const FunctionalMemory::Base> base_;
};

/**
 * Process-wide map from (profile name, generator seed) to the live
 * BuiltWorkload, if any. Entries are held weakly, so a build lives as
 * long as some System uses it, plus the builds of the most recently
 * constructed System, which the registry holds strongly: a System
 * constructed right after another with the same mix (a config sweep)
 * shares its builds, and the extra memory is at most one System's
 * workloads. Safe to call from several threads; builds run outside
 * the lock, and of two concurrent builds of one key one is dropped.
 */
class WorkloadRegistry
{
  public:
    using Key = std::pair<std::string, std::uint64_t>;

    /** The builds of @p keys, one System's synthetic cores; they
     *  replace the previous System's as the strongly held set. */
    static std::vector<std::shared_ptr<const BuiltWorkload>>
    acquire(const std::vector<Key> &keys);

  private:
    friend struct WorkloadRegistryTestPeer;

    static WorkloadRegistry &instance();

    std::mutex mu_;  ///< guards entries_ and recent_
    std::map<Key, std::weak_ptr<const BuiltWorkload>> entries_;
    std::vector<std::shared_ptr<const BuiltWorkload>> recent_;
};

} // namespace emc

#endif // EMC_WORKLOAD_REGISTRY_HH
