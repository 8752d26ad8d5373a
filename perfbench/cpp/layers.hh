/**
 * @file
 * Layer drives of the traced benchmark run. Each drive exercises one
 * public component API on its own, with inputs shaped from the
 * workload's own untraced stat dump (arrival rates, read/write mix,
 * hit ratios, latencies) and drawn from the benchmark seed, and
 * reports host time per unit of that layer's work. Inputs are
 * generated before the clock starts.
 */

#ifndef EMCBENCH_LAYERS_HH
#define EMCBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/config.hh"

namespace emcbench
{

class SpanRecorder;

/** What every drive takes from the workload. */
struct Shape
{
    emc::SystemConfig cfg;         ///< EMC-on config, warmup_uops > 0
    std::vector<std::string> mix;  ///< one profile name per core
    emc::StatDump dump;            ///< that config's untraced dump
    std::uint64_t seed = 0;        ///< benchmark seed
};

/** Core::tick behind a fixed-latency stub CorePort. @return ns/tick. */
double driveCore(const Shape &s, std::uint64_t ticks);

/** DramChannel::enqueue/tick of one channel. @return ns per tick. */
double driveDram(const Shape &s, std::uint64_t ticks);

/** Ring::send/tick of the control and data rings. @return ns/tick. */
double driveRing(const Shape &s, std::uint64_t ticks);

/** CalendarQueue::push/popUpTo. @return ns per event. */
double driveEventQueue(const Shape &s, std::uint64_t events);

/** LLC-slice-geometry Cache::access, insert on miss. @return ns. */
double driveCache(const Shape &s, std::uint64_t accesses);

/** Workload construction and uop generation, summed over the cores. */
struct WorkloadCost
{
    double build_s = 0;          ///< SyntheticProgram constructors
    double gen_ns_per_uop = 0;   ///< SyntheticProgram::next
    double footprint_words = 0;  ///< functional-memory words after build
};

WorkloadCost driveWorkload(const Shape &s, std::uint64_t gen_uops);

/** Fast-forward, full-checkpoint save and restore of the workload. */
struct CkptCost
{
    double fastwarm_uops_per_s = 0;
    double save_s = 0;
    double restore_s = 0;
    double image_bytes = 0;
};

CkptCost driveCkpt(const Shape &s, SpanRecorder &rec);

} // namespace emcbench

#endif // EMCBENCH_LAYERS_HH
