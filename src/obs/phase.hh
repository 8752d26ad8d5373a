/**
 * @file
 * The miss-latency decomposition (DESIGN.md §6): the simulator's one
 * latency measurement.
 *
 * A sampled request is a demand read (core- or EMC-issued; not a
 * prefetch, Hermes probe or store) whose own read DRAM serviced.
 * Requests merged onto another agent's in-flight fill, LLC hits and
 * EMC data-cache hits are not sampled. Each sampled request is split
 * into consecutive phases between six endpoints:
 *
 *   lookup  created      -> llc_miss      (path to the slice + lookup)
 *   xfer    llc_miss     -> dram_enqueue  (path to the MC + backpressure)
 *   queue   dram_enqueue -> dram_issue    (MC queue)
 *   dram    dram_issue   -> dram_data     (DRAM service)
 *   ret     dram_data    -> done          (path back to the requester)
 *   total   created      -> done
 *
 * `done` is when the data reaches the requester: the core for core
 * requests; the issuing EMC for EMC requests, which is the owning MC
 * itself or the end of the cross-MC reply, never the LLC install. A
 * request that skips an endpoint (an EMC request sent straight to
 * DRAM has no LLC lookup) collapses it onto the previous one, so the
 * skipped phase contributes 0 and, per class, the phase means sum
 * exactly to the total mean.
 *
 * Classes: core (every core-issued sample), core_dep (its dependent
 * subset: address tainted by a prior miss) and emc (EMC-issued).
 *
 * The accumulator is always on, so traced and untraced runs export
 * identical statistics. tools/emctrace `summarize` rebuilds the same
 * histograms from an exported trace; the two agree exactly (asserted
 * in tests/test_trace.cpp).
 */

#ifndef EMC_OBS_PHASE_HH
#define EMC_OBS_PHASE_HH

#include <cstddef>

#include "common/stats.hh"
#include "common/types.hh"

namespace emc::obs
{

/** Request class a phase sample is attributed to. */
enum class PhaseClass : std::uint8_t
{
    kCore,     ///< core-issued (dependent or not)
    kCoreDep,  ///< core-issued dependent miss (also counted in kCore)
    kEmc,      ///< EMC-issued
};

constexpr std::size_t kNumPhaseClasses = 3;

/** Stable stat-key name for a class ("core", ...). */
const char *phaseClassName(PhaseClass c);

/** Latency phases (indices into PhaseAccumulator histograms). */
enum PhaseIndex : std::size_t
{
    kPhaseLookup = 0,
    kPhaseXfer,
    kPhaseQueue,
    kPhaseDram,
    kPhaseRet,
    kPhaseTotal,
    kNumPhases,
};

/** Stable stat-key name for a phase ("lookup", ...). */
const char *phaseName(std::size_t phase);

/** Endpoint cycles of one sampled request, non-decreasing in field
 *  order (a skipped endpoint holds the previous one's cycle). */
struct PhaseTimes
{
    Cycle created = 0;
    Cycle llc_miss = 0;
    Cycle dram_enqueue = 0;
    Cycle dram_issue = 0;
    Cycle dram_data = 0;
    Cycle done = 0;

    /** True when the endpoints are non-decreasing in field order. */
    bool
    ordered() const
    {
        return created <= llc_miss && llc_miss <= dram_enqueue
               && dram_enqueue <= dram_issue && dram_issue <= dram_data
               && dram_data <= done;
    }
};

/** Histogram parameters shared with tools/emctrace summarize. */
constexpr std::size_t kPhaseBuckets = 64;
constexpr double kPhaseBucketWidth = 32.0;

/** Per-class, per-phase latency histograms. */
class PhaseAccumulator
{
  public:
    PhaseAccumulator();

    /**
     * Record one sampled request (@p t must be ordered()). A kCoreDep
     * sample also lands in kCore.
     */
    void sample(PhaseClass cls, const PhaseTimes &t);

    /** Export `phase.<class>.<phase>_{avg,p50,p95,p99,samples}`. */
    void exportTo(StatDump &d) const;

    void reset();

    /** Direct histogram access (tests / summaries). */
    const Histogram &
    hist(PhaseClass cls, std::size_t phase) const
    {
        return hist_[static_cast<std::size_t>(cls)][phase];
    }

    template <class A>
    void
    ser(A &ar)
    {
        for (auto &row : hist_)
            for (auto &h : row)
                ar.io(h);
    }

  private:
    void record(PhaseClass cls, const PhaseTimes &t);

    Histogram hist_[kNumPhaseClasses][kNumPhases];
};

} // namespace emc::obs

#endif // EMC_OBS_PHASE_HH
