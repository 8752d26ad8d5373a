#include "obs/phase.hh"

#include <string>

#include "common/log.hh"

namespace emc::obs
{

const char *
phaseClassName(PhaseClass c)
{
    switch (c) {
      case PhaseClass::kCore: return "core";
      case PhaseClass::kCoreDep: return "core_dep";
      case PhaseClass::kEmc: return "emc";
    }
    return "?";
}

const char *
phaseName(std::size_t phase)
{
    switch (phase) {
      case kPhaseLookup: return "lookup";
      case kPhaseXfer: return "xfer";
      case kPhaseQueue: return "queue";
      case kPhaseDram: return "dram";
      case kPhaseRet: return "ret";
      case kPhaseTotal: return "total";
    }
    return "?";
}

PhaseAccumulator::PhaseAccumulator()
{
    for (auto &per_class : hist_) {
        for (auto &h : per_class)
            h = Histogram(kPhaseBuckets, kPhaseBucketWidth);
    }
}

void
PhaseAccumulator::sample(PhaseClass cls, const PhaseTimes &t)
{
    emc_assert(t.ordered(), "phase endpoints out of order");
    record(cls, t);
    if (cls == PhaseClass::kCoreDep)
        record(PhaseClass::kCore, t);
}

void
PhaseAccumulator::record(PhaseClass cls, const PhaseTimes &t)
{
    auto &per_class = hist_[static_cast<std::size_t>(cls)];
    auto span = [&](std::size_t phase, Cycle start, Cycle end) {
        per_class[phase].sample(static_cast<double>(end - start));
    };
    span(kPhaseLookup, t.created, t.llc_miss);
    span(kPhaseXfer, t.llc_miss, t.dram_enqueue);
    span(kPhaseQueue, t.dram_enqueue, t.dram_issue);
    span(kPhaseDram, t.dram_issue, t.dram_data);
    span(kPhaseRet, t.dram_data, t.done);
    span(kPhaseTotal, t.created, t.done);
}

void
PhaseAccumulator::exportTo(StatDump &d) const
{
    for (std::size_t c = 0; c < kNumPhaseClasses; ++c) {
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            const Histogram &h = hist_[c][p];
            if (h.samples() == 0)
                continue;
            const std::string base =
                std::string("phase.")
                + phaseClassName(static_cast<PhaseClass>(c)) + "."
                + phaseName(p);
            d.put(base + "_avg", h.mean());
            d.put(base + "_p50", h.percentile(0.50));
            d.put(base + "_p95", h.percentile(0.95));
            d.put(base + "_p99", h.percentile(0.99));
            d.put(base + "_samples",
                  static_cast<double>(h.samples()));
        }
    }
}

void
PhaseAccumulator::reset()
{
    for (auto &per_class : hist_) {
        for (auto &h : per_class)
            h.reset();
    }
}

} // namespace emc::obs
