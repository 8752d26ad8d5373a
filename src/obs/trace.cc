#include "obs/trace.hh"

#include <cinttypes>

namespace emc::obs
{

const char *
tracePointName(TracePoint p)
{
    switch (p) {
      case TracePoint::kCreated: return "created";
      case TracePoint::kLlcMiss: return "llc_miss";
      case TracePoint::kChainOffloaded: return "chain_offloaded";
      case TracePoint::kEmcIssue: return "emc_issue";
      case TracePoint::kDramEnqueue: return "dram_enqueue";
      case TracePoint::kRowAct: return "row_act";
      case TracePoint::kFill: return "fill";
      case TracePoint::kRetire: return "retire";
      case TracePoint::kLlcEvict: return "llc_evict";
      case TracePoint::kRingMsg: return "ring_msg";
      case TracePoint::kDramData: return "dram_data";
      case TracePoint::kEmcData: return "emc_data";
    }
    return "?";
}

namespace
{

/** Span name shown in the viewer, picked from the kCreated flags. */
const char *
spanName(std::uint8_t flags)
{
    if (flags & kFlagPrefetch)
        return "prefetch";
    if (flags & kFlagEmc)
        return "emc_miss";
    if (flags & kFlagStore)
        return "store";
    return "demand";
}

} // namespace

Tracer::Tracer(const std::string &path, const TraceTopology &topo,
               std::size_t capacity)
    : capacity_(capacity < 64 ? 64 : capacity)
{
    buf_.reserve(capacity_);
    out_ = std::fopen(path.c_str(), "w");
    if (!out_)
        return;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out_);
    writeMeta(topo);
}

Tracer::~Tracer()
{
    finish(last_cycle_);
}

unsigned
Tracer::pidOf(TrackKind kind) const
{
    switch (kind) {
      case TrackKind::kCore: return 1;
      case TrackKind::kEmc: return 2;
      case TrackKind::kDramBank: return 3;
      case TrackKind::kRing: return 4;
    }
    return 0;
}

void
Tracer::writeMeta(const TraceTopology &topo)
{
    auto meta = [&](unsigned pid, std::uint32_t tid, const char *what,
                    const std::string &name) {
        std::fprintf(out_,
                     "%s{\"ph\":\"M\",\"pid\":%u,\"tid\":%" PRIu32
                     ",\"name\":\"%s\",\"args\":{\"name\":\"%s\"}}",
                     first_event_ ? "" : ",\n", pid, tid, what,
                     name.c_str());
        first_event_ = false;
    };
    auto process = [&](TrackKind kind, const std::string &name) {
        meta(pidOf(kind), 0, "process_name", name);
    };

    process(TrackKind::kCore, "cores");
    for (unsigned c = 0; c < topo.num_cores; ++c) {
        meta(pidOf(TrackKind::kCore), c, "thread_name",
             "core" + std::to_string(c));
    }
    if (topo.emc_contexts > 0) {
        process(TrackKind::kEmc, "emc");
        for (unsigned m = 0; m < topo.num_mcs; ++m) {
            meta(pidOf(TrackKind::kEmc), Track::emc(m).index,
                 "thread_name", "emc" + std::to_string(m));
            for (unsigned x = 0; x < topo.emc_contexts; ++x) {
                meta(pidOf(TrackKind::kEmc), Track::emcCtx(m, x).index,
                     "thread_name",
                     "emc" + std::to_string(m) + ".ctx"
                         + std::to_string(x));
            }
        }
    }
    process(TrackKind::kDramBank, "dram");
    for (unsigned ch = 0; ch < topo.channels; ++ch) {
        for (unsigned r = 0; r < topo.ranks_per_channel; ++r) {
            for (unsigned b = 0; b < topo.banks_per_rank; ++b) {
                const std::uint32_t flat =
                    (ch * topo.ranks_per_channel + r)
                        * topo.banks_per_rank
                    + b;
                meta(pidOf(TrackKind::kDramBank), flat, "thread_name",
                     "ch" + std::to_string(ch) + ".rk"
                         + std::to_string(r) + ".bk"
                         + std::to_string(b));
            }
        }
    }
    process(TrackKind::kRing, "ring");
    meta(pidOf(TrackKind::kRing), 0, "thread_name", "control");
    meta(pidOf(TrackKind::kRing), 1, "thread_name", "data");
}

void
Tracer::emitJson(const char *ph, const char *name, const char *cat,
                 unsigned pid, std::uint32_t tid, Cycle ts,
                 std::uint64_t id, bool with_id, const TraceEvent &ev)
{
    std::fprintf(out_,
                 "%s{\"ph\":\"%s\",\"name\":\"%s\",\"cat\":\"%s\","
                 "\"pid\":%u,\"tid\":%" PRIu32 ",\"ts\":%" PRIu64,
                 first_event_ ? "" : ",\n", ph, name, cat, pid, tid,
                 static_cast<std::uint64_t>(ts));
    first_event_ = false;
    if (with_id)
        std::fprintf(out_, ",\"id\":\"0x%" PRIx64 "\"", id);
    if (ph[0] == 'i')
        std::fputs(",\"s\":\"t\"", out_);
    if (ph[0] == 'b') {
        std::fprintf(out_,
                     ",\"args\":{\"dep\":%u,\"emc\":%u,\"pf\":%u,"
                     "\"st\":%u}",
                     (ev.flags & kFlagDependent) ? 1u : 0u,
                     (ev.flags & kFlagEmc) ? 1u : 0u,
                     (ev.flags & kFlagPrefetch) ? 1u : 0u,
                     (ev.flags & kFlagStore) ? 1u : 0u);
    } else if (ev.arg != 0) {
        std::fprintf(out_, ",\"args\":{\"arg\":\"0x%" PRIx64 "\"}",
                     ev.arg);
    }
    std::fputs("}", out_);
}

void
Tracer::writeEvent(const TraceEvent &ev)
{
    const unsigned pid = pidOf(ev.track.kind);
    const std::uint32_t tid = ev.track.index;
    switch (ev.point) {
      case TracePoint::kCreated:
        emitJson("b", spanName(ev.flags), "txn", pid, tid, ev.cycle,
                 ev.id, true, ev);
        open_spans_[ev.id] = ev;
        break;
      case TracePoint::kRetire:
        emitJson("e", spanName(open_spans_.count(ev.id)
                                   ? open_spans_[ev.id].flags
                                   : ev.flags),
                 "txn", pid, tid, ev.cycle, ev.id, true, ev);
        open_spans_.erase(ev.id);
        break;
      case TracePoint::kLlcMiss:
      case TracePoint::kDramEnqueue:
      case TracePoint::kFill:
      case TracePoint::kDramData:
      case TracePoint::kEmcData:
        emitJson("n", tracePointName(ev.point), "txn", pid, tid,
                 ev.cycle, ev.id, true, ev);
        break;
      case TracePoint::kChainOffloaded:
      case TracePoint::kEmcIssue:
      case TracePoint::kRowAct:
      case TracePoint::kLlcEvict:
      case TracePoint::kRingMsg:
        emitJson("i", tracePointName(ev.point), "sim", pid, tid,
                 ev.cycle, ev.id, false, ev);
        break;
    }
}

void
Tracer::drain()
{
    if (!out_) {
        buf_.clear();
        return;
    }
    for (const TraceEvent &ev : buf_) {
        last_cycle_ = ev.cycle;
        writeEvent(ev);
    }
    recorded_ += buf_.size();
    buf_.clear();
}

void
Tracer::finish(Cycle final_cycle)
{
    if (finished_)
        return;
    finished_ = true;
    drain();
    if (!out_)
        return;
    if (final_cycle < last_cycle_)
        final_cycle = last_cycle_;
    // Balance the file: close every span the simulation left open
    // (e.g. transactions still in flight when max_cycles hit).
    // Marked truncated so summaries can exclude them.
    for (const auto &[id, open] : open_spans_) {
        std::fprintf(out_,
                     "%s{\"ph\":\"e\",\"name\":\"%s\",\"cat\":\"txn\","
                     "\"pid\":%u,\"tid\":%" PRIu32 ",\"ts\":%" PRIu64
                     ",\"id\":\"0x%" PRIx64
                     "\",\"args\":{\"truncated\":1}}",
                     first_event_ ? "" : ",\n", spanName(open.flags),
                     pidOf(open.track.kind), open.track.index,
                     static_cast<std::uint64_t>(final_cycle), id);
        first_event_ = false;
    }
    open_spans_.clear();
    std::fputs("\n]}\n", out_);
    std::fclose(out_);
    out_ = nullptr;
}

} // namespace emc::obs
