/**
 * @file
 * Transaction-lifecycle tracing (DESIGN.md §6).
 *
 * A Tracer records typed trace points — created, llc_miss,
 * chain_offloaded, emc_issue, dram_enqueue, row_act, fill, retire,
 * llc_evict, ring_msg, dram_data, emc_data — into a per-simulation ring buffer and exports
 * them as Chrome trace_event JSON (chrome://tracing /
 * ui.perfetto.dev). Each simulated agent gets its own track: one per
 * core, one per EMC plus one per EMC context, one per DRAM bank, and
 * one per ring.
 *
 * Hooks follow the src/check pattern: observation-only and reached
 * through the EMC_OBS_POINT macro (src/obs/obs.hh), which is a single
 * null test when no tracer is attached and compiles to nothing when
 * the EMC_SIM_TRACE CMake option is OFF. A run without a tracer is
 * byte-identical in statistics to the seed; a traced run differs only
 * in the file it writes.
 *
 * The buffer is a fixed-capacity ring owned by exactly one System
 * (simulations are single-threaded internally; the parallel bench
 * harness runs one Tracer per job), so recording needs no locks. When
 * the ring fills it is drained to the output file, so no event is
 * ever dropped and memory stays bounded.
 */

#ifndef EMC_OBS_TRACE_HH
#define EMC_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace emc::obs
{

/** Typed trace points emitted by the component hooks. */
enum class TracePoint : std::uint8_t
{
    kCreated,         ///< transaction left its requestor
    kLlcMiss,         ///< LLC slice lookup missed
    kChainOffloaded,  ///< core shipped a dependence chain to the EMC
    kEmcIssue,        ///< EMC context issued a chain memory op
    kDramEnqueue,     ///< request accepted into an MC channel queue
    kRowAct,          ///< DRAM bank row activation (empty or conflict)
    kFill,            ///< fill reached the LLC slice (install / merge)
    kRetire,          ///< transaction retired and left the slab pool
    kLlcEvict,        ///< cache evicted a valid victim line
    kRingMsg,         ///< EMC-related data-ring message delivered
    kDramData,        ///< DRAM returned the read (arg: its issue cycle)
    kEmcData,         ///< an EMC request's data reached its EMC
};

/** Number of TracePoint values. */
constexpr int kNumTracePoints = 12;

/** Stable lower-case name for a trace point ("llc_miss", ...). */
const char *tracePointName(TracePoint p);

/** Flag bits carried on kCreated (exported as span args). */
enum TraceFlags : std::uint8_t
{
    kFlagDependent = 1 << 0,  ///< address tainted by a prior miss
    kFlagEmc = 1 << 1,        ///< issued by an EMC
    kFlagPrefetch = 1 << 2,
    kFlagStore = 1 << 3,
};

/** Track kinds (one Chrome "process" per kind). */
enum class TrackKind : std::uint8_t
{
    kCore,      ///< per-core track (demand transactions, chains)
    kEmc,       ///< per-EMC / per-EMC-context track
    kDramBank,  ///< per-bank track (row activations)
    kRing,      ///< control / data ring tracks
};

/** Identity of the track an event belongs to. */
struct Track
{
    TrackKind kind = TrackKind::kCore;
    std::uint32_t index = 0;  ///< kind-specific flat track index

    static Track core(std::uint32_t c) { return {TrackKind::kCore, c}; }

    /** The MC-level EMC track (transactions issued by EMC @p mc). */
    static Track emc(std::uint32_t mc)
    {
        return {TrackKind::kEmc, mc * kEmcTrackStride};
    }

    /** The track of context @p ctx of EMC @p mc. */
    static Track emcCtx(std::uint32_t mc, std::uint32_t ctx)
    {
        return {TrackKind::kEmc, mc * kEmcTrackStride + 1 + ctx};
    }

    static Track bank(std::uint32_t flat_bank)
    {
        return {TrackKind::kDramBank, flat_bank};
    }

    static Track ring(bool is_data)
    {
        return {TrackKind::kRing, is_data ? 1u : 0u};
    }

    /// Sub-tracks reserved per EMC: 1 MC-level + up to 15 contexts.
    static constexpr std::uint32_t kEmcTrackStride = 16;
};

/** One recorded trace point (the ring-buffer element). */
struct TraceEvent
{
    Cycle cycle = 0;
    std::uint64_t id = 0;  ///< transaction / chain id (0: none)
    std::uint64_t arg = 0; ///< point-specific payload (line addr, ...)
    Track track;
    TracePoint point = TracePoint::kCreated;
    std::uint8_t flags = 0;
};

/** Static topology used to emit track-naming metadata. */
struct TraceTopology
{
    unsigned num_cores = 0;
    unsigned num_mcs = 0;
    unsigned emc_contexts = 0;  ///< per EMC (0 = no EMC)
    unsigned channels = 0;
    unsigned ranks_per_channel = 0;
    unsigned banks_per_rank = 0;
};

/**
 * Records trace points and exports Chrome trace_event JSON.
 *
 * Lifecycle spans: kCreated opens a nestable async span ("ph":"b",
 * cat "txn", id = transaction id) on the owning track, intermediate
 * points are async instants ("ph":"n") with the same id, and kRetire
 * closes it ("ph":"e"). Row activations, evictions, chain offloads
 * and ring deliveries are thread instants ("ph":"i"). Spans still
 * open when the simulation ends are closed at the final cycle so the
 * exported file always balances.
 */
class Tracer
{
  public:
    /**
     * @param path output file (Chrome trace JSON)
     * @param topo track topology (names the tracks in the viewer)
     * @param capacity ring-buffer capacity in events (drained to the
     *        file when full; larger buffers amortize formatting)
     */
    Tracer(const std::string &path, const TraceTopology &topo,
           std::size_t capacity = 1 << 16);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** True if the output file opened successfully. */
    bool ok() const { return out_ != nullptr; }

    /** Record one trace point (the hot path; called via EMC_OBS_POINT). */
    void
    record(TracePoint point, Cycle cycle, std::uint64_t id, Track track,
           std::uint64_t arg = 0, std::uint8_t flags = 0)
    {
        if (buf_.size() == capacity_)
            drain();
        buf_.push_back(TraceEvent{cycle, id, arg, track, point, flags});
    }

    /**
     * Close all open spans at @p final_cycle, flush and finish the
     * JSON document. Idempotent; also invoked by the destructor.
     */
    void finish(Cycle final_cycle);

    /** Events recorded so far (monotone; spans both buffer and file). */
    std::uint64_t recorded() const { return recorded_ + buf_.size(); }

  private:
    void drain();
    void writeEvent(const TraceEvent &ev);
    void writeMeta(const TraceTopology &topo);
    void emitJson(const char *ph, const char *name, const char *cat,
                  unsigned pid, std::uint32_t tid, Cycle ts,
                  std::uint64_t id, bool with_id, const TraceEvent &ev);
    unsigned pidOf(TrackKind kind) const;

    std::FILE *out_ = nullptr;
    std::size_t capacity_;
    std::vector<TraceEvent> buf_;
    std::uint64_t recorded_ = 0;
    bool first_event_ = true;
    bool finished_ = false;
    Cycle last_cycle_ = 0;

    /// Open lifecycle spans: id -> opening event (track + flags), so
    /// finish() can balance the file. Ordered map: closing order at
    /// finish() must not depend on hashing.
    std::map<std::uint64_t, TraceEvent> open_spans_;
};

} // namespace emc::obs

#endif // EMC_OBS_TRACE_HH
