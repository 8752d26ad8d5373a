/**
 * @file
 * Bidirectional slotted ring interconnect (Section 4, Table 1).
 *
 * The chip has two rings: an 8-byte control ring and a 64-byte data
 * ring, each bidirectional with 1-cycle links. Every core shares a
 * ring stop with its LLC slice; the memory controller (and the EMC)
 * occupies one additional stop. A message picks the direction with the
 * shorter hop count and rides slots that advance one stop per cycle;
 * injection waits for an empty passing slot, which is where
 * contention shows up.
 */

#ifndef EMC_RING_RING_HH
#define EMC_RING_RING_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "obs/obs.hh"

namespace emc
{

/** Message classes carried by the rings. */
enum class MsgType : std::uint8_t
{
    // control ring (8 B)
    kMemRead,        ///< core -> LLC slice demand read
    kLlcMissToMc,    ///< LLC slice -> MC miss request
    kLsqPopulate,    ///< EMC -> core memory-op notification (Section 4.3)
    kEmcLlcQuery,    ///< EMC -> LLC slice load that predicted hit
    kControlMisc,    ///< grants/acks/invalidate traffic
    // data ring (64 B)
    kFillToSlice,    ///< MC -> LLC slice fill data
    kFillToCore,     ///< LLC slice -> core fill data
    kWriteback,      ///< LLC -> MC dirty eviction / L1 write-through data
    kChainTransfer,  ///< core -> EMC dependence chain + live-ins
    kLiveOut,        ///< EMC -> core live-out registers / store data
    kEmcFillReply,   ///< cross-MC fill data to the issuing EMC (§4.4)
    kDataMisc,
};

/** True for message types that ride the 64-byte data ring. */
constexpr bool
isDataMsg(MsgType t)
{
    switch (t) {
      case MsgType::kFillToSlice:
      case MsgType::kFillToCore:
      case MsgType::kWriteback:
      case MsgType::kChainTransfer:
      case MsgType::kLiveOut:
      case MsgType::kEmcFillReply:
      case MsgType::kDataMisc:
        return true;
      default:
        return false;
    }
}

/** A message in flight on a ring. */
struct RingMsg
{
    MsgType type = MsgType::kControlMisc;
    unsigned src = 0;       ///< source stop
    unsigned dst = 0;       ///< destination stop
    std::uint64_t token = 0;///< owner-defined payload handle
    Cycle injected = kNoCycle;

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(type);
        ar.io(src);
        ar.io(dst);
        ar.io(token);
        ar.io(injected);
    }
};

/** Aggregate ring statistics (Section 6.5 reports these). */
struct RingStats
{
    std::uint64_t control_msgs = 0;
    std::uint64_t data_msgs = 0;
    std::uint64_t control_emc_msgs = 0;  ///< EMC-related control traffic
    std::uint64_t data_emc_msgs = 0;     ///< EMC-related data traffic
    double total_latency = 0;            ///< inject -> eject, all msgs
    std::uint64_t delivered = 0;
    std::uint64_t inject_stalls = 0;     ///< cycles a message waited to inject

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(control_msgs);
        ar.io(data_msgs);
        ar.io(control_emc_msgs);
        ar.io(data_emc_msgs);
        ar.io(total_latency);
        ar.io(delivered);
        ar.io(inject_stalls);
    }
};

/**
 * One bidirectional slotted ring. Both directions have #stops slots;
 * slots advance one stop per cycle. tick() moves slots, ejects
 * arrivals (via the delivery callback) and injects queued messages
 * into empty slots.
 */
class Ring
{
  public:
    using Deliver = std::function<void(const RingMsg &)>;

    /**
     * @param stops number of ring stops
     * @param is_data true for the data ring (stats bucketing)
     */
    Ring(unsigned stops, bool is_data);

    /** Queue a message for injection at its source stop. */
    void send(const RingMsg &msg, Cycle now);

    /** Advance one cycle. */
    void tick(Cycle now);

    void setDeliver(Deliver d) { deliver_ = std::move(d); }

    const RingStats &stats() const { return stats_; }
    unsigned stops() const { return stops_; }

    /** Zero the statistics (post-warmup measurement start). */
    void resetStats() { stats_ = RingStats{}; }

    /** Hop distance with the shorter direction. */
    unsigned
    distance(unsigned a, unsigned b) const
    {
        const unsigned fwd = (b + stops_ - a) % stops_;
        const unsigned bwd = (a + stops_ - b) % stops_;
        return std::min(fwd, bwd);
    }

    /** Messages currently in flight or waiting (for tests). */
    std::size_t pending() const;

    /**
     * Lifetime send/deliver counters for conservation checks. Unlike
     * stats(), these survive resetStats() so sent − delivered always
     * equals pending().
     */
    std::uint64_t sentTotal() const { return sent_total_; }
    std::uint64_t deliveredTotal() const { return delivered_total_; }

    /**
     * Attach the lifecycle tracer (null detaches). Observation only;
     * emits a ring_msg instant per EMC-related message delivery.
     */
    void
    setTrace(obs::Tracer *t)
    {
        tracer_ = t;
    }

    /** Checkpoint slot occupancy, inject queues and counters. */
    template <class A>
    void
    ser(A &ar)
    {
        serSlots(ar, cw_);
        serSlots(ar, ccw_);
        ar.io(inject_q_);
        ar.io(stats_);
        ar.io(sent_total_);
        ar.io(delivered_total_);
    }

  private:
    /** One rotating slot of a ring direction. */
    struct Slot
    {
        bool busy = false;
        RingMsg msg;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(busy);
            ar.io(msg);
        }
    };

    /**
     * One rotation direction of the ring. Slots never move in memory:
     * the slot at stop i is slots[(i + base) % stops], and advancing
     * one stop only moves base.
     */
    struct Direction
    {
        std::vector<Slot> slots;
        int step;           ///< +1 or -1 stop per cycle
        unsigned base = 0;  ///< rotation offset
        unsigned busy = 0;  ///< slots carrying a message
        /**
         * Bit i: slots[i] was freed by the last tick's ejections. It
         * keeps the delivered message until the next rotation resets
         * it, as a slot rebuilt per cycle would, so checkpoint bytes
         * match.
         */
        std::uint64_t stale = 0;
    };

    Slot &
    slotAt(Direction &dir, unsigned stop)
    {
        const unsigned i = stop + dir.base;
        return dir.slots[i < stops_ ? i : i - stops_];
    }

    /**
     * Write or read @p dir's slots in stop order, as a vector of
     * exactly stops_ slots (a different length on load throws).
     */
    template <class A>
    void
    serSlots(A &ar, Direction &dir)
    {
        ar.length(stops_);
        for (unsigned i = 0; i < stops_; ++i)
            ar.io(slotAt(dir, i));
        if (ar.loading()) {
            dir.busy = 0;
            dir.stale = 0;
            for (unsigned i = 0; i < stops_; ++i) {
                if (dir.slots[i].busy)
                    ++dir.busy;
                else
                    dir.stale |= std::uint64_t{1} << i;
            }
        }
    }

    void advance(Direction &dir, Cycle now);
    void inject(Cycle now);

    unsigned stops_;  // ckpt-skip: (topology is config)
    bool is_data_;    // ckpt-skip: (topology is config)
    Direction cw_;   ///< clockwise
    Direction ccw_;  ///< counter-clockwise
    std::vector<std::deque<RingMsg>> inject_q_;  ///< per stop
    Deliver deliver_;
    obs::Tracer *tracer_ = nullptr;
    RingStats stats_;
    std::uint64_t sent_total_ = 0;
    std::uint64_t delivered_total_ = 0;
};

} // namespace emc

#endif // EMC_RING_RING_HH
