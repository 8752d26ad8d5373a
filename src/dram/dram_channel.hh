/**
 * @file
 * A DRAM channel: request queues, the scheduling policy (FR-FCFS or
 * PAR-BS batch scheduling as in the paper's baseline), ranks of banks,
 * a shared data bus and rank-level refresh.
 */

#ifndef EMC_DRAM_DRAM_CHANNEL_HH
#define EMC_DRAM_DRAM_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/dram_types.hh"
#include "obs/obs.hh"

namespace emc
{

/** Scheduling policy for the memory controller. */
enum class SchedPolicy : std::uint8_t
{
    kFrFcfs,   ///< first-ready, first-come-first-served
    kBatch,    ///< parallelism-aware batch scheduling [42]
};

/** Aggregate per-channel statistics. */
struct DramChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_empty = 0;
    std::uint64_t row_conflicts = 0;
    std::uint64_t refreshes = 0;
    double total_queue_wait = 0;   ///< enqueue -> issue, reads only
    double total_service = 0;      ///< issue -> data, reads only
    std::uint64_t read_samples = 0;
    Cycle busy_bus_cycles = 0;

    double
    rowConflictRate() const
    {
        const auto total = row_hits + row_empty + row_conflicts;
        return total ? static_cast<double>(row_conflicts) / total : 0.0;
    }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(reads);
        ar.io(writes);
        ar.io(row_hits);
        ar.io(row_empty);
        ar.io(row_conflicts);
        ar.io(refreshes);
        ar.io(total_queue_wait);
        ar.io(total_service);
        ar.io(read_samples);
        ar.io(busy_bus_cycles);
    }
};

/**
 * One DDR3 channel with its queues and banks.
 *
 * Requests enter via enqueue(); each tick() the scheduler may issue
 * one request; completions are delivered through the callback the
 * owner registered. The in-flight list is drained in completion
 * order.
 */
class DramChannel
{
  public:
    using Callback = std::function<void(const MemRequest &)>;

    /**
     * @param geo DRAM geometry (this channel's ranks/banks)
     * @param timing DDR3 timings in core cycles
     * @param policy scheduling policy
     * @param queue_limit read-queue capacity (Table 1: 128 / #channels)
     * @param num_cores used by the batch scheduler's thread ranking
     */
    DramChannel(const DramGeometry &geo, const DramTiming &timing,
                SchedPolicy policy, std::size_t queue_limit,
                unsigned num_cores);

    /** @retval false if the read queue is full (caller must retry). */
    bool enqueue(const MemRequest &req, Cycle now);

    /** True if another read request can be accepted. */
    bool canAccept() const { return read_q_.size() < queue_limit_; }

    /** Advance one core cycle; delivers completions via the callback. */
    void tick(Cycle now);

    void setCallback(Callback cb) { callback_ = std::move(cb); }

    const DramChannelStats &stats() const { return stats_; }

    /** Zero the statistics (post-warmup measurement start). */
    void resetStats() { stats_ = DramChannelStats{}; }

    std::size_t readQueueDepth() const { return read_q_.size(); }
    std::size_t writeQueueDepth() const { return write_q_.size(); }

    /** True while any request is queued or in flight. */
    bool
    busy() const
    {
        return !read_q_.empty() || !write_q_.empty()
               || !in_flight_.empty();
    }

    /**
     * Next cycle at which tick() has a timed side effect even with no
     * requests anywhere: the refresh boundary (refresh fires and
     * counts as soon as now reaches it).
     */
    Cycle nextRefresh() const { return next_refresh_; }

    /** Expose bank state for tests. */
    const Bank &bank(unsigned rank, unsigned b) const;

    /**
     * Deep self-check (periodic in checked runs): every queued
     * request's cached bank and row equal mapAddress() of its address.
     */
    void checkConsistent(
        const std::function<void(const std::string &)> &fail) const;

    /**
     * Lifetime accept/complete counters for conservation checks.
     * Unlike stats(), these survive resetStats():
     *   acceptedReads − completedReads == readQueueDepth + inFlight
     *   acceptedWrites − issuedWrites == writeQueueDepth
     * (writes leave accounting at issue; they have no fill callback).
     */
    std::uint64_t acceptedReads() const { return accepted_reads_; }
    std::uint64_t completedReads() const { return completed_reads_; }
    std::uint64_t acceptedWrites() const { return accepted_writes_; }
    std::uint64_t issuedWrites() const { return issued_writes_; }
    std::size_t inFlight() const { return in_flight_.size(); }
    std::size_t queueLimit() const { return queue_limit_; }

    /**
     * Attach the lifecycle tracer (null detaches). Observation only;
     * emits a row_act instant per bank activate. @p first_flat_bank
     * is this channel's base in the system-wide flat bank numbering.
     */
    void
    setTrace(obs::Tracer *t, std::uint32_t first_flat_bank)
    {
        tracer_ = t;
        trace_bank_base_ = first_flat_bank;
    }

    /** Checkpoint queues, banks, timing state and counters. */
    template <class A>
    void
    ser(A &ar)
    {
        ar.io(banks_);
        ar.io(read_q_);
        ar.io(write_q_);
        if (ar.loading()) {
            for (Queued &qe : read_q_)
                decode(qe);
            for (Queued &qe : write_q_)
                decode(qe);
        }
        ar.io(in_flight_);
        ar.io(bus_free_);
        ar.io(next_refresh_);
        ar.io(draining_writes_);
        ar.io(marked_remaining_);
        ar.io(thread_rank_);
        ar.io(stats_);
        ar.io(accepted_reads_);
        ar.io(completed_reads_);
        ar.io(accepted_writes_);
        ar.io(issued_writes_);
    }

  private:
    friend struct DramChannelTestPeer;  // scheduler cross-check tests

    /**
     * A queued request plus its PAR-BS batch mark and its DRAM
     * coordinates, decoded once at enqueue so the scheduler's per-tick
     * scans never re-run mapAddress.
     */
    struct Queued
    {
        MemRequest req;
        bool marked = false;   ///< in the current PAR-BS batch
        unsigned bank = 0;     // ckpt-skip: (decoded from req.paddr on load)
        std::uint64_t row = 0; // ckpt-skip: (decoded from req.paddr on load)

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(req);
            ar.io(marked);
        }
    };

    void decode(Queued &qe) const;
    void maybeRefresh(Cycle now);
    void formBatch();
    int pickFrFcfs(const std::deque<Queued> &q, Cycle now) const;
    int pickBatch(Cycle now);
    void issue(Queued &qe, Cycle now, bool is_write);
    void applyActConstraints(unsigned rank, Cycle act_cycle);

    DramGeometry geo_;    // ckpt-skip: (config, not state)
    DramTiming t_;        // ckpt-skip: (config, not state)
    SchedPolicy policy_;  // ckpt-skip: (config, not state)
    obs::Tracer *tracer_ = nullptr;
    std::uint32_t trace_bank_base_ = 0;  // ckpt-skip: (obs wiring)
    std::size_t queue_limit_;  // ckpt-skip: (config, not state)
    unsigned num_cores_;       // ckpt-skip: (config, not state)

    std::vector<Bank> banks_;          ///< [rank * banks_per_rank + bank]
    std::deque<Queued> read_q_;
    std::deque<Queued> write_q_;
    std::vector<MemRequest> in_flight_;

    Cycle bus_free_ = 0;
    Cycle next_refresh_ = 0;
    bool draining_writes_ = false;

    // PAR-BS state
    std::uint64_t marked_remaining_ = 0;
    std::vector<std::uint64_t> thread_rank_;  ///< lower = higher priority

    Callback callback_;
    DramChannelStats stats_;

    // Conservation counters (not reset with stats_).
    std::uint64_t accepted_reads_ = 0;
    std::uint64_t completed_reads_ = 0;
    std::uint64_t accepted_writes_ = 0;
    std::uint64_t issued_writes_ = 0;
};

} // namespace emc

#endif // EMC_DRAM_DRAM_CHANNEL_HH
