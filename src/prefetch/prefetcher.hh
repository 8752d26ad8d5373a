/**
 * @file
 * Prefetcher interface plus the Feedback-Directed Prefetching (FDP)
 * throttle [57] that all configurations in the paper use: dynamic
 * degree 1-32, prefetching into the LLC.
 */

#ifndef EMC_PREFETCH_PREFETCHER_HH
#define EMC_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.hh"

namespace emc
{

namespace ckpt
{
class Ar;
} // namespace ckpt

/** A candidate prefetch produced by a prefetching engine. */
struct PrefetchCandidate
{
    Addr line_addr = kNoAddr;  ///< physical line address to fetch
    CoreId core = 0;           ///< core whose stream trained it

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(line_addr);
        ar.io(core);
    }
};

/**
 * Base class for prefetching engines. Engines observe the LLC access
 * stream (the paper's prefetchers train below the core caches and fill
 * into the LLC) and push candidates into an internal queue that the
 * system drains subject to the FDP degree.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe an LLC access.
     * @param core requesting core
     * @param line_addr physical line address
     * @param pc static PC of the triggering load (0 if unknown)
     * @param miss whether the access missed the LLC
     * @param degree current FDP degree (max candidates to emit)
     */
    virtual void observe(CoreId core, Addr line_addr, Addr pc, bool miss,
                         unsigned degree) = 0;

    /** Pop the next candidate. @retval false when the queue is empty. */
    bool
    nextCandidate(PrefetchCandidate &out)
    {
        if (queue_.empty())
            return false;
        out = queue_.front();
        queue_.pop_front();
        return true;
    }

    virtual const char *name() const = 0;

    std::size_t queued() const { return queue_.size(); }

    /**
     * Checkpoint the engine's training state and candidate queue
     * (both directions). Implementations call serQueue() plus their
     * own table serialization.
     */
    virtual void ckptSer(ckpt::Ar &ar) = 0;

  protected:
    /** Queue a candidate; dropped once kMaxQueue are already queued. */
    void
    emit(CoreId core, Addr line_addr)
    {
        if (queue_.size() >= kMaxQueue)
            return;
        queue_.push_back({lineAlign(line_addr), core});
    }

    /** Serialize the shared candidate queue (call from ckptSer). */
    template <class A>
    void
    serQueue(A &ar)
    {
        ar.io(queue_);
    }

  private:
    static constexpr std::size_t kMaxQueue = 256;
    std::deque<PrefetchCandidate> queue_;
};

/**
 * Feedback-Directed Prefetching throttle [57]. Tracks three signals
 * over fixed intervals of issued prefetches and adjusts the degree in
 * [1, 32]:
 *
 *  - accuracy: prefetched lines touched by demand before eviction
 *    (tracked with a prefetched-line set);
 *  - lateness: demand arrived while the prefetch was still in flight
 *    (useful but not timely — argues for *more* aggressiveness);
 *  - pollution: demand misses on lines a prefetch fill evicted
 *    (tracked with a bounded victim set — argues for less).
 */
class FdpThrottle
{
  public:
    FdpThrottle() = default;

    unsigned degree() const { return degree_; }

    /** A prefetch request was issued to memory. */
    void
    issued(Addr line_addr)
    {
        ++interval_issued_;
        ++total_issued_;
        pending_.insert(lineNum(line_addr));
        maybeAdapt();
    }

    /** A demand access touched @p line_addr in the LLC. */
    void
    demandTouch(Addr line_addr)
    {
        auto it = pending_.find(lineNum(line_addr));
        if (it != pending_.end()) {
            pending_.erase(it);
            ++interval_useful_;
            ++total_useful_;
        }
    }

    /** The LLC evicted @p line_addr (unused prefetch dies here). */
    void
    evicted(Addr line_addr)
    {
        pending_.erase(lineNum(line_addr));
    }

    /** True if @p line_addr is an un-touched prefetched line. */
    bool
    isPendingPrefetch(Addr line_addr) const
    {
        return pending_.count(lineNum(line_addr)) != 0;
    }

    /** A demand merged onto a prefetch still in flight (late). */
    void
    lateHit(Addr line_addr)
    {
        ++interval_late_;
        ++total_late_;
        // A late prefetch still becomes useful when its fill lands;
        // no pending_ bookkeeping needed here.
        (void)line_addr;
    }

    /** A prefetch fill evicted @p victim_line from the LLC. */
    void
    prefetchEvictedVictim(Addr victim_line)
    {
        const Addr ln = lineNum(victim_line);
        if (victims_.insert(ln).second) {
            victim_order_.push_back(ln);
            if (victim_order_.size() > kVictimCap) {
                victims_.erase(victim_order_.front());
                victim_order_.pop_front();
            }
        }
    }

    /** A demand miss occurred on @p line_addr. @retval polluted */
    bool
    demandMiss(Addr line_addr)
    {
        const Addr ln = lineNum(line_addr);
        auto it = victims_.find(ln);
        if (it == victims_.end())
            return false;
        victims_.erase(it);
        ++interval_polluted_;
        ++total_polluted_;
        return true;
    }

    std::uint64_t totalIssued() const { return total_issued_; }
    std::uint64_t totalUseful() const { return total_useful_; }
    std::uint64_t totalLate() const { return total_late_; }
    std::uint64_t totalPolluted() const { return total_polluted_; }

    /**
     * Checkpoint the full throttle state. victims_ and victim_order_
     * genuinely diverge (demandMiss erases only the set), so both are
     * serialized verbatim rather than rebuilding one from the other.
     */
    template <class A>
    void
    ser(A &ar)
    {
        ar.io(degree_);
        ar.io(interval_issued_);
        ar.io(interval_useful_);
        ar.io(interval_late_);
        ar.io(interval_polluted_);
        ar.io(total_issued_);
        ar.io(total_useful_);
        ar.io(total_late_);
        ar.io(total_polluted_);
        ar.io(pending_);
        ar.io(victims_);
        ar.io(victim_order_);
    }

    double
    accuracy() const
    {
        return total_issued_
                   ? static_cast<double>(total_useful_) / total_issued_
                   : 0.0;
    }

  private:
    void
    maybeAdapt()
    {
        constexpr std::uint64_t kInterval = 512;
        if (interval_issued_ < kInterval)
            return;
        const double acc =
            static_cast<double>(interval_useful_) / interval_issued_;
        const double late =
            static_cast<double>(interval_late_) / interval_issued_;
        const double poll =
            static_cast<double>(interval_polluted_) / interval_issued_;
        // FDP policy: polluting prefetchers throttle down regardless;
        // accurate ones ramp up, faster when also late (the fills are
        // wanted but not arriving soon enough).
        if (poll > 0.25) {
            degree_ = std::max(1u, degree_ / 2);
        } else if (acc > 0.75) {
            degree_ = std::min(32u, late > 0.25 ? degree_ * 4
                                                : degree_ * 2);
        } else if (acc < 0.40) {
            degree_ = std::max(1u, degree_ / 2);
        }
        interval_issued_ = 0;
        interval_useful_ = 0;
        interval_late_ = 0;
        interval_polluted_ = 0;
    }

    static constexpr std::size_t kVictimCap = 4096;

    unsigned degree_ = 4;
    std::uint64_t interval_issued_ = 0;
    std::uint64_t interval_useful_ = 0;
    std::uint64_t interval_late_ = 0;
    std::uint64_t interval_polluted_ = 0;
    std::uint64_t total_issued_ = 0;
    std::uint64_t total_useful_ = 0;
    std::uint64_t total_late_ = 0;
    std::uint64_t total_polluted_ = 0;
    std::unordered_set<Addr> pending_;
    std::unordered_set<Addr> victims_;
    std::deque<Addr> victim_order_;
};

} // namespace emc

#endif // EMC_PREFETCH_PREFETCHER_HH
