/**
 * @file
 * Generic set-associative cache with true-LRU replacement, used for
 * the L1 data caches, the LLC slices and the EMC's 4 KB data cache.
 *
 * The LLC is inclusive; each line carries per-core presence bits plus
 * the extra EMC directory bit the paper adds (Section 4.1.3) so the
 * coherence machinery knows which lines the EMC data cache holds.
 */

#ifndef EMC_CACHE_CACHE_HH
#define EMC_CACHE_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "obs/obs.hh"

namespace emc
{

/** Metadata stored with every cache line. */
struct CacheLineMeta
{
    bool dirty = false;
    std::uint32_t presence = 0;  ///< per-core L1 presence bits (LLC only)
    bool emc = false;            ///< EMC directory bit (LLC only)

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(dirty);
        ar.io(presence);
        ar.io(emc);
    }
};

/** Statistics for one cache instance. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;
    std::uint64_t invalidations = 0;

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(hits);
        ar.io(misses);
        ar.io(evictions);
        ar.io(dirty_evictions);
        ar.io(invalidations);
    }
};

/**
 * Set-associative cache over line-aligned addresses.
 * Timing (access latency, ports) lives with the owner; this class is
 * the state: tags, LRU and metadata.
 */
class Cache
{
  public:
    /** Result of an insertion. */
    struct Victim
    {
        bool valid = false;  ///< an existing line was evicted
        Addr addr = kNoAddr; ///< line address of the victim
        CacheLineMeta meta;
    };

    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param name for diagnostics
     */
    Cache(std::size_t size_bytes, unsigned ways, const char *name);

    /**
     * Probe for @p addr. Updates LRU and hit/miss stats.
     * @retval nullptr on miss, else the line's metadata (mutable)
     */
    CacheLineMeta *access(Addr addr);

    /** Probe without disturbing LRU or stats (coherence snoops). */
    CacheLineMeta *peek(Addr addr);
    const CacheLineMeta *peek(Addr addr) const;

    /**
     * Functional-warming probe (DESIGN.md §8): updates LRU exactly as
     * access() would — so the replacement state a fast-forwarded run
     * leaves behind matches a detailed run's — but touches no hit/miss
     * statistics. Fastwarm code must use this instead of access().
     * @retval nullptr on miss, else the line's metadata (mutable)
     */
    CacheLineMeta *warmAccess(Addr addr);

    /**
     * Insert the line for @p addr (must not be present), evicting the
     * LRU way if the set is full.
     */
    Victim insert(Addr addr, const CacheLineMeta &meta = {});

    /**
     * Functional-warming insert: identical tag/LRU/victim behaviour to
     * insert(), but no eviction statistics and no trace hook (fastwarm
     * runs outside simulated time, so an llc_evict instant would carry
     * a meaningless cycle).
     */
    Victim warmInsert(Addr addr, const CacheLineMeta &meta = {});

    /** Remove the line for @p addr if present. @return its metadata. */
    Victim invalidate(Addr addr);

    /**
     * Functional-warming invalidate: identical tag behaviour to
     * invalidate(), but no invalidation statistics — fastwarm's
     * back-invalidations happen outside simulated time.
     */
    Victim warmInvalidate(Addr addr);

    const CacheStats &stats() const { return stats_; }
    std::size_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    const char *name() const { return name_; }

    /** Count of valid lines (tests / occupancy studies). */
    std::size_t validLines() const;

    /**
     * Enumerate every valid line as (line address, metadata). Used by
     * the fastwarm validation mode to compare tag state between a
     * fast-warmed and a detailed-warmed machine.
     */
    void forEachValidLine(
        const std::function<void(Addr, const CacheLineMeta &)> &fn) const;

    /**
     * Tag-store structural check: no set may hold the same tag in two
     * valid ways. @p fail receives a diagnostic per violation; the
     * callback form keeps this library free of a checker dependency.
     */
    void checkConsistent(
        const std::function<void(const std::string &)> &fail) const;

    /**
     * Attach the lifecycle tracer (null detaches). Observation only;
     * emits an llc_evict instant on @p track per valid victim. The
     * cache has no clock of its own, so @p clock points at the owning
     * System's cycle counter.
     */
    void
    setTrace(obs::Tracer *t, obs::Track track, const Cycle *clock)
    {
        tracer_ = t;
        trace_track_ = track;
        trace_clock_ = clock;
    }

    /**
     * Checkpoint tags, LRU state and stats (geometry is config). Every
     * way is written, a never-used set as blank lines, so the bytes
     * are those of a length-prefixed vector of all lines.
     */
    template <class A>
    void
    ser(A &ar)
    {
        ar.length(sets_ * ways_);
        for (std::size_t set = 0; set < sets_; ++set) {
            Line *ways = ar.loading() ? claimSet(set) : setLines(set);
            for (unsigned w = 0; w < ways_; ++w) {
                Line blank;
                ar.io(ways ? ways[w] : blank);
            }
        }
        ar.io(lru_tick_);
        ar.io(stats_);
    }

  private:
    /** One tag-store entry. */
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;   ///< larger = more recent
        CacheLineMeta meta;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(valid);
            ar.io(tag);
            ar.io(lru);
            ar.io(meta);
        }
    };

    std::size_t setIndex(Addr addr) const { return lineNum(addr) % sets_; }
    Addr tagOf(Addr addr) const { return lineNum(addr) / sets_; }

    /** The ways of @p set, or null while the set has never held a line. */
    Line *
    setLines(std::size_t set)
    {
        return set_live_[set] ? &lines_[set * ways_] : nullptr;
    }
    const Line *
    setLines(std::size_t set) const
    {
        return set_live_[set] ? &lines_[set * ways_] : nullptr;
    }

    /** The ways of @p set, blanked first if it never held a line. */
    Line *claimSet(std::size_t set);

    struct FreeLines
    {
        void operator()(Line *p) const { std::free(p); }
    };

    std::size_t sets_;  // ckpt-skip: (geometry is config)
    unsigned ways_;     // ckpt-skip: (geometry is config)
    const char *name_;
    /// sets_ * ways_, row-major by set. Allocated uninitialized: a set's
    /// ways are blanked when it first takes a line, so constructing a
    /// cache writes none of its tags (DESIGN.md §5c).
    std::unique_ptr<Line[], FreeLines> lines_;  // ckpt-skip: (ser walks it by set)
    /// Per set: its ways were blanked (claimSet) and are meaningful.
    std::vector<std::uint8_t> set_live_;  // ckpt-skip: (ser writes every way)
    std::uint64_t lru_tick_ = 0;
    CacheStats stats_;
    obs::Tracer *tracer_ = nullptr;
    obs::Track trace_track_{};  // ckpt-skip: (obs wiring, reattached)
    const Cycle *trace_clock_ = nullptr;
};

/**
 * Miss Status Holding Registers: track outstanding line fills and the
 * consumers (tokens) waiting on each.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::size_t entries) : capacity_(entries) {}

    /** True if a fill for @p line_addr is already outstanding. */
    bool
    has(Addr line_addr) const
    {
        return find(line_addr) >= 0;
    }

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }

    /**
     * Allocate (or merge into) the entry for @p line_addr.
     * @param token consumer to wake on fill
     * @retval true a new entry was allocated (caller issues the fill)
     * @retval false merged into an existing entry
     */
    bool
    allocate(Addr line_addr, std::uint64_t token)
    {
        const int idx = find(line_addr);
        if (idx >= 0) {
            entries_[idx].tokens.push_back(token);
            return false;
        }
        emc_assert(!full(), "MSHR allocate on full file");
        entries_.push_back({line_addr, {token}});
        return true;
    }

    /**
     * Complete the fill for @p line_addr.
     * @param tokens out: all waiting consumers
     * @retval true an entry existed
     */
    bool
    complete(Addr line_addr, std::vector<std::uint64_t> &tokens)
    {
        const int idx = find(line_addr);
        if (idx < 0)
            return false;
        tokens = std::move(entries_[idx].tokens);
        entries_[idx] = entries_.back();
        entries_.pop_back();
        return true;
    }

    /**
     * Structural check: occupancy within capacity, one entry per line
     * address, and no entry without a waiting consumer (an entry that
     * lost its tokens can never be completed meaningfully).
     */
    void
    checkConsistent(
        const std::function<void(const std::string &)> &fail) const
    {
        if (entries_.size() > capacity_) {
            fail("MSHR occupancy " + std::to_string(entries_.size())
                 + " exceeds capacity " + std::to_string(capacity_));
        }
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].tokens.empty()) {
                fail("MSHR entry for line "
                     + std::to_string(entries_[i].line_addr)
                     + " has no waiting consumers");
            }
            for (std::size_t j = i + 1; j < entries_.size(); ++j) {
                if (entries_[i].line_addr == entries_[j].line_addr) {
                    fail("duplicate MSHR entries for line "
                         + std::to_string(entries_[i].line_addr));
                }
            }
        }
    }

    /** Checkpoint outstanding fills (capacity is config). */
    template <class A>
    void
    ser(A &ar)
    {
        ar.io(entries_);
    }

  private:
    /** One outstanding fill and its waiting consumers. */
    struct Entry
    {
        Addr line_addr;
        std::vector<std::uint64_t> tokens;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(line_addr);
            ar.io(tokens);
        }
    };

    int
    find(Addr line_addr) const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].line_addr == line_addr)
                return static_cast<int>(i);
        }
        return -1;
    }

    std::size_t capacity_;  // ckpt-skip: (capacity is config)
    std::vector<Entry> entries_;
};

} // namespace emc

#endif // EMC_CACHE_CACHE_HH
