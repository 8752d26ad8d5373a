/**
 * @file
 * Core TLB (fixed-latency page walk on miss) and the EMC's small
 * per-core circular-buffer TLB described in Section 4.1.4.
 */

#ifndef EMC_VM_TLB_HH
#define EMC_VM_TLB_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "vm/page_table.hh"

namespace emc
{

/**
 * A simple fully-associative LRU TLB used at the cores. Misses pay a
 * fixed page-walk latency (the walk's memory traffic is not modeled;
 * it is off the critical path for the phenomena studied here).
 */
class Tlb
{
  public:
    explicit Tlb(std::size_t entries = 64, Cycle walk_latency = 30)
        : entries_(entries), walk_latency_(walk_latency)
    {}

    /**
     * Translate through the TLB.
     * @param pt the backing page table
     * @param vaddr the virtual address
     * @param extra_latency out: 0 on hit, walk latency on miss
     * @return the physical address
     */
    Addr
    translate(PageTable &pt, Addr vaddr, Cycle &extra_latency)
    {
        extra_latency = touch(vaddr) ? 0 : walk_latency_;
        return pt.translate(vaddr);
    }

    /**
     * The TLB side of translate() alone: LRU update and hit/miss
     * counters, no page-table lookup. A load that re-executes replays
     * its translation through this once the page is mapped.
     * @retval true on a hit
     */
    bool
    touch(Addr vaddr)
    {
        ++changes_;
        const Addr vp = pageNum(vaddr);
        auto it = map_.find(vp);
        if (it != map_.end()) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        ++misses_;
        insert(vp);
        return false;
    }

    /**
     * Count @p n hits without touching the LRU stack: what replaying a
     * sequence of touches that all hit, with nothing in between since
     * the same sequence last ran, would do (DESIGN.md §5c).
     */
    void creditHits(std::uint64_t n) { hits_ += n; }

    /**
     * Functional-warming translate (DESIGN.md §8): identical LRU and
     * residency behaviour to translate(), but no hit/miss counters and
     * no walk latency — fastwarm runs outside simulated time.
     */
    Addr
    warmTranslate(PageTable &pt, Addr vaddr)
    {
        ++changes_;
        const Addr vp = pageNum(vaddr);
        auto it = map_.find(vp);
        if (it != map_.end())
            lru_.splice(lru_.begin(), lru_, it->second);
        else
            insert(vp);
        return pt.translate(vaddr);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /**
     * Advances on every lookup and on restore, never otherwise: equal
     * values bracket a stretch in which the LRU stack did not move.
     */
    std::uint64_t changes() const { return changes_; }

    /** True if @p vaddr's page is resident (no LRU or counter effect). */
    bool resident(Addr vaddr) const { return map_.count(pageNum(vaddr)); }

    /**
     * The resident virtual pages, MRU first (fastwarm validation
     * compares the resident sets of a fast-warmed and a detailed-warmed
     * TLB).
     */
    const std::list<Addr> &residentPages() const { return lru_; }

    /**
     * Checkpoint the LRU stack and counters; the address -> node map
     * is an iterator cache rebuilt from the list on load.
     */
    template <class A>
    void
    ser(A &ar)
    {
        ar.io(lru_);
        ar.io(hits_);
        ar.io(misses_);
        if (ar.loading()) {
            ++changes_;
            map_.clear();
            for (auto it = lru_.begin(); it != lru_.end(); ++it)
                map_[*it] = it;
        }
    }

  private:
    void
    insert(Addr vp)
    {
        if (lru_.size() >= entries_) {
            map_.erase(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(vp);
        map_[vp] = lru_.begin();
    }

    std::size_t entries_;  // ckpt-skip: (capacity is config)
    Cycle walk_latency_;   // ckpt-skip: (latency is config)
    std::list<Addr> lru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t changes_ = 0;  // ckpt-skip: (host-only replay guard)
};

/**
 * EMC TLB: one 32-entry circular buffer per core caching the PTEs of
 * the last pages the EMC accessed on that core's behalf (Section
 * 4.1.4). The EMC never walks page tables: a miss halts the chain and
 * the core re-executes it. The core tracks which of its PTEs are
 * resident here (the "EMC-resident" bit) so it can attach the source
 * miss PTE to an outgoing chain when needed, and so TLB shootdowns can
 * invalidate EMC entries.
 */
class EmcTlb
{
  public:
    explicit EmcTlb(std::size_t entries = 32)
        : entries_(entries), buffer_(entries)
    {}

    /** Look up the frame for @p vpage. @retval false on EMC-TLB miss. */
    bool
    lookup(Addr vpage, Addr &pframe)
    {
        for (const auto &pte : buffer_) {
            if (pte.valid && pte.vpage == vpage) {
                pframe = pte.pframe;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /** True if the PTE for @p vpage is resident (no stats side effect). */
    bool
    resident(Addr vpage) const
    {
        for (const auto &pte : buffer_) {
            if (pte.valid && pte.vpage == vpage)
                return true;
        }
        return false;
    }

    /** Insert a PTE shipped from the core (circular replacement). */
    void
    insert(const Pte &pte)
    {
        buffer_[head_] = pte;
        head_ = (head_ + 1) % entries_;
    }

    /** Shootdown: invalidate the mapping for @p vpage if present. */
    void
    shootdown(Addr vpage)
    {
        for (auto &pte : buffer_) {
            if (pte.valid && pte.vpage == vpage)
                pte.valid = false;
        }
    }

    void
    flush()
    {
        for (auto &pte : buffer_)
            pte.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(buffer_);
        ar.io(head_);
        ar.io(hits_);
        ar.io(misses_);
    }

  private:
    std::size_t entries_;  // ckpt-skip: (capacity is config)
    std::vector<Pte> buffer_;
    std::size_t head_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace emc

#endif // EMC_VM_TLB_HH
