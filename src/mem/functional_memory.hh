/**
 * @file
 * Paged functional memory backing the simulated address spaces.
 *
 * The timing model never reads data out of the DRAM model — values
 * come from here, keyed by virtual address, one address space per
 * core (multi-programmed SPEC-style mixes have disjoint spaces).
 *
 * Storage is a flat word store in fixed 4 KB pages of 512 words, each
 * with a written-word bitmap, reached through a two-level directory:
 * a sorted vector of 2 MB tables (512 page slots each) with a one-entry
 * hot-table cache, so a lookup never hashes the word address.
 *
 * Base/dirty model (DESIGN.md §7): seal() declares the current
 * contents the *base* — for a System, the memory its workload
 * generator builds at construction, a pure function of (profile,
 * seed). Later writes mark words dirty and keep a copy-on-write copy
 * of the page's base contents, so revert() can restore the base and
 * ser() carries only the dirty words. An unsealed memory has an empty
 * (all-zero) base, so every written word is dirty.
 */

#ifndef EMC_MEM_FUNCTIONAL_MEMORY_HH
#define EMC_MEM_FUNCTIONAL_MEMORY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace emc
{

/**
 * Word-granular paged memory. Addresses are 8-byte aligned internally
 * (the generated programs only do aligned 64-bit accesses).
 */
class FunctionalMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr unsigned kPageWords = 1u << (kPageShift - 3);

    /** Read the 64-bit word at @p addr (zero if never written). */
    std::uint64_t
    read(Addr addr) const
    {
        const Page *p = findPage(addr >> kPageShift);
        return p ? p->words[wordOf(addr)] : 0;
    }

    /** Write the 64-bit word at @p addr. */
    void
    write(Addr addr, std::uint64_t value)
    {
        Page &p = touchPage(addr >> kPageShift);
        const unsigned w = wordOf(addr);
        if (!(p.dirty[w >> 6] & bitOf(w)))
            markDirty(p, w);
        p.words[w] = value;
    }

    /** Number of distinct words written (base and dirty). */
    std::size_t
    footprintWords() const
    {
        std::size_t n = 0;
        for (const auto &t : tables_) {
            for (const auto &slot : *t.pages) {
                if (slot)
                    n += popcount(slot->written);
            }
        }
        return n;
    }

    /** Pages holding at least one dirty word. */
    std::size_t dirtyPages() const { return dirty_pages_.size(); }

    /** Words written since the last seal() (or construction). */
    std::size_t
    dirtyWords() const
    {
        std::size_t n = 0;
        for (const Addr pn : dirty_pages_)
            n += popcount(findPage(pn)->dirty);
        return n;
    }

    /**
     * Make the current contents the base: clear every dirty mark and
     * drop the base copies. O(pages); called once per memory, right
     * after its workload generator is built.
     */
    void
    seal()
    {
        for (auto &t : tables_) {
            for (auto &slot : *t.pages) {
                if (!slot)
                    continue;
                slot->in_base = true;
                slot->base.reset();
                slot->dirty = {};
                slot->listed = false;
            }
        }
        dirty_pages_.clear();
    }

    /** Return every dirty page to its base contents. */
    void
    revert()
    {
        for (const Addr pn : dirty_pages_) {
            Page &p = *findPage(pn);
            if (p.base) {
                p.words = p.base->words;
                p.written = p.base->written;
                p.base.reset();
            } else {
                p.words = {};
                p.written = {};
            }
            p.dirty = {};
            p.listed = false;
        }
        dirty_pages_.clear();
    }

    /**
     * Checkpoint the dirty words only: per dirty page, in ascending
     * page order, the page number, its dirty bitmap and the dirty
     * values. Loading first reverts to the base, so a restored memory
     * equals the saved one whenever both share a base.
     */
    template <class A>
    void
    ser(A &ar)
    {
        if (ar.loading())
            revert();
        std::vector<Addr> pns = dirty_pages_;
        std::sort(pns.begin(), pns.end());
        std::uint64_t n = pns.size();
        ar.io(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr pn = ar.saving() ? pns[i] : 0;
            ar.io(pn);
            Page &p = ar.saving() ? *findPage(pn) : touchPage(pn);
            Mask mask = p.dirty;
            for (auto &m : mask)
                ar.io(m);
            for (unsigned mw = 0; mw < kMaskWords; ++mw) {
                for (std::uint64_t bits = mask[mw]; bits != 0;
                     bits &= bits - 1) {
                    const unsigned w =
                        mw * 64 + static_cast<unsigned>(
                                      std::countr_zero(bits));
                    std::uint64_t v = p.words[w];
                    ar.io(v);
                    if (ar.loading()) {
                        if (!(p.dirty[mw] & bitOf(w)))
                            markDirty(p, w);
                        p.words[w] = v;
                    }
                }
            }
        }
    }

  private:
    static constexpr unsigned kMaskWords = kPageWords / 64;
    /// log2 of the page slots per directory table (2 MB per table).
    static constexpr unsigned kTableShift = 9;

    using Mask = std::array<std::uint64_t, kMaskWords>;

    /** A page's contents when it was sealed (copy-on-write). */
    struct BaseCopy
    {
        std::array<std::uint64_t, kPageWords> words;
        Mask written;
    };

    struct Page
    {
        std::array<std::uint64_t, kPageWords> words{};
        Mask written{};  ///< words ever written (base or dirty)
        Mask dirty{};    ///< words written since seal()
        Addr number = 0;
        bool listed = false;   ///< on dirty_pages_
        bool in_base = false;  ///< existed when the memory was sealed
        /// Set on the first dirty write to an in-base page.
        std::unique_ptr<BaseCopy> base;
    };

    using Table = std::array<std::unique_ptr<Page>, 1u << kTableShift>;

    /** One directory entry: a 2 MB table of page slots. */
    struct TableRef
    {
        Addr key = 0;  ///< page number >> kTableShift
        std::unique_ptr<Table> pages;
    };

    static unsigned
    wordOf(Addr addr)
    {
        return static_cast<unsigned>(addr >> 3) & (kPageWords - 1);
    }

    static std::uint64_t bitOf(unsigned w) { return 1ULL << (w & 63); }

    static std::size_t
    popcount(const Mask &m)
    {
        std::size_t n = 0;
        for (const std::uint64_t b : m)
            n += static_cast<std::size_t>(std::popcount(b));
        return n;
    }

    static unsigned
    slotOf(Addr pn)
    {
        return static_cast<unsigned>(pn) & ((1u << kTableShift) - 1);
    }

    Table *
    findTable(Addr key) const
    {
        if (key == hot_key_)
            return hot_table_;
        auto it = std::lower_bound(
            tables_.begin(), tables_.end(), key,
            [](const TableRef &t, Addr k) { return t.key < k; });
        Table *t =
            (it != tables_.end() && it->key == key) ? it->pages.get()
                                                    : nullptr;
        hot_key_ = key;
        hot_table_ = t;
        return t;
    }

    Page *
    findPage(Addr pn) const
    {
        Table *t = findTable(pn >> kTableShift);
        return t ? (*t)[slotOf(pn)].get() : nullptr;
    }

    Page &
    touchPage(Addr pn)
    {
        const Addr key = pn >> kTableShift;
        Table *t = findTable(key);
        if (!t) {
            auto it = std::lower_bound(
                tables_.begin(), tables_.end(), key,
                [](const TableRef &r, Addr k) { return r.key < k; });
            it = tables_.insert(
                it, TableRef{key, std::make_unique<Table>()});
            t = it->pages.get();
            hot_key_ = key;
            hot_table_ = t;
        }
        std::unique_ptr<Page> &slot = (*t)[slotOf(pn)];
        if (!slot) {
            slot = std::make_unique<Page>();
            slot->number = pn;
        }
        return *slot;
    }

    /** First write to word @p w of @p p since seal(). */
    void
    markDirty(Page &p, unsigned w)
    {
        if (!p.listed) {
            if (p.in_base)
                p.base = std::make_unique<BaseCopy>(p.words, p.written);
            dirty_pages_.push_back(p.number);
            p.listed = true;
        }
        p.written[w >> 6] |= bitOf(w);
        p.dirty[w >> 6] |= bitOf(w);
    }

    // ckpt-skip: (base rebuilt by construction; ser() saves dirty words)
    std::vector<TableRef> tables_;
    std::vector<Addr> dirty_pages_;  ///< first-dirty order; ser() sorts
    mutable Addr hot_key_ = ~Addr{0};  // ckpt-skip: (lookup cache)
    mutable Table *hot_table_ = nullptr;  ///< table of hot_key_, or null
};

} // namespace emc

#endif // EMC_MEM_FUNCTIONAL_MEMORY_HH
