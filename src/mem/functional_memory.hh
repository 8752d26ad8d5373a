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
 * Base/overlay model (DESIGN.md §7): seal() moves the current pages
 * and tables into an immutable, reference-counted Base and leaves the
 * memory a clean private overlay on it. For a System, the base is the
 * memory a workload generator builds at construction, a pure function
 * of (profile, seed), so one base serves every System that runs that
 * workload (workload/registry.hh). An overlay's directory points at
 * the base's tables until it writes into one, which copies that table;
 * the first write to a base page copies the page. So a slot holds the
 * page reads see and a read does one lookup, whether the page is the
 * overlay's or the base's. Every overlay page is dirty, revert() puts
 * the base pages back, and ser() carries only the dirty words. A
 * memory that was never sealed has no base, so every written word is
 * dirty and every table its own.
 */

#ifndef EMC_MEM_FUNCTIONAL_MEMORY_HH
#define EMC_MEM_FUNCTIONAL_MEMORY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hh"
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

    /** Sealed pages, shared read-only by every overlay on them. */
    class Base;

    FunctionalMemory() = default;

    /** A clean overlay on @p base: reads see it, writes stay private. */
    explicit FunctionalMemory(std::shared_ptr<const Base> base);

    /** The base this memory overlays (null until the first seal()). */
    const std::shared_ptr<const Base> &base() const { return base_; }

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
        set(ownPage(addr >> kPageShift), wordOf(addr), value);
    }

    /** Number of distinct words written (base and dirty). */
    std::size_t
    footprintWords() const
    {
        std::size_t n = 0;
        for (const TableRef &t : tables_) {
            for (const Page *p : *t.read) {
                if (p)
                    n += popcount(p->written);
            }
        }
        return n;
    }

    /** Pages holding at least one dirty word. */
    std::size_t dirtyPages() const { return dirty_.size(); }

    /** Words written since the last seal() (or construction). */
    std::size_t
    dirtyWords() const
    {
        std::size_t n = 0;
        for (const auto &p : dirty_)
            n += popcount(p->dirty);
        return n;
    }

    /**
     * Make the current contents the base: move the pages and tables
     * into a new Base and leave this memory a clean overlay on it.
     * O(tables); only for a memory that has no base yet, such as a
     * workload generator's right after it is built.
     */
    void seal();

    /** Drop every overlay page, so reads see the base again. */
    void
    revert()
    {
        for (const auto &p : dirty_)
            touchSlot(p->number) = p->base;
        dirty_.clear();
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
        std::vector<Page *> pages;
        for (const auto &p : dirty_)
            pages.push_back(p.get());
        std::sort(pages.begin(), pages.end(),
                  [](const Page *a, const Page *b) {
                      return a->number < b->number;
                  });
        std::uint64_t n = pages.size();
        ar.io(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            Page *p = ar.saving() ? pages[i] : nullptr;
            Addr pn = p ? p->number : 0;
            ar.io(pn);
            Mask mask = p ? p->dirty : Mask{};
            for (auto &m : mask)
                ar.io(m);
            for (unsigned mw = 0; mw < kMaskWords; ++mw) {
                for (std::uint64_t bits = mask[mw]; bits != 0;
                     bits &= bits - 1) {
                    const unsigned w =
                        mw * 64 + static_cast<unsigned>(
                                      std::countr_zero(bits));
                    std::uint64_t v = ar.saving() ? p->words[w] : 0;
                    ar.io(v);
                    if (ar.loading()) {
                        if (!p)
                            p = &ownPage(pn);
                        set(*p, w, v);
                    }
                }
            }
        }
    }

  private:
    static constexpr unsigned kMaskWords = kPageWords / 64;
    /// log2 of the page slots per directory table (2 MB per table).
    static constexpr unsigned kTableShift = 9;
    static constexpr std::size_t kNoTable = ~std::size_t{0};

    using Mask = std::array<std::uint64_t, kMaskWords>;

    struct Page
    {
        std::array<std::uint64_t, kPageWords> words{};
        Mask written{};  ///< words ever written (base or dirty)
        Mask dirty{};    ///< words written since seal()
        Addr number = 0;
        /// Overlay page: the base page it copied, or null.
        const Page *base = nullptr;
        /// In a Base: never written again; a write copies it first.
        bool sealed = false;
    };

    /** 512 page slots, each the page reads see, or null. */
    using Table = std::array<const Page *, 1u << kTableShift>;

    /** One directory entry: a 2 MB table of page slots. */
    struct TableRef
    {
        Addr key = 0;  ///< page number >> kTableShift
        /// own, or the base's table until the first write into it.
        const Table *read = nullptr;
        std::unique_ptr<Table> own;
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

    static void
    set(Page &p, unsigned w, std::uint64_t value)
    {
        p.written[w >> 6] |= bitOf(w);
        p.dirty[w >> 6] |= bitOf(w);
        p.words[w] = value;
    }

    /** The table of directory key @p key, or null; cached. */
    const Table *
    findTable(Addr key) const
    {
        if (key == hot_key_)
            return hot_table_;
        auto it = std::lower_bound(
            tables_.begin(), tables_.end(), key,
            [](const TableRef &t, Addr k) { return t.key < k; });
        const bool hit = it != tables_.end() && it->key == key;
        hot_key_ = key;
        hot_index_ = hit ? static_cast<std::size_t>(it - tables_.begin())
                         : kNoTable;
        hot_table_ = hit ? it->read : nullptr;
        return hot_table_;
    }

    const Page *
    findPage(Addr pn) const
    {
        const Table *t = findTable(pn >> kTableShift);
        return t ? (*t)[slotOf(pn)] : nullptr;
    }

    /** The slot of @p pn in a table of this memory's own. */
    const Page *&
    touchSlot(Addr pn)
    {
        const Addr key = pn >> kTableShift;
        findTable(key);
        if (hot_index_ == kNoTable) {
            auto it = std::lower_bound(
                tables_.begin(), tables_.end(), key,
                [](const TableRef &r, Addr k) { return r.key < k; });
            it = tables_.insert(it, TableRef{key, nullptr, nullptr});
            hot_index_ = static_cast<std::size_t>(it - tables_.begin());
        }
        TableRef &r = tables_[hot_index_];
        if (!r.own) {
            r.own = r.read ? std::make_unique<Table>(*r.read)
                           : std::make_unique<Table>();
            r.read = r.own.get();
            hot_table_ = r.read;
        }
        return (*r.own)[slotOf(pn)];
    }

    /** The overlay page of @p pn, copied from the base on first use. */
    Page &
    ownPage(Addr pn)
    {
        const Page *&slot = touchSlot(pn);
        if (!slot || slot->sealed) {
            auto p = slot ? std::make_unique<Page>(*slot)
                          : std::make_unique<Page>();
            p->number = pn;
            p->base = slot;
            p->sealed = false;
            slot = p.get();
            dirty_.push_back(std::move(p));
        }
        // An unsealed page is one of dirty_'s, which this memory owns.
        return const_cast<Page &>(*slot);
    }

    // ckpt-skip: (shared base, rebuilt by construction)
    std::shared_ptr<const Base> base_;
    // ckpt-skip: (directory over base_ and dirty_; ser() saves dirty words)
    std::vector<TableRef> tables_;
    /// The overlay pages, in first-write order; ser() sorts them.
    std::vector<std::unique_ptr<Page>> dirty_;
    mutable Addr hot_key_ = ~Addr{0};  // ckpt-skip: (lookup cache)
    // ckpt-skip: (lookup cache: tables_ index of hot_key_, or kNoTable)
    mutable std::size_t hot_index_ = kNoTable;
    mutable const Table *hot_table_ = nullptr;  ///< read of hot_index_
};

/**
 * The pages and tables seal() took from a memory. Immutable once
 * built, so overlays on several threads read one Base without
 * locking; each overlay keeps its own directory and lookup cache.
 */
class FunctionalMemory::Base
{
  public:
    Base() = default;
    Base(const Base &) = delete;
    Base &operator=(const Base &) = delete;

    ~Base()
    {
        for (const TableRef &t : tables) {
            for (const Page *p : *t.read)
                delete p;
        }
    }

  private:
    friend class FunctionalMemory;

    /// Every page in these tables is this Base's; it frees them.
    std::vector<TableRef> tables;
};

inline void
FunctionalMemory::seal()
{
    // An overlay shares tables and pages with its base, which would
    // free them under the new one.
    emc_assert(!base_, "seal() a memory that has no base");
    auto base = std::make_shared<Base>();
    for (auto &p : dirty_) {
        p->dirty = {};
        p->sealed = true;
        static_cast<void>(p.release());  // the Base frees it
    }
    dirty_.clear();
    for (TableRef &r : tables_)
        base->tables.push_back({r.key, r.read, std::move(r.own)});
    base_ = std::move(base);
}

inline FunctionalMemory::FunctionalMemory(std::shared_ptr<const Base> base)
    : base_(std::move(base))
{
    tables_.reserve(base_->tables.size());
    for (const TableRef &t : base_->tables)
        tables_.push_back({t.key, t.read, nullptr});
}

} // namespace emc

#endif // EMC_MEM_FUNCTIONAL_MEMORY_HH
