#include "cache/cache.hh"

#include <algorithm>
#include <new>

namespace emc
{

Cache::Cache(std::size_t size_bytes, unsigned ways, const char *name)
    : ways_(ways), name_(name)
{
    emc_assert(ways >= 1, "cache needs at least one way");
    emc_assert(size_bytes % (static_cast<std::size_t>(ways) * kLineBytes)
                   == 0,
               "cache size must be a multiple of ways * line size");
    sets_ = size_bytes / (static_cast<std::size_t>(ways) * kLineBytes);
    emc_assert(sets_ >= 1, "cache needs at least one set");
    lines_.reset(static_cast<Line *>(
        std::malloc(sets_ * ways_ * sizeof(Line))));
    if (!lines_)
        throw std::bad_alloc();
    set_live_.assign(sets_, 0);
}

Cache::Line *
Cache::claimSet(std::size_t set)
{
    Line *ways = &lines_[set * ways_];
    if (!set_live_[set]) {
        std::fill_n(ways, ways_, Line{});
        set_live_[set] = 1;
    }
    return ways;
}

CacheLineMeta *
Cache::access(Addr addr)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *ways = setLines(set);
    for (unsigned w = 0; ways && w < ways_; ++w) {
        Line &line = ways[w];
        if (line.valid && line.tag == tag) {
            line.lru = ++lru_tick_;
            ++stats_.hits;
            return &line.meta;
        }
    }
    ++stats_.misses;
    return nullptr;
}

CacheLineMeta *
Cache::peek(Addr addr)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *ways = setLines(set);
    for (unsigned w = 0; ways && w < ways_; ++w) {
        Line &line = ways[w];
        if (line.valid && line.tag == tag)
            return &line.meta;
    }
    return nullptr;
}

const CacheLineMeta *
Cache::peek(Addr addr) const
{
    return const_cast<Cache *>(this)->peek(addr);
}

CacheLineMeta *
Cache::warmAccess(Addr addr)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *ways = setLines(set);
    for (unsigned w = 0; ways && w < ways_; ++w) {
        Line &line = ways[w];
        if (line.valid && line.tag == tag) {
            line.lru = ++lru_tick_;
            return &line.meta;
        }
    }
    return nullptr;
}

Cache::Victim
Cache::insert(Addr addr, const CacheLineMeta &meta)
{
    emc_assert(peek(addr) == nullptr, "insert of already-present line");
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);

    // Prefer an invalid way; otherwise evict true-LRU.
    Line *victim = nullptr;
    Line *ways = claimSet(set);
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = ways[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }

    Victim out;
    if (victim->valid) {
        out.valid = true;
        // Reconstruct the victim's line address from tag and set.
        out.addr = (victim->tag * sets_ + set) << kLineShift;
        out.meta = victim->meta;
        ++stats_.evictions;
        if (victim->meta.dirty)
            ++stats_.dirty_evictions;
        EMC_OBS_POINT(tracer_, obs::TracePoint::kLlcEvict,
                      trace_clock_ ? *trace_clock_ : 0, out.addr,
                      trace_track_, out.addr);
    }

    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++lru_tick_;
    victim->meta = meta;
    return out;
}

Cache::Victim
Cache::warmInsert(Addr addr, const CacheLineMeta &meta)
{
    emc_assert(peek(addr) == nullptr, "insert of already-present line");
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);

    Line *victim = nullptr;
    Line *ways = claimSet(set);
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = ways[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }

    Victim out;
    if (victim->valid) {
        out.valid = true;
        out.addr = (victim->tag * sets_ + set) << kLineShift;
        out.meta = victim->meta;
    }

    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++lru_tick_;
    victim->meta = meta;
    return out;
}

Cache::Victim
Cache::invalidate(Addr addr)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Victim out;
    Line *ways = setLines(set);
    for (unsigned w = 0; ways && w < ways_; ++w) {
        Line &line = ways[w];
        if (line.valid && line.tag == tag) {
            out.valid = true;
            out.addr = lineAlign(addr);
            out.meta = line.meta;
            line.valid = false;
            ++stats_.invalidations;
            return out;
        }
    }
    return out;
}

Cache::Victim
Cache::warmInvalidate(Addr addr)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Victim out;
    Line *ways = setLines(set);
    for (unsigned w = 0; ways && w < ways_; ++w) {
        Line &line = ways[w];
        if (line.valid && line.tag == tag) {
            out.valid = true;
            out.addr = lineAlign(addr);
            out.meta = line.meta;
            line.valid = false;
            return out;
        }
    }
    return out;
}

std::size_t
Cache::validLines() const
{
    std::size_t n = 0;
    for (std::size_t set = 0; set < sets_; ++set) {
        const Line *ways = setLines(set);
        for (unsigned w = 0; ways && w < ways_; ++w)
            n += ways[w].valid ? 1 : 0;
    }
    return n;
}

void
Cache::forEachValidLine(
    const std::function<void(Addr, const CacheLineMeta &)> &fn) const
{
    for (std::size_t set = 0; set < sets_; ++set) {
        const Line *ways = setLines(set);
        for (unsigned w = 0; ways && w < ways_; ++w) {
            const Line &line = ways[w];
            if (line.valid)
                fn((line.tag * sets_ + set) << kLineShift, line.meta);
        }
    }
}

void
Cache::checkConsistent(
    const std::function<void(const std::string &)> &fail) const
{
    for (std::size_t set = 0; set < sets_; ++set) {
        const Line *ways = setLines(set);
        for (unsigned w = 0; ways && w < ways_; ++w) {
            const Line &a = ways[w];
            if (!a.valid)
                continue;
            for (unsigned v = w + 1; v < ways_; ++v) {
                const Line &b = ways[v];
                if (b.valid && b.tag == a.tag) {
                    fail(std::string(name_) + ": set "
                         + std::to_string(set) + " holds tag "
                         + std::to_string(a.tag)
                         + " in two valid ways");
                }
            }
        }
    }
}

} // namespace emc
