#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cache/cache.hh"
#include "ckpt/ckpt.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "dram/dram_channel.hh"
#include "mem/functional_memory.hh"
#include "ring/ring.hh"
#include "sim/event_queue.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "trace/record.hh"
#include "vm/page_table.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace emcbench
{
namespace
{

using emc::Addr;
using emc::Cycle;
using emc::Rng;

/** Post-warmup cycles of the dumped run (its longest core window). */
double
measuredCycles(const Shape &s)
{
    double c = 1;
    for (unsigned i = 0; i < s.cfg.num_cores; ++i)
        c = std::max(c, s.dump.get("core" + std::to_string(i) + ".cycles"));
    return c;
}

/** @p a / @p b, or @p dflt when @p b is 0. */
double
ratio(double a, double b, double dflt)
{
    return b > 0 ? a / b : dflt;
}

/** Events in one cycle of a stream with mean @p rate per cycle. */
unsigned
arrivals(Rng &rng, double rate)
{
    const double whole = std::floor(rate);
    return static_cast<unsigned>(whole) + (rng.chance(rate - whole) ? 1 : 0);
}

/** One RNG stream per drive, all derived from the benchmark seed. */
Rng
driveRng(const Shape &s, std::uint64_t drive)
{
    return Rng(s.seed * 0x9e3779b97f4a7c15ULL + drive);
}

double
nsPer(Clock::time_point t0, std::uint64_t n)
{
    return secondsBetween(t0, Clock::now()) * 1e9
           / static_cast<double>(std::max<std::uint64_t>(n, 1));
}

/** A line request the stub chip has yet to answer. */
struct PendingFill
{
    Addr line;
    Cycle notice_at;  ///< LLC lookup done: a miss is known
    Cycle fill_at;
    bool miss;
};

/**
 * Fixed-latency chip stub, shaped like FakeChip in tests/test_core.cpp:
 * every request is accepted, misses the LLC with the workload's
 * measured miss ratio (known one LLC lookup later), and fills after
 * the workload's mean miss latency or a fixed hit latency. Chains are
 * refused, as when every EMC context is busy.
 */
class StubChip : public emc::CorePort
{
  public:
    StubChip(double miss_ratio, Cycle lookup, Cycle hit_latency,
             Cycle miss_latency, Rng rng)
        : miss_ratio_(miss_ratio), lookup_(lookup),
          hit_latency_(hit_latency), miss_latency_(miss_latency),
          rng_(rng)
    {}

    bool
    requestLine(emc::CoreId, Addr line, Addr, bool, bool) override
    {
        const bool miss = rng_.chance(miss_ratio_);
        pending_.push_back({line, now_ + lookup_,
                            now_ + (miss ? miss_latency_ : hit_latency_),
                            miss});
        return true;
    }

    void storeThrough(emc::CoreId, Addr) override {}
    bool offloadChain(const emc::ChainRequest &) override { return false; }
    bool emcTlbResident(emc::CoreId, Addr) override { return false; }
    Cycle now() const override { return now_; }

    /** Advance one cycle: deliver due notices and fills, tick @p core. */
    void
    step(emc::Core &core)
    {
        ++now_;
        for (std::size_t i = 0; i < pending_.size();) {
            const PendingFill p = pending_[i];
            if (p.miss && p.notice_at == now_)
                core.llcMissDetermined(p.line);
            if (p.fill_at <= now_) {
                pending_[i] = pending_.back();
                pending_.pop_back();
                core.fillArrived(p.line, p.miss);
            } else {
                ++i;
            }
        }
        core.tick();
    }

  private:
    double miss_ratio_;
    Cycle lookup_;
    Cycle hit_latency_;
    Cycle miss_latency_;
    Rng rng_;
    Cycle now_ = 0;
    std::vector<PendingFill> pending_;
};

} // namespace

double
driveCore(const Shape &s, std::uint64_t ticks)
{
    emc::FunctionalMemory mem;
    emc::SyntheticProgram program(emc::profileByName(s.mix.front()), mem,
                                  emc::trace::generatorSeed(s.cfg.seed, 0));
    emc::PageTable pt(0, s.cfg.seed);
    const Cycle lookup = s.cfg.llc_latency + 4;
    const Cycle miss_latency = std::max<Cycle>(
        lookup + 1,
        static_cast<Cycle>(std::llround(s.dump.get("lat.core_total"))));
    StubChip chip(ratio(s.dump.get("llc.demand_misses"),
                        s.dump.get("llc.demand_accesses"), 0.5),
                  lookup, lookup + 4, miss_latency, driveRng(s, 1));
    emc::CoreConfig cc = s.cfg.core;
    cc.emc_enabled = s.cfg.emc_enabled;
    emc::Core core(0, cc, &program, &pt, &chip);

    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < ticks; ++i)
        chip.step(core);
    const double ns = nsPer(t0, ticks);
    if (ticks > 0 && core.retired() == 0)
        throw std::runtime_error("core drive retired no uop");
    return ns;
}

double
driveDram(const Shape &s, std::uint64_t ticks)
{
    const emc::SystemConfig &cfg = s.cfg;
    const double reads = s.dump.get("dram.reads");
    const double writes = s.dump.get("dram.writes");
    const double row_hits = s.dump.get("dram.row_hits");
    const double rate =
        (reads + writes) / (measuredCycles(s) * cfg.dram.channels);
    const double write_frac = ratio(writes, reads + writes, 0);
    const double row_hit_frac =
        ratio(row_hits,
              row_hits + s.dump.get("dram.row_empty")
                  + s.dump.get("dram.row_conflicts"),
              0);

    // The arrival schedule. A row hit continues the previous request's
    // row: the next column of the same channel and bank.
    struct Arrival
    {
        Cycle at;
        emc::MemRequest req;
    };
    std::vector<Arrival> schedule;
    std::uint64_t scheduled_reads = 0;
    Rng rng = driveRng(s, 2);
    const std::uint64_t next_column =
        static_cast<std::uint64_t>(cfg.dram.channels)
        * cfg.dram.banks_per_rank;
    std::uint64_t line = 0;
    for (Cycle c = 1; c <= ticks; ++c) {
        for (unsigned n = arrivals(rng, rate); n > 0; --n) {
            line = rng.chance(row_hit_frac) ? line + next_column
                                            : rng.below(1ull << 24);
            emc::MemRequest r;
            r.id = r.token = schedule.size() + 1;
            r.paddr = line << emc::kLineShift;
            r.is_write = rng.chance(write_frac);
            r.origin = r.is_write ? emc::ReqOrigin::kWriteback
                                  : emc::ReqOrigin::kCoreDemand;
            r.core = static_cast<emc::CoreId>(rng.below(cfg.num_cores));
            scheduled_reads += r.is_write ? 0 : 1;
            schedule.push_back({c, r});
        }
    }

    const std::size_t queue =
        std::max<std::size_t>(8, cfg.mc_queue_entries / cfg.dram.channels);
    emc::DramChannel ch(cfg.dram, cfg.timing, cfg.sched, queue,
                        cfg.num_cores);
    std::uint64_t completed = 0;
    ch.setCallback([&completed](const emc::MemRequest &) { ++completed; });
    std::size_t next = 0;
    const Clock::time_point t0 = Clock::now();
    for (Cycle c = 1; c <= ticks; ++c) {
        // A full read queue holds later arrivals back, as the memory
        // controller's backpressure does.
        while (next < schedule.size() && schedule[next].at <= c
               && ch.enqueue(schedule[next].req, c)) {
            ++next;
        }
        ch.tick(c);
    }
    const double ns = nsPer(t0, ticks);
    if (scheduled_reads > 0 && completed == 0)
        throw std::runtime_error("DRAM drive completed no read");
    return ns;
}

double
driveRing(const Shape &s, std::uint64_t ticks)
{
    const unsigned stops = s.cfg.num_cores + s.cfg.num_mcs;
    const double cycles = measuredCycles(s);
    const double rates[2] = {s.dump.get("ring.control_msgs") / cycles,
                             s.dump.get("ring.data_msgs") / cycles};
    struct Send
    {
        Cycle at;
        bool data;
        emc::RingMsg msg;
    };
    std::vector<Send> schedule;
    Rng rng = driveRng(s, 3);
    for (Cycle c = 1; c <= ticks; ++c) {
        for (int d = 0; d < 2; ++d) {
            for (unsigned n = arrivals(rng, rates[d]); n > 0; --n) {
                emc::RingMsg m;
                m.type = d ? emc::MsgType::kFillToCore
                           : emc::MsgType::kMemRead;
                m.src = static_cast<unsigned>(rng.below(stops));
                m.dst = (m.src + 1
                         + static_cast<unsigned>(rng.below(stops - 1)))
                        % stops;
                m.token = schedule.size();
                schedule.push_back({c, d == 1, m});
            }
        }
    }

    emc::Ring control(stops, false);
    emc::Ring data(stops, true);
    std::uint64_t delivered = 0;
    const auto count = [&delivered](const emc::RingMsg &) { ++delivered; };
    control.setDeliver(count);
    data.setDeliver(count);
    std::size_t next = 0;
    const Clock::time_point t0 = Clock::now();
    for (Cycle c = 1; c <= ticks; ++c) {
        for (; next < schedule.size() && schedule[next].at == c; ++next) {
            (schedule[next].data ? data : control)
                .send(schedule[next].msg, c);
        }
        control.tick(c);
        data.tick(c);
    }
    const double ns = nsPer(t0, ticks);
    if (!schedule.empty() && delivered == 0)
        throw std::runtime_error("ring drive delivered no message");
    return ns;
}

double
driveEventQueue(const Shape &s, std::uint64_t events)
{
    // About one System event per ring message and per LLC lookup,
    // scheduled up to twice the mean miss latency ahead (some beyond
    // the calendar's wheel, as in the System).
    const double rate = std::max(
        0.01, (s.dump.get("ring.control_msgs") + s.dump.get("ring.data_msgs")
               + s.dump.get("llc.demand_accesses"))
                  / measuredCycles(s));
    const Cycle max_delay = std::max<Cycle>(
        2, 2 * static_cast<Cycle>(std::llround(s.dump.get("lat.core_total"))));
    struct Push
    {
        Cycle at;
        Cycle when;
    };
    std::vector<Push> schedule;
    schedule.reserve(events);
    Rng rng = driveRng(s, 4);
    for (Cycle c = 1; schedule.size() < events; ++c) {
        for (unsigned n = arrivals(rng, rate);
             n > 0 && schedule.size() < events; --n) {
            schedule.push_back({c, c + 1 + rng.below(max_delay)});
        }
    }

    emc::CalendarQueue<std::uint64_t> queue;
    std::uint64_t popped = 0;
    std::uint64_t out = 0;
    std::size_t next = 0;
    const Clock::time_point t0 = Clock::now();
    for (Cycle c = 1; popped < events; ++c) {
        for (; next < schedule.size() && schedule[next].at == c; ++next)
            queue.push(schedule[next].when, next);
        while (queue.popUpTo(c, out))
            ++popped;
    }
    return nsPer(t0, events);
}

double
driveCache(const Shape &s, std::uint64_t accesses)
{
    const double hit_frac =
        1.0 - ratio(s.dump.get("llc.demand_misses"),
                    s.dump.get("llc.demand_accesses"), 0.5);
    emc::Cache llc(s.cfg.llc_slice_bytes, s.cfg.llc_ways, "llc_slice");

    // Hits go to a hot set of half the slice's lines, which LRU keeps
    // mostly resident; misses go to lines never touched before.
    const std::uint64_t hot_lines =
        s.cfg.llc_slice_bytes / emc::kLineBytes / 2;
    Rng rng = driveRng(s, 5);
    std::vector<Addr> hot(hot_lines);
    for (Addr &a : hot)
        a = rng.below(1ull << 26) << emc::kLineShift;
    std::vector<Addr> addrs(accesses);
    Addr fresh = Addr{1} << 40;
    for (Addr &a : addrs) {
        a = rng.chance(hit_frac) ? hot[rng.below(hot_lines)]
                                 : (fresh += emc::kLineBytes);
    }
    for (Addr a : hot) {
        if (!llc.peek(a))
            llc.insert(a);
    }

    std::uint64_t hits = 0;
    const Clock::time_point t0 = Clock::now();
    for (Addr a : addrs) {
        if (llc.access(a))
            ++hits;
        else
            llc.insert(a);
    }
    const double ns = nsPer(t0, accesses);
    if (hit_frac > 0.01 && accesses > 1000 && hits == 0)
        throw std::runtime_error("cache drive hit no line");
    return ns;
}

WorkloadCost
driveWorkload(const Shape &s, std::uint64_t gen_uops)
{
    WorkloadCost w;
    double gen_s = 0;
    std::uint64_t generated = 0;
    for (unsigned i = 0; i < s.mix.size(); ++i) {
        // Build each distinct profile once, with the seed its first
        // core gets in the System, and count it for every core that
        // runs it.
        const std::string &name = s.mix[i];
        if (std::find(s.mix.begin(), s.mix.begin() + i, name)
            != s.mix.begin() + i) {
            continue;
        }
        const double copies = static_cast<double>(
            std::count(s.mix.begin(), s.mix.end(), name));
        emc::FunctionalMemory mem;
        Clock::time_point t = Clock::now();
        emc::SyntheticProgram program(
            emc::profileByName(name), mem,
            emc::trace::generatorSeed(s.cfg.seed, i));
        w.build_s += copies * secondsBetween(t, Clock::now());
        w.footprint_words +=
            copies * static_cast<double>(mem.footprintWords());
        emc::DynUop d;
        t = Clock::now();
        for (std::uint64_t n = 0; n < gen_uops; ++n)
            program.next(d);
        gen_s += secondsBetween(t, Clock::now());
        generated += gen_uops;
    }
    w.gen_ns_per_uop = gen_s * 1e9
                       / static_cast<double>(
                           std::max<std::uint64_t>(generated, 1));
    return w;
}

CkptCost
driveCkpt(const Shape &s, SpanRecorder &rec)
{
    CkptCost c;
    std::vector<std::uint8_t> image;
    {
        emc::System warm(s.cfg, s.mix);
        Clock::time_point t = Clock::now();
        std::uint64_t uops = 0;
        {
            Span span(rec, "fastwarm.forward");
            uops = warm.fastForward(s.cfg.warmup_uops);
        }
        c.fastwarm_uops_per_s =
            static_cast<double>(uops) / secondsBetween(t, Clock::now());
        t = Clock::now();
        {
            Span span(rec, "ckpt.save");
            image = warm.saveCheckpointBytes(emc::ckpt::Level::kFull);
        }
        c.save_s = secondsBetween(t, Clock::now());
    }
    c.image_bytes = static_cast<double>(image.size());
    emc::System fresh(s.cfg, s.mix);
    const Clock::time_point t = Clock::now();
    {
        Span span(rec, "ckpt.restore");
        fresh.restoreCheckpointBytes(image);
    }
    c.restore_s = secondsBetween(t, Clock::now());
    return c;
}

} // namespace emcbench
