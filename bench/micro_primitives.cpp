/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot primitives:
 * cache lookups, DRAM channel scheduling, ring movement, the
 * workload generator, whole-system cycles and System construction,
 * cold and with shared workload builds. These guard the
 * simulator's own performance (a 1-second figure bench runs millions
 * of these operations).
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "dram/dram_channel.hh"
#include "mem/functional_memory.hh"
#include "ring/ring.hh"
#include "sim/system.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace emc;

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(1 << 20, 8, "bm");
    Rng rng(1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(rng.below(1 << 18) << kLineShift);
    for (Addr a : addrs) {
        if (!cache.peek(a))
            cache.insert(a);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i & 4095]));
        ++i;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheInsertEvict(benchmark::State &state)
{
    Cache cache(64 * 1024, 8, "bm");
    Rng rng(2);
    for (auto _ : state) {
        const Addr a = rng.below(1 << 20) << kLineShift;
        if (!cache.peek(a))
            benchmark::DoNotOptimize(cache.insert(a));
    }
}
BENCHMARK(BM_CacheInsertEvict);

void
BM_DramChannelTick(benchmark::State &state)
{
    DramGeometry geo;
    DramChannel chan(geo, DramTiming{}, SchedPolicy::kBatch, 64, 4);
    chan.setCallback([](const MemRequest &) {});
    Rng rng(3);
    Cycle now = 1;
    for (auto _ : state) {
        if (chan.canAccept() && rng.chance(0.1)) {
            MemRequest r;
            r.paddr = rng.below(1 << 22) << kLineShift;
            r.core = static_cast<CoreId>(rng.below(4));
            r.token = now;
            chan.enqueue(r, now);
        }
        chan.tick(now++);
    }
}
BENCHMARK(BM_DramChannelTick);

void
BM_RingTick(benchmark::State &state)
{
    Ring ring(5, true);
    ring.setDeliver([](const RingMsg &) {});
    Rng rng(4);
    Cycle now = 1;
    for (auto _ : state) {
        if (rng.chance(0.3)) {
            RingMsg m;
            m.src = static_cast<unsigned>(rng.below(5));
            m.dst = (m.src + 1 + rng.below(4)) % 5;
            ring.send(m, now);
        }
        ring.tick(now++);
    }
}
BENCHMARK(BM_RingTick);

void
BM_SyntheticTraceGen(benchmark::State &state)
{
    FunctionalMemory mem;
    SyntheticProgram prog(profileByName("mcf"), mem, 5);
    DynUop d;
    for (auto _ : state) {
        prog.next(d);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_SyntheticTraceGen);

void
BM_SystemCycle(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.emc_enabled = state.range(0) != 0;
    cfg.target_uops = 1ull << 60;  // never finishes inside the loop
    System sys(cfg, {"mcf", "libquantum", "omnetpp", "bwaves"});
    for (auto _ : state)
        sys.tickOnce();
    state.SetLabel(cfg.emc_enabled ? "with-emc" : "no-emc");
}
BENCHMARK(BM_SystemCycle)->Arg(0)->Arg(1);

void
BM_SystemConstruct(benchmark::State &state)
{
    // Cold: a fresh seed per System, so every core builds its 4x mcf
    // workload. Shared: one seed, so every System after the first
    // takes the registry's build (DESIGN.md §7). Each iteration
    // times one construction and destruction.
    const bool cold = state.range(0) == 0;
    SystemConfig cfg;
    for (auto _ : state) {
        if (cold)
            ++cfg.seed;
        System sys(cfg, {"mcf", "mcf", "mcf", "mcf"});
        benchmark::DoNotOptimize(sys.cycles());
    }
    state.SetLabel(cold ? "4xmcf-cold" : "4xmcf-shared");
}
BENCHMARK(BM_SystemConstruct)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
