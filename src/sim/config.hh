/**
 * @file
 * Whole-system configuration mirroring the paper's Table 1, plus the
 * experiment knobs the benches use (ideal-dependent-hit mode for
 * Figure 2, channel/rank sweeps for Figure 20, EMC ablations).
 */

#ifndef EMC_SIM_CONFIG_HH
#define EMC_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/core.hh"
#include "dram/dram_channel.hh"
#include "emc/emc.hh"
#include "energy/energy_model.hh"

namespace emc
{

/**
 * Prefetcher configurations evaluated in the paper. Its Markov+stream
 * baseline is not modelled: no LLC miss line recurs in these
 * workloads, so a Markov table never fires (EXPERIMENTS.md, Fig. 3).
 */
enum class PrefetchConfig : std::uint8_t
{
    kNone,
    kGhb,           ///< GHB G/DC
    kStream,        ///< POWER4-style stream
    kStride,        ///< PC-indexed stride (extra baseline, [6] class)
    kPickle,        ///< predicted-miss cross-core correlator (§13)
};

const char *prefetchConfigName(PrefetchConfig p);

/** Full system configuration. */
struct SystemConfig
{
    unsigned num_cores = 4;
    unsigned num_mcs = 1;          ///< 1, or 2 for Figure 11(b)
    CoreConfig core;

    // Shared LLC: one slice per core (Table 1).
    std::size_t llc_slice_bytes = 1 << 20;
    unsigned llc_ways = 8;
    Cycle llc_latency = 18;

    // DRAM (quad-core defaults: 2 channels, 1 rank, 8 banks).
    DramGeometry dram;
    DramTiming timing;
    SchedPolicy sched = SchedPolicy::kBatch;
    std::size_t mc_queue_entries = 128;  ///< split across channels

    PrefetchConfig prefetch = PrefetchConfig::kNone;

    bool emc_enabled = false;
    EmcConfig emc;

    EnergyParams energy;

    /// Per-core retired-uop target ("at least 50M instructions" in the
    /// paper; scaled down for tractable runs, overridable via env).
    std::uint64_t target_uops = 120000;
    /// Uops retired per core before statistics start (cache warmup).
    std::uint64_t warmup_uops = 0;
    std::uint64_t seed = 0x5eed;
    Cycle max_cycles = 400'000'000;

    /// Figure 2 experiment: dependent misses become LLC hits.
    bool ideal_dependent_hits = false;

    /// Figure 21 cross-run bookkeeping.
    bool record_emc_miss_lines = false;
    bool record_prefetch_lines = false;

    /// Replay these trace files (one per core) instead of generating
    /// synthetic programs. Empty entries fall back to the generator.
    std::vector<std::string> trace_files;
    /// Capture each core's uop stream to "<prefix>.core<i>.emct".
    std::string capture_prefix;

    /// Observability (DESIGN.md §6): write a Chrome trace_event JSON
    /// of every transaction lifecycle here (empty = tracing off).
    std::string trace_path;
    /// Tracer ring-buffer capacity in events (drained to the file
    /// when full, so no event is ever dropped).
    std::size_t trace_buffer_events = 1 << 16;
    /// When > 0 (and trace_path is set), also snapshot the stat
    /// registry every this many cycles to "<trace_path>.jsonl".
    Cycle trace_interval = 0;

    /** Convenience: 8-core scaling per Table 1. */
    void scaleToEightCores(bool dual_mc);
};

/**
 * Read the per-core uop target: EMC_SIM_UOPS env var if set, else the
 * supplied default. Benches use this so full runs can be lengthened.
 */
std::uint64_t targetUopsFromEnv(std::uint64_t dflt);

} // namespace emc

#endif // EMC_SIM_CONFIG_HH
