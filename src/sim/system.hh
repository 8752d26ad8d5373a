/**
 * @file
 * The System assembles the whole chip of Figure 7 / Figure 11: cores
 * with their LLC slices on a bidirectional ring, one or two memory
 * controllers (each optionally enhanced with an EMC compute engine),
 * DDR3 channels behind them, and the prefetcher that trains at the
 * LLC. It implements CorePort (and a per-EMC port adapter), owns the
 * global clock, and produces the StatDump the benches consume.
 */

#ifndef EMC_SIM_SYSTEM_HH
#define EMC_SIM_SYSTEM_HH

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/checkers.hh"
#include "ckpt/ckpt.hh"
#include "common/slab_pool.hh"
#include "obs/obs.hh"
#include "obs/phase.hh"
#include "obs/stream.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "emc/emc.hh"
#include "mem/functional_memory.hh"
#include "prefetch/prefetcher.hh"
#include "ring/ring.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fastwarm.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "workload/registry.hh"

namespace emc
{

/** Per-origin DRAM traffic counters (bandwidth accounting, §6.6). */
struct TrafficStats
{
    std::uint64_t core_demand = 0;
    std::uint64_t emc_demand = 0;
    std::uint64_t prefetch = 0;
    std::uint64_t writeback = 0;
    std::uint64_t hermes = 0;   ///< core-side speculative DRAM probes

    std::uint64_t
    total() const
    {
        return core_demand + emc_demand + prefetch + writeback + hermes;
    }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(core_demand);
        ar.io(emc_demand);
        ar.io(prefetch);
        ar.io(writeback);
        ar.io(hermes);
    }
};

/** The simulated chip. */
class System : public CorePort
{
  public:
    /**
     * @param cfg system configuration
     * @param benchmarks one profile name per core
     */
    System(const SystemConfig &cfg,
           const std::vector<std::string> &benchmarks);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run until every core reaches its uop target (or max_cycles). */
    void run();

    // ---- functional warming + sampling (DESIGN.md §8; fastwarm.cc) --

    /**
     * Fast-forward every core by up to @p uops_per_core uops through
     * the functional-warming path: architectural registers, branch
     * predictors, TLBs, L1s, LLC and the EMC miss predictors advance;
     * no cycle passes and no timing state is touched. The machine must
     * be quiescent (freshly constructed, or drained between sample
     * windows). @return uops actually consumed, summed over cores.
     */
    std::uint64_t fastForward(std::uint64_t uops_per_core);

    /**
     * Per-core variant: core i consumes up to @p uops_per_core[i]
     * uops. Validation mode uses this to replay the exact dispatched
     * count of a detailed warmup, which can differ across cores.
     */
    std::uint64_t
    fastForward(const std::vector<std::uint64_t> &uops_per_core);

    /**
     * Produce a warmup-level checkpoint image by fast-forwarding
     * cfg.warmup_uops uops per core instead of running detailed
     * warmup. Identical container format/compatibility rules to
     * warmupCheckpointBytes(); must be called on a fresh System.
     */
    std::vector<std::uint8_t> fastwarmCheckpointBytes();

    /**
     * SMARTS-style sampled run: after (fast) warmup, alternate
     * detailed windows of p.detail uops per core with fast-forwarded
     * gaps of p.period - p.detail uops per core, until cfg.target_uops
     * total uops per core are covered. Per-window aggregate IPC and
     * dependent-miss latency are accumulated and reported with 95%
     * confidence intervals (also exported as `sampled.*` stats).
     */
    SampledStats runSampled(const SampleParams &p);

    /** Results of the last runSampled() (windows == 0 before one). */
    const SampledStats &sampled() const { return sampled_; }

    /** Advance a single cycle (tests). */
    void tickOnce();

    /** Collect every statistic the benches need. */
    StatDump dump() const;

    // ---- CorePort ----
    bool requestLine(CoreId core, Addr paddr_line, Addr pc,
                     bool for_store, bool addr_tainted) override;
    void hermesProbe(CoreId core, Addr paddr_line, Addr pc) override;
    void storeThrough(CoreId core, Addr paddr_line) override;
    bool offloadChain(const ChainRequest &chain) override;
    bool emcTlbResident(CoreId core, Addr vpage) override;
    Cycle now() const override { return now_; }

    // ---- accessors for tests and benches ----
    const Core &core(unsigned i) const { return *cores_[i]; }
    Core &mutableCore(unsigned i) { return *cores_[i]; }
    const Emc *emc(unsigned mc = 0) const
    {
        return emcs_.empty() ? nullptr : emcs_[mc].get();
    }
    const SystemConfig &config() const { return cfg_; }
    Cycle cycles() const { return now_; }
    const TrafficStats &traffic() const { return traffic_; }
    const std::set<Addr> &emcMissLines() const
    {
        return emc_miss_lines_;
    }
    const std::set<Addr> &prefetchLines() const
    {
        return prefetch_lines_;
    }
    bool finished() const;
    Cycle coreFinishCycle(unsigned i) const { return finish_cycle_[i]; }
    const Cache &llcSlice(unsigned i) const { return *slices_[i]; }
    /** Channel @p c of memory controller @p mc. */
    const DramChannel &channel(unsigned mc, unsigned c) const
    {
        return *channels_[mc][c];
    }
    const PageTable &pageTable(unsigned i) const
    {
        return *page_tables_[i];
    }
    /** Uops produced so far by core @p i's trace source. */
    std::uint64_t uopsProduced(unsigned i) const
    {
        return programs_[i]->produced();
    }

    /**
     * OS-initiated TLB shootdown for @p vpage of @p core: invalidates
     * the mapping in every EMC TLB (the per-PTE residence bit the
     * paper adds makes this targeted in hardware; Section 4.1.4).
     */
    void tlbShootdown(CoreId core, Addr vpage);

    /**
     * Attach the runtime invariant checkers (DESIGN.md §5d). Called
     * automatically from the constructor in -DEMC_SIM_CHECK=ON builds;
     * tests may call it in any build, but only before the first
     * transaction is created (i.e. before run()/tickOnce()).
     * Observation only: enabling it never changes simulated behaviour
     * or statistics. Idempotent.
     */
    void enableInvariantChecks();

    /** The attached check registry (null when checks are disabled). */
    check::CheckRegistry *checkRegistry() { return check_.get(); }

    /**
     * Attach the transaction-lifecycle tracer (DESIGN.md §6). Called
     * automatically from the constructor when cfg.trace_path is set;
     * tests may call it directly, but only before run()/tickOnce().
     * Observation only: a traced run's statistics are byte-identical
     * to an untraced one. Idempotent.
     *
     * @param trace_path Chrome trace_event JSON output file
     * @param buffer_events tracer ring-buffer capacity
     * @param stream_interval when > 0, also stream a stat snapshot
     *        every this many cycles to "<trace_path>.jsonl"
     */
    void enableTracing(const std::string &trace_path,
                       std::size_t buffer_events = 1 << 16,
                       Cycle stream_interval = 0);

    /** The attached tracer (null when tracing is disabled). */
    obs::Tracer *tracer() { return tracer_.get(); }

    /** Always-on phase-latency histograms (exported as `phase.*`). */
    const obs::PhaseAccumulator &phases() const { return phases_; }

    // ---- checkpoint / restore (DESIGN.md §7; src/ckpt) ----

    /**
     * Serialize the machine to an in-memory checkpoint image.
     * kFull captures complete state between ticks; kWarmup runs (or
     * finishes) the warmup phase, drains the machine to a quiescent
     * point and captures only the warmed state (see
     * warmupCheckpointBytes()). Refused (ckpt::Error) while a tracer,
     * stat streamer or trace capture is attached — their file offsets
     * are not restorable.
     */
    std::vector<std::uint8_t> saveCheckpointBytes(ckpt::Level level);

    /** saveCheckpointBytes() + atomic write to @p path. */
    void saveCheckpoint(const std::string &path, ckpt::Level level);

    /**
     * Warmup-level image: runs the configured warmup (cfg.warmup_uops
     * must be > 0) if it has not happened yet, pauses fetch, drains
     * every in-flight transaction and captures functional memory, page
     * tables, workload generators, per-core architectural state with
     * warmed L1/TLB/branch predictors, and the LLC contents. The image
     * is restorable into Systems with differing EMC / prefetcher /
     * DRAM configurations (warmupConfigHash governs compatibility).
     */
    std::vector<std::uint8_t> warmupCheckpointBytes();

    /**
     * Restore a checkpoint image into this freshly constructed System
     * (full level: nothing may have run yet and the configuration must
     * hash-match; warmup level: the "fit" subset must match, and the
     * System resumes measurement from a warmed state). Throws
     * ckpt::Error on format, version or configuration mismatch.
     */
    void restoreCheckpointBytes(const std::vector<std::uint8_t> &bytes);

    /** readFile() + restoreCheckpointBytes(). */
    void restoreCheckpoint(const std::string &path);

    /**
     * Arrange for run() to save a checkpoint to @p path at the first
     * tick with now() >= @p at (one-shot; observation only — the
     * saving run's statistics are unperturbed).
     */
    void scheduleCheckpoint(const std::string &path, Cycle at,
                            ckpt::Level level = ckpt::Level::kFull);

    /**
     * Arrange for run() to overwrite @p path with a full checkpoint
     * every @p interval cycles (crash-resumable runs; atomic rename
     * keeps the file valid at all times). @p interval 0 disables.
     */
    void setAutosave(const std::string &path, Cycle interval);

    /**
     * Deflate-compress checkpoint images this System writes to disk
     * (saveCheckpoint, scheduled/autosaved saves). Reads are always
     * transparent. Throws ckpt::Error at save time if the build lacks
     * zlib (ckpt::compressionAvailable()).
     */
    void setCkptCompress(bool on) { ckpt_compress_ = on; }

  private:
    friend struct EmcPortAdapter;

    // ---- internal event machinery ----
    enum class EvType : std::uint8_t
    {
        kSliceArrive,       ///< request reaches its LLC slice stop
        kSliceLookup,       ///< LLC slice tag lookup completes
        kSliceStore,        ///< write-through store reaches its slice
        kMcEnqueue,         ///< request enters an MC's channel queue
        kFillAtSlice,       ///< DRAM fill reaches the LLC slice
        kFillAtCore,        ///< fill data reaches the requesting core
        kChainArrive,       ///< chain transfer fully received at EMC
        kLsqPopulate,       ///< EMC memory-op notification at the core
        kChainResult,       ///< live-outs / cancel reach the core
        kEmcQueryArrive,    ///< EMC predicted-hit load at slice stop
        kEmcQueryLookup,    ///< ... its tag lookup completes
        kEmcQueryReply,     ///< LLC hit data back at the EMC
        kEmcDirectReply,    ///< cross-MC fill data reaches its EMC
    };

    /** A scheduled continuation. */
    struct Event
    {
        EvType type;
        std::uint64_t token;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(type);
            ar.io(token);
        }
    };

    /** One outstanding memory transaction. */
    struct Txn
    {
        std::uint64_t id = 0;
        CoreId core = 0;
        Addr line = kNoAddr;
        Addr pc = 0;
        bool for_store = false;
        bool addr_tainted = false;
        bool is_prefetch = false;
        bool is_hermes = false;     ///< core-side speculative DRAM probe
        bool is_emc = false;        ///< issued by an EMC
        bool emc_via_llc = false;   ///< EMC predicted-hit query path
        bool emc_llc_fill_only = false;  ///< remaining work: LLC fill
        bool llc_missed = false;
        std::uint64_t emc_token = 0;
        unsigned emc_owner = 0;     ///< EMC index that issued it

        Cycle t_start = kNoCycle;       ///< left the requestor
        Cycle t_llc_miss = kNoCycle;    ///< slice lookup missed
        Cycle t_mc_enqueue = kNoCycle;
        Cycle t_dram_issue = kNoCycle;
        Cycle t_dram_data = kNoCycle;   ///< own read returned by DRAM
        Cycle t_fill = kNoCycle;        ///< fill installed / merged
        Cycle t_done = kNoCycle;        ///< data reached the requester

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(id);
            ar.io(core);
            ar.io(line);
            ar.io(pc);
            ar.io(for_store);
            ar.io(addr_tainted);
            ar.io(is_prefetch);
            ar.io(is_hermes);
            ar.io(is_emc);
            ar.io(emc_via_llc);
            ar.io(emc_llc_fill_only);
            ar.io(llc_missed);
            ar.io(emc_token);
            ar.io(emc_owner);
            ar.io(t_start);
            ar.io(t_llc_miss);
            ar.io(t_mc_enqueue);
            ar.io(t_dram_issue);
            ar.io(t_dram_data);
            ar.io(t_fill);
            ar.io(t_done);
        }
    };

    /** A chain mid-transfer on the data ring. */
    struct InFlightChain
    {
        ChainRequest chain;
        unsigned msgs_remaining = 0;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(chain);
            ar.io(msgs_remaining);
        }
    };

    /** A chain result mid-transfer on the data ring. */
    struct InFlightResult
    {
        ChainResult result;
        unsigned msgs_remaining = 0;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(result);
            ar.io(msgs_remaining);
        }
    };

    /** An EMC LSQ-populate notification in flight. */
    struct LsqMsg
    {
        CoreId core;
        std::uint64_t rob_seq;
        Addr paddr;
        std::uint64_t chain_id;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(core);
            ar.io(rob_seq);
            ar.io(paddr);
            ar.io(chain_id);
        }
    };

    // ---- EmcPort entry points (called through the adapters) ----
    bool emcDirectDram(unsigned from_mc, CoreId core, Addr paddr_line,
                       std::uint64_t token);
    bool emcLlcQuery(unsigned from_mc, CoreId core, Addr paddr_line,
                     std::uint64_t token, Addr pc);
    void emcLsqPopulate(unsigned from_mc, CoreId core,
                        std::uint64_t rob_seq, Addr paddr,
                        std::uint64_t chain_id);
    void emcChainResult(unsigned from_mc, const ChainResult &result,
                        unsigned bytes);

    // Topology helpers.
    unsigned sliceOf(Addr line) const;
    unsigned stopOfCore(CoreId c) const { return c; }
    unsigned stopOfMc(unsigned mc) const { return cfg_.num_cores + mc; }
    unsigned mcOfChannel(unsigned channel) const;
    unsigned mcOfLine(Addr line) const;

    void schedule(Cycle when, EvType type, std::uint64_t token);
    void routeControl(unsigned src, unsigned dst, MsgType mtype,
                      std::uint64_t token, EvType ev);
    void routeData(unsigned src, unsigned dst, MsgType mtype,
                   std::uint64_t token, EvType ev);

    void processEvents();
    void resetMeasurement();

    /**
     * Cycles the whole chip can provably skip: 0 when any component
     * has per-cycle work, else the earliest future cycle at which
     * anything (an event, a core wakeup, a DRAM refresh) happens.
     * run() uses this to jump the clock across dead time without
     * changing any observable statistic.
     */
    Cycle quiescentUntil() const;

    /** Jump the clock over a quiescent gap (no-op when busy). */
    void maybeSkipIdle();
    bool allRetired(std::uint64_t target) const;
    void handleSliceArrive(std::uint64_t token);
    void handleSliceLookup(std::uint64_t token);
    void handleSliceStore(std::uint64_t token);
    void handleMcEnqueue(std::uint64_t token);
    void handleFillAtSlice(std::uint64_t token);
    void handleFillAtCore(std::uint64_t token);
    void handleChainArrive(std::uint64_t token);
    void handleLsqPopulate(std::uint64_t token);
    void handleChainResult(std::uint64_t token);
    void handleEmcQueryArrive(std::uint64_t token);
    void handleEmcQueryLookup(std::uint64_t token);
    void handleEmcQueryReply(std::uint64_t token);
    void handleEmcDirectReply(std::uint64_t token);

    void handleDramDone(unsigned mc, const MemRequest &req);
    void insertIntoLlc(Txn &txn);

    /**
     * Retire @p txn: sample its phase latencies (always-on) if it is a
     * demand whose own read DRAM serviced, emit the kRetire trace
     * point, notify the lifecycle checker, and release the slab-pool
     * slot. The single exit path for every transaction.
     */
    void retireTxn(Txn &txn);

    /** Hand an EMC request's data to its EMC (stamps t_done). */
    void deliverToEmc(Txn &txn, bool was_llc_miss);

    /** The trace track a transaction's lifecycle events live on. */
    obs::Track trackOf(const Txn &txn) const;

    /** The kCreated flag bits describing @p txn. */
    std::uint8_t txnFlags(const Txn &txn) const;
    void drainPrefetcher();
    void observeAtLlc(Txn &txn, bool hit);
    void finalizeToCore(Txn &txn, unsigned slice);
    void maybeSnapshotCore(unsigned i);

    Cycle sliceReady(unsigned slice);

    SystemConfig cfg_;
    Cycle now_ = 0;
    bool warmed_up_ = false;
    Cycle warmup_end_cycle_ = 0;

    // Programs and cores.
    // ckpt-skip: (shared builds behind memories_ and programs_)
    std::vector<std::shared_ptr<const BuiltWorkload>> workloads_;
    std::vector<std::unique_ptr<FunctionalMemory>> memories_;
    std::vector<std::unique_ptr<PageTable>> page_tables_;
    std::vector<std::unique_ptr<TraceSource>> programs_;
    std::vector<std::unique_ptr<TraceSource>> capture_inner_;
    std::vector<trace::Recorder *> capture_recorders_;  ///< owned by programs_
    std::vector<std::unique_ptr<Core>> cores_;

    // Interconnect.
    Ring control_ring_;
    Ring data_ring_;

    std::vector<std::string> benchmark_names_;

    // LLC slices (slice i shares core i's ring stop).
    std::vector<std::unique_ptr<Cache>> slices_;
    std::vector<Cycle> slice_next_free_;

    // Memory controllers, channels, EMCs (and their port adapters).
    std::vector<std::vector<std::unique_ptr<DramChannel>>> channels_;
    std::vector<std::unique_ptr<EmcPort>> emc_ports_;
    std::vector<std::unique_ptr<Emc>> emcs_;

    // Prefetching (null for PrefetchConfig::kNone).
    std::unique_ptr<Prefetcher> prefetcher_;
    FdpThrottle fdp_;
    std::unordered_set<Addr> outstanding_prefetch_lines_;

    // Transactions and in-flight protocol state. Txn ids are handed
    // out sequentially (DRAM FCFS tie-breaks depend on them), which is
    // exactly the contract the slab pool's id window wants.
    IdSlabPool<Txn> txns_;
    std::uint64_t next_txn_ = 1;
    CalendarQueue<Event> events_;
    bool cycle_skip_enabled_ = true;  ///< EMC_NO_CYCLE_SKIP clears it
    Cycle next_skip_check_ = 0;       ///< backoff after failed skips
    /// Adaptive failed-skip backoff: doubles per consecutive failed
    /// attempt up to the cap, resets on a successful skip, so phases
    /// that never go idle stop paying for the quiescence scan.
    Cycle skip_backoff_ = kSkipBackoffMin;
    static constexpr Cycle kSkipBackoffMin = 16;
    static constexpr Cycle kSkipBackoffMax = 4096;
    std::unordered_map<std::uint64_t, InFlightChain> chains_in_flight_;
    std::unordered_map<std::uint64_t, InFlightResult> results_in_flight_;
    std::unordered_map<std::uint64_t, LsqMsg> lsq_msgs_;
    std::uint64_t next_msg_id_ = 1;
    std::unordered_map<Addr, unsigned> outstanding_demand_lines_;
    /// Cross-agent MSHR at the LLC: line -> txns merged onto the
    /// in-flight fill (primary txn excluded). Prevents the core, the
    /// EMC and the prefetcher from fetching the same line twice.
    std::unordered_map<Addr, std::vector<std::uint64_t>> pending_fills_;

    /** Register @p txn against an in-flight fill. @retval true merged. */
    bool tryMergeFill(Txn &txn);
    void dispatchMergedFill(std::uint64_t token, unsigned slice);

    // Hermes core-side probes (DESIGN.md §13). A probe opens the
    // cross-agent MSHR window for its line, so the demand walking the
    // L1->ring->LLC path merges onto the probe's fill at the slice and
    // inherits its DRAM head start. Ordered map: checkpoint images and
    // drain order must not depend on hashing.

    /** One in-flight speculative probe. */
    struct HermesProbe
    {
        Cycle start = 0;    ///< probe launch (head-start accounting)
        bool used = false;  ///< a demand merged onto this probe's fill

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(start);
            ar.io(used);
        }
    };
    std::map<Addr, HermesProbe> hermes_probe_lines_;
    std::uint64_t hermes_probes_issued_ = 0;
    std::uint64_t hermes_probes_suppressed_ = 0;  ///< fill in flight
    std::uint64_t hermes_probes_llc_hit_ = 0;     ///< filtered by peek
    std::uint64_t hermes_probes_useful_ = 0;
    std::uint64_t hermes_probes_useless_ = 0;
    std::uint64_t hermes_merged_demands_ = 0;
    std::uint64_t hermes_saved_cycles_ = 0;  ///< head start of merges

    // Bookkeeping for benches. The line sets are ordered: benches
    // iterate them when producing output, and iteration order must not
    // depend on hashing.
    TrafficStats traffic_;
    std::vector<Cycle> finish_cycle_;
    std::vector<CoreStats> finish_snapshot_;
    std::vector<bool> snapshotted_;
    std::set<Addr> emc_miss_lines_;
    std::set<Addr> prefetch_lines_;

    // Runtime invariant checking (null unless enabled). The raw
    // pointers cache the registered checkers so the per-event hooks
    // are a single null test when disabled.
    void runPerTickChecks();
    void runDeepChecks();
    void finalizeChecks();
    std::unique_ptr<check::CheckRegistry> check_;
    check::EventQueueChecker *ck_events_ = nullptr;
    check::TxnLifecycleChecker *ck_txns_ = nullptr;
    check::ConservationChecker *ck_conserve_ = nullptr;
    check::RetireOrderChecker *ck_retire_ = nullptr;
    Cycle next_deep_check_ = 0;

    // Checkpoint / restore (DESIGN.md §7; implemented in
    // system_ckpt.cc). ckptPayload() walks every serialized component
    // in section order, symmetrically for save and load.
    void ckptPayload(ckpt::Ar &ar, ckpt::Level level,
                     std::vector<ckpt::Section> *toc);
    void ckptRefuseIfObserved(const char *what) const;
    void ckptDrainForWarmup();
    /** Tick with fetch gated until every in-flight structure drains. */
    void drainInFlight();
    /** Assemble a warmup-level image from the current (drained) state. */
    std::vector<std::uint8_t> warmupImageBytes();
    void maybeCheckpoint();
    std::string ckpt_path_;
    Cycle ckpt_at_ = kNoCycle;
    ckpt::Level ckpt_level_ = ckpt::Level::kFull;
    std::string autosave_path_;
    Cycle autosave_interval_ = 0;
    Cycle next_autosave_ = kNoCycle;
    bool ckpt_compress_ = false;

    // Functional warming + sampling (DESIGN.md §8; fastwarm.cc).
    friend class LlcWarmPort;
    /** WarmPort sink: LLC tag/metadata update for one warm access. */
    void warmLineAtLlc(CoreId core, Addr paddr_line, Addr pc,
                       bool is_store);
    SampledStats sampled_;

    // Observability (DESIGN.md §6). The tracer is null unless enabled
    // (hooks are then a single null test each); the phase accumulator
    // is always on so traced and untraced runs export identical stats.
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<obs::StatStreamer> streamer_;
    obs::PhaseAccumulator phases_;

    // Aggregate counters.
    std::uint64_t llc_demand_accesses_ = 0;
    std::uint64_t llc_demand_misses_ = 0;
    std::uint64_t llc_dep_misses_ = 0;
    std::uint64_t dep_misses_covered_by_pf_ = 0;
    std::uint64_t demand_hits_on_prefetch_ = 0;
    std::uint64_t emc_generated_misses_ = 0;
    std::uint64_t emc_bypass_wrong_ = 0;
    std::uint64_t llc_total_accesses_ = 0;  ///< energy accounting
    std::uint64_t ideal_dep_hits_granted_ = 0;
};

} // namespace emc

#endif // EMC_SIM_SYSTEM_HH
