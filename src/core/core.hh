/**
 * @file
 * Trace-driven out-of-order core model: 4-wide issue, 256-entry ROB,
 * 92-entry reservation station, LSQ with store forwarding, 256-entry
 * physical register file, CDB wakeup, in-order retirement (Table 1).
 *
 * The core also hosts the paper's chain-generation unit (Section 4.2):
 * on a full-window stall caused by an LLC miss at the head of the ROB,
 * a forward dataflow walk renames the dependent uops onto EMC physical
 * registers through the Register Remapping Table and ships the chain
 * to the EMC.
 *
 * Functional correctness is enforced: ALU uops are evaluated against
 * the trace oracle; any divergence is a simulator bug and panics.
 */

#ifndef EMC_CORE_CORE_HH
#define EMC_CORE_CORE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"
#include "check/checkers.hh"
#include "common/sat_counter.hh"
#include "core/branch_predictor.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/port.hh"
#include "emc/chain.hh"
#include "isa/trace.hh"
#include "obs/obs.hh"
#include "pred/predictor.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace emc
{

/** Static configuration of one core (Table 1 defaults). */
struct CoreConfig
{
    unsigned fetch_width = 4;
    unsigned issue_width = 4;
    unsigned retire_width = 4;
    unsigned rob_size = 256;
    unsigned rs_size = 92;
    unsigned lq_size = 64;
    unsigned sq_size = 36;
    unsigned phys_regs = 256;
    unsigned l1d_bytes = 32 * 1024;
    unsigned l1d_ways = 8;
    Cycle l1d_latency = 3;
    unsigned l1_mshrs = 16;
    Cycle mispredict_penalty = 14;
    Cycle tlb_walk_latency = 30;
    unsigned tlb_entries = 64;
    /// Use the hybrid branch predictor (Table 1). When disabled the
    /// generator's sampled mispredict flags are used instead.
    bool use_branch_predictor = true;
    /// Runahead execution [38]: on a full-window stall, pre-execute
    /// the instruction stream with an invalid-value dataflow to issue
    /// future *independent* misses early. Dependent misses are dropped
    /// (their addresses are invalid) — the gap the EMC fills.
    bool runahead_enabled = false;
    unsigned runahead_max_uops = 512;  ///< per-episode budget
    bool emc_enabled = false;
    /// Hermes-style off-chip prediction at the core (DESIGN.md §13):
    /// every demand load consults an off-chip predictor at dispatch
    /// and, when predicted to miss the LLC, launches a speculative
    /// DRAM probe in parallel with the L1→ring→LLC walk. Independent
    /// of (and composable with) EMC chain offload.
    bool hermes_enabled = false;
    /// Predictor engine driving the core-side probes (perceptron by
    /// default, matching Hermes; kTable gives a PC-hash baseline).
    pred::PredConfig hermes_pred = pred::PredConfig::perceptron();
    unsigned chain_max_uops = kChainMaxUops;
    /// New cache lines a chain may chase beyond its sources. Deeper
    /// chains hold an EMC context through more serialized DRAM trips
    /// and delay the (batched) live-outs; depth 1 reproduces the
    /// paper's reported ~9-uop average chains (Figure 22) and performs
    /// best (see the ablation_emc_params figure).
    unsigned chain_max_indirection = 1;
};

/** Per-core statistics consumed by the benches. */
struct CoreStats
{
    std::uint64_t retired_uops = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l1d_hits = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t llc_misses = 0;           ///< demand loads missing LLC
    std::uint64_t dependent_llc_misses = 0; ///< tainted-address misses
    std::uint64_t full_window_stall_cycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    // Runahead execution (optional baseline)
    std::uint64_t runahead_episodes = 0;
    std::uint64_t runahead_uops = 0;
    std::uint64_t runahead_prefetches = 0;
    std::uint64_t runahead_dropped_loads = 0;  ///< invalid address

    // Chain generation (Section 4.2)
    std::uint64_t chains_generated = 0;
    std::uint64_t chains_rejected_no_context = 0;
    std::uint64_t chains_rejected_counter = 0;
    std::uint64_t chain_uops_total = 0;
    std::uint64_t chain_live_ins_total = 0;
    std::uint64_t chain_gen_cycles = 0;
    std::uint64_t chain_results_ok = 0;
    std::uint64_t chain_results_canceled = 0;
    std::uint64_t offloaded_uops_completed_remotely = 0;

    // Dependence-distance tracking (Figure 6)
    Average dep_distance;

    // Energy-relevant event counters (Section 5)
    std::uint64_t cdb_broadcasts = 0;
    std::uint64_t rrt_reads = 0;
    std::uint64_t rrt_writes = 0;
    std::uint64_t rob_chain_reads = 0;
    std::uint64_t uops_executed = 0;
    std::uint64_t fp_uops_executed = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(retired_uops) / cycles : 0.0;
    }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(retired_uops);
        ar.io(cycles);
        ar.io(l1d_hits);
        ar.io(l1d_misses);
        ar.io(llc_misses);
        ar.io(dependent_llc_misses);
        ar.io(full_window_stall_cycles);
        ar.io(branches);
        ar.io(mispredicts);
        ar.io(runahead_episodes);
        ar.io(runahead_uops);
        ar.io(runahead_prefetches);
        ar.io(runahead_dropped_loads);
        ar.io(chains_generated);
        ar.io(chains_rejected_no_context);
        ar.io(chains_rejected_counter);
        ar.io(chain_uops_total);
        ar.io(chain_live_ins_total);
        ar.io(chain_gen_cycles);
        ar.io(chain_results_ok);
        ar.io(chain_results_canceled);
        ar.io(offloaded_uops_completed_remotely);
        ar.io(dep_distance);
        ar.io(cdb_broadcasts);
        ar.io(rrt_reads);
        ar.io(rrt_writes);
        ar.io(rob_chain_reads);
        ar.io(uops_executed);
        ar.io(fp_uops_executed);
    }
};

/**
 * Chip services a functionally-warming core needs (DESIGN.md §8): the
 * LLC-and-beyond side of a warm access. Deliberately tiny — the fast
 * path has no timing, so there is nothing to request or wait for.
 */
class WarmPort
{
  public:
    virtual ~WarmPort() = default;

    /**
     * An access left this core during functional warming: a load that
     * missed L1, or any store (write-through). The implementation
     * touches LLC tags/metadata only.
     */
    virtual void warmLine(CoreId core, Addr paddr_line, Addr pc,
                          bool is_store) = 0;
};

/**
 * One out-of-order core. The System drives it via tick() and delivers
 * memory-system events through the notification methods.
 */
class Core
{
  public:
    /**
     * @param id core id
     * @param cfg configuration
     * @param trace instruction source (not owned)
     * @param pt this program's page table (not owned)
     * @param port chip services (not owned)
     */
    Core(CoreId id, const CoreConfig &cfg, TraceSource *trace,
         PageTable *pt, CorePort *port);

    /** Advance one cycle. */
    void tick();

    /**
     * Idle-cycle skip support (see DESIGN.md, "Event-queue and
     * cycle-skipping invariants"). Reports whether tick() would be a
     * pure bookkeeping no-op right now, and if so until when.
     *
     * @return 0 when the core may do real work this cycle; otherwise
     *         the earliest future cycle at which it can act on its own
     *         (kNoCycle when it can only be woken externally)
     */
    Cycle quiescentUntil() const;

    /**
     * Account @p n skipped quiescent cycles: exactly the per-cycle
     * counter updates tick() would have made (cycle count, and the
     * full-window stall counter when the stall condition holds).
     * Only valid while quiescentUntil() != 0.
     */
    void skipIdleCycles(std::uint64_t n);

    // ---- notifications from the System ----

    /**
     * A line fill reached this core.
     * @param paddr_line the filled line
     * @param was_llc_miss the request had missed the LLC (taints dest)
     */
    void fillArrived(Addr paddr_line, bool was_llc_miss);

    /** The LLC determined that an outstanding request missed. */
    void llcMissDetermined(Addr paddr_line);

    /** Chain finished at the EMC (completed or canceled). */
    void chainResult(const ChainResult &result);

    /**
     * EMC executed a memory op of an offloaded chain; the core
     * populates the LSQ entry and checks for ordering conflicts.
     * @retval true a disambiguation conflict exists (cancel the chain)
     */
    bool lsqPopulate(std::uint64_t rob_seq, Addr paddr);

    /** Back-invalidate an L1 line (LLC eviction, inclusive hierarchy). */
    void invalidateL1(Addr paddr_line);

    /** Stat-free invalidateL1() for the functional-warming path. */
    void warmInvalidateL1(Addr paddr_line);

    // ---- functional warming (DESIGN.md §8) ----

    /**
     * Consume and functionally "dispatch" one uop from the trace:
     * architectural register values, branch predictor, TLB and L1 tags
     * are updated exactly as the detailed pipeline would in program
     * order, but no ROB/RS/LSQ/MSHR state is built and no cycle
     * passes. Accesses that leave the core go to @p port. Must only be
     * called on a quiescent core (ckptQuiescent()).
     *
     * @retval false the trace is exhausted (nothing consumed)
     */
    bool warmStep(WarmPort &port);

    // ---- accessors ----

    const CoreStats &stats() const { return stats_; }
    CoreStats &mutableStats() { return stats_; }

    /** Zero the statistics (post-warmup measurement start). */
    void
    resetStats()
    {
        stats_ = CoreStats{};
        if (hermes_)
            hermes_->resetStats();
    }
    std::uint64_t retired() const { return stats_.retired_uops; }
    bool fullWindowStalled() const { return full_window_stall_; }
    CoreId id() const { return id_; }
    const Cache &l1d() const { return l1d_; }
    const Tlb &tlb() const { return tlb_; }
    const CoreConfig &config() const { return cfg_; }

    /** A fetched-but-undispatched uop is parked in the front-end. */
    bool hasDeferredUop() const { return have_deferred_uop_; }

    /** The dependent-miss trigger counter (tests). */
    const SatCounter &depMissCounter() const { return dep_counter_; }

    /** Print pipeline state (diagnosing stalls). */
    void debugDump() const;

    /** The hybrid branch predictor (tests / stats). */
    const HybridBranchPredictor &branchPredictor() const { return bp_; }

    /**
     * The core-side Hermes off-chip predictor (stats / tests); null
     * unless cfg.hermes_enabled.
     */
    const pred::OffchipPredictor *
    hermesPredictor() const
    {
        return hermes_.get();
    }

    /**
     * Attach the invariant-check registry (null detaches). Observation
     * only; never changes pipeline behaviour or statistics.
     */
    void
    setCheck(check::CheckRegistry *reg, check::RetireOrderChecker *retire)
    {
        check_ = reg;
        ck_retire_ = retire;
    }

    /**
     * Attach the lifecycle tracer (null detaches). Observation only;
     * emits a chain_offloaded instant when a chain ships to the EMC.
     */
    void
    setTrace(obs::Tracer *t)
    {
        tracer_ = t;
    }

    /**
     * Deep structural self-check (periodic in checked runs): ROB seq
     * density, free-list/RAT consistency, LQ/SQ accounting, L1 tag
     * store and MSHR structure.
     */
    void selfCheck(check::CheckRegistry &reg) const;

    // ---- checkpoint/restore (DESIGN.md §7) ----

    /** Full-level checkpoint: every dynamic field of the pipeline. */
    template <class A>
    void
    ser(A &ar)
    {
        ar.io(now_);
        ar.io(rob_);
        ar.io(next_seq_);
        ar.io(prf_);
        ar.io(rat_);
        ar.io(free_list_);
        ar.io(rs_occupancy_);
        ar.io(lq_occupancy_);
        ar.io(sq_);
        ar.io(store_buffer_);
        ar.io(l1d_);
        ar.io(mshrs_);
        ar.io(tlb_);
        ar.io(bp_);
        ar.io(ready_q_);
        ar.io(retry_q_);
        if (ar.loading())
            replay_armed_ = false;
        ar.io(preg_waiters_);
        ar.io(pending_srcs_);
        ar.io(complete_at_);
        ar.io(counter_updates_);
        ar.io(fill_waiters_);
        ar.io(in_runahead_);
        ar.io(runahead_blocking_line_);
        ar.io(runahead_budget_);
        for (bool &v : runahead_valid_)
            ar.io(v);
        ar.io(runahead_lines_);
        ar.io(replay_q_);
        ar.io(fetch_blocked_);
        ar.io(fetch_block_seq_);
        ar.io(fetch_resume_);
        ar.io(fetch_paused_);
        ar.io(have_deferred_uop_);
        ar.io(deferred_uop_);
        ar.io(full_window_stall_);
        ar.io(dep_counter_);
        ar.io(chain_in_progress_);
        ar.io(chain_send_cycle_);
        ar.io(pending_chain_);
        ar.io(next_chain_id_);
        ar.io(last_chain_source_seq_);
        ar.io(source_dep_seen_);
        ar.io(offload_chain_source_);
        // Predictor tables ride full-level images so a restored run
        // replays bit-identical probe decisions (null iff disabled,
        // which is part of the config hash).
        if (hermes_)
            ar.io(*hermes_);
        ar.io(hermes_pending_);
        ar.io(stats_);
    }

    /**
     * Warmup-level checkpoint: only state meaningful across differing
     * back-end configs — architectural register values, the deferred
     * front-end uop, warmed L1/TLB/branch-predictor contents and the
     * dependent-miss trigger counter. Valid only while ckptQuiescent();
     * restores into a freshly constructed core (sequence numbers and
     * stats restart, which is exactly what resetMeasurement wants).
     */
    template <class A>
    void
    serWarm(A &ar)
    {
        for (unsigned r = 0; r < kArchRegs; ++r) {
            std::uint64_t v = prf_[rat_[r]].value;
            ar.io(v);
            if (ar.loading()) {
                PhysReg &p = prf_[rat_[r]];
                p.value = v;
                p.ready = true;
                p.taint = false;
                p.taint_depth = 0;
                p.taint_src = 0;
            }
        }
        ar.io(have_deferred_uop_);
        ar.io(deferred_uop_);
        ar.io(bp_);
        ar.io(l1d_);
        ar.io(tlb_);
        ar.io(dep_counter_);
    }

    /**
     * True when the pipeline holds no in-flight work, so a
     * warmup-level snapshot loses nothing (the deferred uop is
     * carried explicitly).
     */
    bool
    ckptQuiescent() const
    {
        return rob_.empty() && sq_.empty() && store_buffer_.empty()
               && replay_q_.empty() && counter_updates_.empty()
               && mshrs_.size() == 0 && !in_runahead_
               && !chain_in_progress_ && !fetch_blocked_
               && hermes_pending_.empty();
    }

    /**
     * Gate fetch/rename/dispatch without disturbing the rest of the
     * pipeline: in-flight work drains while no new uops enter. Used to
     * reach ckptQuiescent() at a warmup checkpoint boundary.
     */
    void pauseFetch(bool paused) { fetch_paused_ = paused; }

    /** Seq of the last retired uop (reseeds the retire-order checker). */
    std::uint64_t
    ckptLastRetiredSeq() const
    {
        return rob_.empty() ? next_seq_ - 1 : rob_.front().seq - 1;
    }

  private:
    friend struct CoreTestPeer;  // unit tests inspect the retry list

    // ---- dynamic uop state in the ROB ----

    /** One reorder-buffer entry (all per-uop dynamic state). */
    struct RobEntry
    {
        DynUop d;
        std::uint64_t seq = 0;
        std::uint16_t dst_preg = 0xffff;
        std::uint16_t src1_preg = 0xffff;
        std::uint16_t src2_preg = 0xffff;
        std::uint16_t prev_dst_preg = 0xffff;
        bool in_rs = false;
        bool issued = false;
        bool completed = false;
        bool offloaded = false;    ///< shipped to the EMC
        bool completed_by_emc = false;
        bool mem_outstanding = false;
        Addr paddr = kNoAddr;
        bool llc_miss = false;     ///< this load missed the LLC
        bool addr_tainted = false; ///< address derived from an LLC miss
        std::uint32_t taint_depth_at_exec = 0;
        std::uint64_t addr_taint_src = 0;  ///< seq of the source miss
        Cycle ready_cycle = kNoCycle;      ///< completion schedule
        std::uint64_t pending_value = 0;   ///< value written at complete

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(d);
            ar.io(seq);
            ar.io(dst_preg);
            ar.io(src1_preg);
            ar.io(src2_preg);
            ar.io(prev_dst_preg);
            ar.io(in_rs);
            ar.io(issued);
            ar.io(completed);
            ar.io(offloaded);
            ar.io(completed_by_emc);
            ar.io(mem_outstanding);
            ar.io(paddr);
            ar.io(llc_miss);
            ar.io(addr_tainted);
            ar.io(taint_depth_at_exec);
            ar.io(addr_taint_src);
            ar.io(ready_cycle);
            ar.io(pending_value);
        }
    };

    /** A physical register: value, readiness and miss taint. */
    struct PhysReg
    {
        std::uint64_t value = 0;
        bool ready = true;
        bool taint = false;        ///< derived from outstanding LLC miss
        std::uint32_t taint_depth = 0;
        std::uint64_t taint_src = 0;  ///< seq of the originating miss

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(value);
            ar.io(ready);
            ar.io(taint);
            ar.io(taint_depth);
            ar.io(taint_src);
        }
    };

    /** A store-queue entry (also used by the post-retire drain). */
    struct StoreQueueEntry
    {
        std::uint64_t seq = 0;
        Addr vaddr = kNoAddr;
        Addr paddr = kNoAddr;
        bool addr_known = false;
        std::uint64_t value = 0;
        bool retired = false;   ///< waiting in post-retire drain

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(seq);
            ar.io(vaddr);
            ar.io(paddr);
            ar.io(addr_known);
            ar.io(value);
            ar.io(retired);
        }
    };

    /**
     * A load waiting to re-execute (DESIGN.md §5c). A *parked* entry
     * is blocked on the older store @c blocker, whose address is
     * unknown; until that store's state changes it only replays its
     * TLB touch at its list position. An *active* entry (blocker 0)
     * re-runs the full load path.
     */
    struct RetryEntry
    {
        std::uint64_t seq = 0;
        std::uint64_t blocker = 0;  // ckpt-skip: (restored entries start active)
        Addr vaddr = kNoAddr;       // ckpt-skip: (set when parking)

        /** Same bytes as a bare seq: the image format is unchanged. */
        template <class A>
        void
        ser(A &ar)
        {
            ar.io(seq);
            if (ar.loading())
                blocker = 0;
        }
    };

    // ---- pipeline stages (called in reverse order from tick) ----
    void retireStage();
    void completeStage();
    void issueStage();
    void fetchRenameDispatch();
    void drainStoreBuffer();

    // ---- helpers ----
    RobEntry *bySeq(std::uint64_t seq);
    const RobEntry *bySeq(std::uint64_t seq) const;
    bool robFull() const { return rob_.size() >= cfg_.rob_size; }
    bool stalledOnMissHead() const;
    void wakeup(std::uint16_t preg);
    void executeAlu(RobEntry &e);
    void markIssued(RobEntry &e);
    void retryStage(unsigned &issued);
    bool tryExecuteLoad(RobEntry &e, std::uint64_t &blocker);
    /**
     * The load's SQ check against older stores.
     * @param blocker out: the unresolved older store it must wait
     *        for, or 0
     * @retval true a same-address older store forwards its data
     */
    bool scanOlderStores(const RobEntry &load,
                         std::uint64_t &blocker) const;
    template <class Pred> void wakeRetries(Pred wake);
    void executeStore(RobEntry &e);
    void scheduleComplete(RobEntry &e, Cycle when, std::uint64_t value);
    void completeEntry(RobEntry &e, std::uint64_t value, bool from_emc);
    void setTaintFromSources(const RobEntry &e, PhysReg &dst);
    void recordMissDependence(const RobEntry &e);

    // ---- runahead execution ----
    void maybeEnterRunahead(const RobEntry &head);
    void runaheadStep();
    void exitRunahead(Addr filled_line);

    // ---- chain generation (Section 4.2) ----
    void maybeGenerateChain();
    bool buildChain(RobEntry &source, ChainRequest &chain);
    void unOffloadChain(const ChainRequest &chain);
    void unOffload(RobEntry &e);

    // ---- Hermes off-chip prediction (DESIGN.md §13) ----

    /**
     * A demand load left the core: consult the off-chip predictor,
     * record the outcome for training at fill time, and launch a
     * speculative DRAM probe when a miss is predicted.
     */
    void maybeHermesProbe(Addr paddr_line, Addr pc, Addr vaddr);

    /** Feature bundle recorded at predict so train sees it verbatim. */
    struct HermesPending
    {
        Addr pc = 0;
        Addr vaddr = kNoAddr;
        bool predicted = false;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(pc);
            ar.io(vaddr);
            ar.io(predicted);
        }
    };

    CoreId id_;       // ckpt-skip: (identity is config)
    CoreConfig cfg_;  // ckpt-skip: (config, not state)
    TraceSource *trace_;
    PageTable *pt_;
    CorePort *port_;

    Cycle now_ = 0;

    std::deque<RobEntry> rob_;
    std::uint64_t next_seq_ = 1;
    std::vector<PhysReg> prf_;
    std::vector<std::uint16_t> rat_;       ///< arch -> phys
    std::vector<std::uint16_t> free_list_;
    unsigned rs_occupancy_ = 0;
    unsigned lq_occupancy_ = 0;

    std::deque<StoreQueueEntry> sq_;       ///< program-order stores
    std::deque<StoreQueueEntry> store_buffer_;  ///< post-retire drain

    Cache l1d_;
    MshrFile mshrs_;
    Tlb tlb_;
    HybridBranchPredictor bp_;

    // Scheduling machinery (kept O(1)-amortized per cycle).
    std::deque<std::uint64_t> ready_q_;    ///< seqs ready to issue, FIFO
    /// Loads that failed to execute, in retry order (ahead of ready_q_).
    std::vector<RetryEntry> retry_q_;
    /// The last retry stage left only parked entries and its TLB
    /// touches all hit; replaying them is a pure hit credit while
    /// tlb_.changes() still equals replay_mark_ (DESIGN.md §5c).
    bool replay_armed_ = false;      // ckpt-skip: (host-only; restore disarms)
    std::uint64_t replay_mark_ = 0;  // ckpt-skip: (host-only replay guard)
    std::unordered_map<std::uint16_t,
                       std::vector<std::uint64_t>> preg_waiters_;
    std::unordered_map<std::uint64_t, unsigned> pending_srcs_;
    std::unordered_map<Cycle, std::vector<std::uint64_t>> complete_at_;
    std::deque<std::pair<Cycle, std::uint64_t>> counter_updates_;

    /// line paddr -> seqs of loads waiting on the fill
    std::unordered_map<Addr, std::vector<std::uint64_t>> fill_waiters_;

    // Runahead state
    bool in_runahead_ = false;
    Addr runahead_blocking_line_ = kNoAddr;
    unsigned runahead_budget_ = 0;
    bool runahead_valid_[kArchRegs] = {};
    std::unordered_set<Addr> runahead_lines_;
    std::deque<DynUop> replay_q_;   ///< uops consumed during runahead

    // Front-end state
    bool fetch_paused_ = false;    ///< checkpoint drain gate
    bool fetch_blocked_ = false;
    std::uint64_t fetch_block_seq_ = 0;    ///< mispredicted branch seq
    Cycle fetch_resume_ = 0;
    bool have_deferred_uop_ = false;
    DynUop deferred_uop_;

    // Full-window stall / chain generation state
    bool full_window_stall_ = false;
    SatCounter dep_counter_{3, 0};
    bool chain_in_progress_ = false;
    Cycle chain_send_cycle_ = kNoCycle;
    ChainRequest pending_chain_;
    std::uint64_t next_chain_id_ = 1;
    std::uint64_t last_chain_source_seq_ = 0;

    /// Core-side off-chip predictor; null unless cfg.hermes_enabled.
    std::unique_ptr<pred::OffchipPredictor> hermes_;
    /// line paddr -> features recorded at predict, trained at fill
    std::map<Addr, HermesPending> hermes_pending_;

    /// source-miss seq -> saw a dependent miss (for the 3-bit counter)
    std::unordered_map<std::uint64_t, bool> source_dep_seen_;
    /// chain id -> source-miss seq, for counter updates on live-outs
    std::unordered_map<std::uint64_t, std::uint64_t> offload_chain_source_;

    // Invariant checking (null when disabled; observation only)
    check::CheckRegistry *check_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    check::RetireOrderChecker *ck_retire_ = nullptr;

    CoreStats stats_;
};

} // namespace emc

#endif // EMC_CORE_CORE_HH
