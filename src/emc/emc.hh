/**
 * @file
 * The Enhanced Memory Controller's compute engine (Section 4.1/4.3).
 *
 * The EMC sits at the memory-controller ring stop. It has no
 * front-end: chains arrive pre-decoded and pre-renamed from the cores.
 * Per context it holds a 16-entry uop buffer, a 16-entry physical
 * register file and a live-in vector; the shared back-end is 2-wide
 * with an 8-entry reservation station, a small LSQ, a 4 KB data cache,
 * a 32-entry per-core TLB and a pluggable LLC hit/miss predictor
 * (src/pred, DESIGN.md §13; the paper's PC-hashed 3-bit table by
 * default) that lets predicted-miss loads bypass the LLC and go
 * straight to DRAM.
 */

#ifndef EMC_EMC_EMC_HH
#define EMC_EMC_EMC_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "check/checkers.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "emc/chain.hh"
#include "obs/obs.hh"
#include "pred/predictor.hh"
#include "vm/tlb.hh"

namespace emc
{

/** EMC configuration (Table 1 defaults for the quad-core system). */
struct EmcConfig
{
    unsigned contexts = 2;
    unsigned issue_width = 2;       ///< 2 ALUs
    unsigned rs_entries = 8;
    unsigned lsq_entries = 8;       ///< per context
    unsigned dcache_bytes = 4096;
    unsigned dcache_ways = 4;
    Cycle dcache_latency = 2;
    unsigned tlb_entries = 32;      ///< per core
    bool direct_dram = true;        ///< bypass LLC on predicted miss
    /// Off-chip prediction engine (DESIGN.md §13).
    pred::PredConfig pred;
};

/** EMC statistics (Figures 15, 17, 22 and Section 6.5). */
struct EmcStats
{
    std::uint64_t chains_accepted = 0;
    std::uint64_t chains_rejected = 0;
    std::uint64_t chains_completed = 0;
    std::uint64_t halts_tlb = 0;
    std::uint64_t halts_mispredict = 0;
    std::uint64_t halts_disambiguation = 0;
    std::uint64_t uops_executed = 0;
    std::uint64_t loads_executed = 0;
    std::uint64_t stores_executed = 0;
    std::uint64_t dcache_hits = 0;
    std::uint64_t dcache_misses = 0;
    std::uint64_t lsq_forwards = 0;
    std::uint64_t direct_dram_loads = 0;
    std::uint64_t llc_query_loads = 0;
    std::uint64_t merged_loads = 0;   ///< MSHR-merged onto in-flight line
    std::uint64_t bypass_mispredictions = 0;  ///< bypassed but LLC had it
    std::uint64_t live_outs_total = 0;
    Average chain_exec_cycles;    ///< arm -> completion
    Average uops_per_chain;

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(chains_accepted);
        ar.io(chains_rejected);
        ar.io(chains_completed);
        ar.io(halts_tlb);
        ar.io(halts_mispredict);
        ar.io(halts_disambiguation);
        ar.io(uops_executed);
        ar.io(loads_executed);
        ar.io(stores_executed);
        ar.io(dcache_hits);
        ar.io(dcache_misses);
        ar.io(lsq_forwards);
        ar.io(direct_dram_loads);
        ar.io(llc_query_loads);
        ar.io(merged_loads);
        ar.io(bypass_mispredictions);
        ar.io(live_outs_total);
        ar.io(chain_exec_cycles);
        ar.io(uops_per_chain);
    }
};

/** Services the chip provides to the EMC (implemented by the System). */
class EmcPort
{
  public:
    virtual ~EmcPort() = default;

    /**
     * Issue a predicted-miss load directly to the local memory
     * controller (no ring, no LLC). Completion arrives via
     * Emc::memResponse(token).
     * @retval false MC queue full; the EMC retries next cycle
     */
    virtual bool emcDirectDram(CoreId core, Addr paddr_line,
                               std::uint64_t token) = 0;

    /**
     * Issue a predicted-hit load to the LLC over the control ring. On
     * an LLC miss the System forwards it to DRAM; either way
     * completion arrives via Emc::memResponse(token).
     * @retval false backpressure; retry next cycle
     */
    virtual bool emcLlcQuery(CoreId core, Addr paddr_line,
                             std::uint64_t token, Addr pc) = 0;

    /**
     * Notify the home core that a chain memory op executed (the LSQ
     * populate message of Section 4.3). Asynchronous; if the core
     * detects an ordering conflict the System cancels the chain via
     * Emc::cancelChain().
     */
    virtual void emcLsqPopulate(CoreId core, std::uint64_t rob_seq,
                                Addr paddr, std::uint64_t chain_id) = 0;

    /** Ship a chain result (live-outs or cancel notice) to the core. */
    virtual void emcChainResult(const ChainResult &result,
                                unsigned bytes) = 0;

    virtual Cycle now() const = 0;
};

/** The EMC compute engine. One instance per enhanced memory controller. */
class Emc
{
  public:
    /**
     * @param cfg configuration
     * @param num_cores cores served (TLBs and predictors are per core)
     * @param port chip services (not owned)
     */
    Emc(const EmcConfig &cfg, unsigned num_cores, EmcPort *port);

    /** Advance one cycle. */
    void tick();

    // ---- chain lifecycle ----

    /** True if a context is free to accept a chain. */
    bool hasFreeContext() const;

    /**
     * Accept a chain (called by the System after the transfer delay).
     * @param chain the chain
     * @param source_already_arrived the watched fill completed before
     *        the chain arrived; arm immediately
     * @retval false all contexts busy
     */
    bool acceptChain(const ChainRequest &chain,
                     bool source_already_arrived);

    /**
     * A DRAM fill for @p paddr_line reached this memory controller.
     * Arms any context waiting on it and refreshes the EMC data cache
     * (Section 4.1.3: the cache holds the most recent lines
     * transmitted from DRAM to the chip).
     */
    void observeFill(Addr paddr_line);

    /** Completion of an EMC-issued memory request. */
    void memResponse(std::uint64_t token, bool was_llc_miss);

    /** Cancel a running chain (disambiguation conflict at the core). */
    void cancelChain(std::uint64_t chain_id, ChainOutcome reason);

    // ---- coherence / virtual memory hooks ----

    /** LLC evicted/invalidated a line the EMC caches (directory bit). */
    void invalidateLine(Addr paddr_line);

    /** Stat-free invalidateLine() for the functional-warming path. */
    void warmInvalidateLine(Addr paddr_line);

    /** TLB shootdown for @p vpage of @p core. */
    void tlbShootdown(CoreId core, Addr vpage);

    /** Core-side residence check for the EMC TLB bit. */
    bool tlbResident(CoreId core, Addr vpage) const;

    /** Train the LLC hit/miss predictor (Section 4.3, [47]). */
    void missPredUpdate(CoreId core, Addr pc, Addr paddr_line,
                        bool was_miss);

    /** Stat-free missPredUpdate() for the functional-warming path. */
    void warmMissPredUpdate(CoreId core, Addr pc, Addr paddr_line,
                            bool was_miss);

    /** The off-chip predictor gating the LLC-bypass path. */
    const pred::OffchipPredictor &predictor() const { return *pred_; }

    /**
     * True when no context holds a chain: tick() is then a guaranteed
     * no-op (armed/halted work only exists inside a busy context).
     */
    bool
    idle() const
    {
        for (const auto &ctx : contexts_)
            if (ctx.busy)
                return false;
        return true;
    }

    const EmcStats &stats() const { return stats_; }

    /** Zero the statistics (post-warmup measurement start). */
    void
    resetStats()
    {
        stats_ = EmcStats{};
        pred_->resetStats();
    }
    const Cache &dcache() const { return dcache_; }
    const EmcConfig &config() const { return cfg_; }

    /**
     * Attach the invariant-check registry (null detaches). Enables
     * chain validation on accept plus the periodic selfCheck().
     */
    void setCheck(check::CheckRegistry *reg) { check_ = reg; }

    /**
     * Attach the lifecycle tracer (null detaches). Observation only;
     * emits an emc_issue instant per chain load sent to memory, on
     * the per-context track of memory controller @p mc.
     */
    void
    setTrace(obs::Tracer *t, unsigned mc)
    {
        tracer_ = t;
        trace_mc_ = mc;
    }

    /**
     * Deep structural self-check (periodic in checked runs): context
     * flag coherence, per-uop state vs. the token map (RRT/EPR leak
     * and double-map detection), token/line-waiter bijection, and the
     * data-cache tag store.
     */
    void selfCheck(check::CheckRegistry &reg) const;

    /** Checkpoint contexts, caches, predictors and the token maps. */
    template <class A>
    void
    ser(A &ar)
    {
        ar.io(contexts_);
        ar.io(dcache_);
        ar.io(tlbs_);
        ar.io(*pred_);
        ar.io(tokens_);
        ar.io(line_waiters_);
        ar.io(next_token_);
        ar.io(generation_counter_);
        ar.io(stats_);
    }

  private:
    /** One EMC physical register. */
    struct EprReg
    {
        std::uint64_t value = 0;
        bool ready = false;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(value);
            ar.io(ready);
        }
    };

    /** Dynamic state of one chain uop inside a context. */
    struct UopState
    {
        bool issued = false;
        bool completed = false;
        Cycle complete_cycle = kNoCycle;
        std::uint64_t value = 0;
        bool mem_outstanding = false;
        bool llc_miss = false;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(issued);
            ar.io(completed);
            ar.io(complete_cycle);
            ar.io(value);
            ar.io(mem_outstanding);
            ar.io(llc_miss);
        }
    };

    /** EMC LSQ entry (register spills awaiting fills). */
    struct LsqEntry
    {
        Addr vaddr = kNoAddr;
        std::uint64_t value = 0;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(vaddr);
            ar.io(value);
        }
    };

    /** One chain execution context (uop buffer + PRF + LSQ). */
    struct Context
    {
        bool busy = false;
        bool armed = false;
        bool halted = false;
        ChainOutcome halt_reason = ChainOutcome::kCompleted;
        ChainRequest chain;
        std::vector<UopState> state;
        std::vector<EprReg> prf;
        std::vector<LsqEntry> lsq;
        Cycle arm_cycle = kNoCycle;
        std::uint64_t generation = 0;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(busy);
            ar.io(armed);
            ar.io(halted);
            ar.io(halt_reason);
            ar.io(chain);
            ar.io(state);
            ar.io(prf);
            ar.io(lsq);
            ar.io(arm_cycle);
            ar.io(generation);
        }
    };

    /** Maps an outstanding memory token back to its chain uop. */
    struct TokenInfo
    {
        unsigned ctx = 0;
        unsigned uop = 0;
        std::uint64_t generation = 0;
        Addr line = kNoAddr;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(ctx);
            ar.io(uop);
            ar.io(generation);
            ar.io(line);
        }
    };

    bool sourceReady(const Context &c, const ChainUop &cu,
                     bool first_src, std::uint64_t &value) const;
    bool uopReady(const Context &c, unsigned idx,
                  std::uint64_t &a, std::uint64_t &b) const;
    bool issueUop(unsigned ctx_idx, unsigned uop_idx);
    void completeUop(Context &c, unsigned idx, std::uint64_t value);
    void finishContext(unsigned ctx_idx);
    void haltContext(unsigned ctx_idx, ChainOutcome reason);

    EmcConfig cfg_;       // ckpt-skip: (config, not state)
    unsigned num_cores_;  // ckpt-skip: (config, not state)
    EmcPort *port_;

    std::vector<Context> contexts_;
    Cache dcache_;
    std::vector<EmcTlb> tlbs_;                   ///< per core
    /// Off-chip predictor gating the LLC-bypass path (DESIGN.md §13).
    std::unique_ptr<pred::OffchipPredictor> pred_;
    std::unordered_map<std::uint64_t, TokenInfo> tokens_;
    /// line -> loads merged onto an outstanding request (MSHR-style)
    std::unordered_map<Addr, std::vector<TokenInfo>> line_waiters_;
    std::uint64_t next_token_ = 1;
    std::uint64_t generation_counter_ = 1;

    // Invariant checking (null when disabled; observation only)
    check::CheckRegistry *check_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    unsigned trace_mc_ = 0;  // ckpt-skip: (obs wiring)

    EmcStats stats_;
};

} // namespace emc

#endif // EMC_EMC_EMC_HH
