#include "core/core.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "common/log.hh"

namespace emc
{

namespace
{

/** Taint propagation depth cap: beyond this many ALU ops the value is
 *  no longer considered "derived from" the miss (see DESIGN.md §5). */
constexpr std::uint32_t kTaintDepthCap = 32;

constexpr std::uint16_t kNoPreg = 0xffff;

} // namespace

Core::Core(CoreId id, const CoreConfig &cfg, TraceSource *trace,
           PageTable *pt, CorePort *port)
    : id_(id), cfg_(cfg), trace_(trace), pt_(pt), port_(port),
      prf_(cfg.phys_regs), rat_(kArchRegs),
      l1d_(cfg.l1d_bytes, cfg.l1d_ways, "l1d"),
      mshrs_(cfg.l1_mshrs),
      tlb_(cfg.tlb_entries, cfg.tlb_walk_latency),
      hermes_(cfg.hermes_enabled
                  ? pred::makePredictor(cfg.hermes_pred, 1)
                  : nullptr)
{
    emc_assert(cfg.phys_regs > kArchRegs + cfg.rob_size / 2,
               "too few physical registers");
    // Map arch regs to the first physical registers; the rest go to
    // the free list.
    for (unsigned a = 0; a < kArchRegs; ++a) {
        rat_[a] = static_cast<std::uint16_t>(a);
        prf_[a].ready = true;
        prf_[a].value = 0;
    }
    for (unsigned p = cfg.phys_regs; p > kArchRegs; --p)
        free_list_.push_back(static_cast<std::uint16_t>(p - 1));
}

const Core::RobEntry *
Core::bySeq(std::uint64_t seq) const
{
    if (rob_.empty())
        return nullptr;
    const std::uint64_t head_seq = rob_.front().seq;
    if (seq < head_seq)
        return nullptr;
    const std::uint64_t idx = seq - head_seq;
    if (idx >= rob_.size())
        return nullptr;
    const RobEntry &e = rob_[idx];
    emc_assert(e.seq == seq, "ROB seq indexing broken");
    return &e;
}

Core::RobEntry *
Core::bySeq(std::uint64_t seq)
{
    return const_cast<RobEntry *>(std::as_const(*this).bySeq(seq));
}

void
Core::tick()
{
    now_ = port_->now();
    ++stats_.cycles;
    retireStage();
    completeStage();
    issueStage();
    fetchRenameDispatch();
    drainStoreBuffer();
    if (in_runahead_)
        runaheadStep();
}

bool
Core::stalledOnMissHead() const
{
    // Mirrors the full-window-stall trigger in retireStage.
    if (rob_.empty())
        return false;
    if (!(robFull() || rs_occupancy_ >= cfg_.rs_size))
        return false;
    const RobEntry &head = rob_.front();
    return isLoad(head.d.uop.op) && !head.completed
           && head.mem_outstanding && head.llc_miss;
}

Cycle
Core::quiescentUntil() const
{
    // Any pipeline stage that would change state this cycle means the
    // core is busy. The checks shadow tick()'s stages in order.
    if (in_runahead_)
        return 0;
    if (!rob_.empty() && rob_.front().completed)
        return 0;  // retirement can proceed
    if (!ready_q_.empty() || !retry_q_.empty())
        return 0;  // issue/execute has work
    if (!store_buffer_.empty())
        return 0;  // post-retire store drain

    // Fetch is quiescent only when the next uop is already known (the
    // deferred slot) and provably resource-blocked; pulling from the
    // trace or replay queue mutates state.
    if (!fetch_blocked_) {
        if (!have_deferred_uop_)
            return 0;
        const DynUop &d = deferred_uop_;
        const bool blocked =
            robFull() || rs_occupancy_ >= cfg_.rs_size
            || (isLoad(d.uop.op) && lq_occupancy_ >= cfg_.lq_size)
            || (isStore(d.uop.op) && sq_.size() >= cfg_.sq_size)
            || (d.uop.hasDst() && free_list_.empty());
        if (!blocked)
            return 0;
    }

    // The full-window stall path runs side effects every cycle unless
    // they already fired for this head: chain generation is a no-op
    // only once a chain is in flight or the head was already tried,
    // and runahead entry can trigger on any stalled cycle.
    if (stalledOnMissHead()) {
        if (cfg_.runahead_enabled)
            return 0;
        if (cfg_.emc_enabled && !chain_in_progress_
            && rob_.front().seq != last_chain_source_seq_)
            return 0;
    }

    // Otherwise the core only acts again at one of its timed wakeups.
    Cycle t = kNoCycle;
    if (chain_in_progress_)
        t = std::min(t, chain_send_cycle_);
    if (fetch_blocked_ && fetch_resume_ != 0)
        t = std::min(t, fetch_resume_);
    // lint-ok: unordered-iter (min over keys is order-insensitive)
    for (const auto &kv : complete_at_)
        t = std::min(t, kv.first);
    if (!counter_updates_.empty())
        t = std::min(t, counter_updates_.front().first);
    return t;
}

void
Core::skipIdleCycles(std::uint64_t n)
{
    // Keep now_ in sync so event handlers (fill arrival, chain
    // results) that run before the next tick() see the same clock they
    // would have under cycle-by-cycle ticking.
    now_ += n;
    stats_.cycles += n;
    // The stall predicate is stable across skipped cycles (nothing
    // the skip bypasses can change it), so bulk-account the counter
    // retireStage would have bumped each cycle.
    if (stalledOnMissHead())
        stats_.full_window_stall_cycles += n;
}

// --------------------------------------------------------------------
// Functional warming (DESIGN.md §8)
// --------------------------------------------------------------------

bool
Core::warmStep(WarmPort &port)
{
    emc_assert(ckptQuiescent(),
               "warmStep on a core with in-flight pipeline state");

    // Consume the parked front-end uop first so a detailed run can
    // hand over mid-fetch (its deferred uop was produced but never
    // dispatched, so the predictor/TLB/cache have not seen it yet).
    DynUop d;
    if (have_deferred_uop_) {
        d = deferred_uop_;
        have_deferred_uop_ = false;
    } else if (!trace_->next(d)) {
        return false;
    }

    // Architectural register write, in place: the fast path never
    // renames, so the RAT keeps its identity mapping and serWarm()'s
    // read-through-the-RAT view sees exactly these values.
    if (d.uop.hasDst()) {
        PhysReg &pr = prf_[rat_[d.uop.dst]];
        pr.value = isLoad(d.uop.op) ? d.mem_value : d.result;
        pr.ready = true;
        pr.taint = false;
        pr.taint_depth = 0;
        pr.taint_src = 0;
    }

    // Branches train the predictor once per dispatched branch, exactly
    // as fetchRenameDispatch does — same prefix, same tables, but no
    // stats counters (warming is outside simulated time).
    if (isBranch(d.uop.op) && cfg_.use_branch_predictor)
        bp_.warmUpdate(d.uop.pc, d.taken);

    if (isLoad(d.uop.op)) {
        const Addr paddr = tlb_.warmTranslate(*pt_, d.vaddr);
        const Addr line = lineAlign(paddr);
        if (l1d_.warmAccess(line) == nullptr) {
            // Mirror the fill path: the returning line is inserted
            // into the L1; the victim is dropped (write-through L1,
            // stale LLC presence bits are benign).
            l1d_.warmInsert(line);
            port.warmLine(id_, line, d.uop.pc, false);
        }
    } else if (isStore(d.uop.op)) {
        const Addr paddr = tlb_.warmTranslate(*pt_, d.vaddr);
        const Addr line = lineAlign(paddr);
        // Write-through, no-write-allocate: no L1 state changes
        // (drainStoreBuffer only peeks), every store goes out.
        port.warmLine(id_, line, d.uop.pc, true);
    }
    return true;
}

// --------------------------------------------------------------------
// Fetch / rename / dispatch
// --------------------------------------------------------------------

void
Core::fetchRenameDispatch()
{
    if (fetch_blocked_) {
        // Stalled behind a mispredicted branch; resume after it
        // resolves plus the redirect penalty.
        if (fetch_resume_ != 0 && now_ >= fetch_resume_) {
            fetch_blocked_ = false;
            fetch_resume_ = 0;
        } else {
            return;
        }
    }

    // Checkpoint drain: branch-resolution unblocking above still runs
    // (quiescence requires !fetch_blocked_), but no new uops enter.
    if (fetch_paused_)
        return;

    for (unsigned n = 0; n < cfg_.fetch_width; ++n) {
        DynUop d;
        if (have_deferred_uop_) {
            d = deferred_uop_;
        } else if (!replay_q_.empty()) {
            // Replay uops consumed during a runahead episode.
            d = replay_q_.front();
            replay_q_.pop_front();
            have_deferred_uop_ = true;
            deferred_uop_ = d;
        } else if (!trace_->next(d)) {
            return;  // trace exhausted
        } else {
            have_deferred_uop_ = true;
            deferred_uop_ = d;
        }

        // Resource checks (defer the uop if anything is full).
        if (robFull() || rs_occupancy_ >= cfg_.rs_size)
            return;
        if (isLoad(d.uop.op) && lq_occupancy_ >= cfg_.lq_size)
            return;
        if (isStore(d.uop.op) && sq_.size() >= cfg_.sq_size)
            return;
        if (d.uop.hasDst() && free_list_.empty())
            return;

        have_deferred_uop_ = false;

        RobEntry e;
        e.d = d;
        e.seq = next_seq_++;

        // Rename sources through the RAT.
        e.src1_preg = d.uop.hasSrc1() ? rat_[d.uop.src1] : kNoPreg;
        e.src2_preg = d.uop.hasSrc2() ? rat_[d.uop.src2] : kNoPreg;

        // Allocate a new physical register for the destination.
        if (d.uop.hasDst()) {
            e.prev_dst_preg = rat_[d.uop.dst];
            e.dst_preg = free_list_.back();
            free_list_.pop_back();
            rat_[d.uop.dst] = e.dst_preg;
            PhysReg &pr = prf_[e.dst_preg];
            pr.ready = false;
            pr.taint = false;
            pr.taint_depth = 0;
            pr.taint_src = 0;
        }

        e.in_rs = true;
        ++rs_occupancy_;

        // Count unready sources and register for wakeup.
        unsigned pending = 0;
        for (std::uint16_t src : {e.src1_preg, e.src2_preg}) {
            if (src != kNoPreg && !prf_[src].ready) {
                ++pending;
                preg_waiters_[src].push_back(e.seq);
            }
        }
        pending_srcs_[e.seq] = pending;

        if (isLoad(d.uop.op))
            ++lq_occupancy_;
        if (isStore(d.uop.op)) {
            StoreQueueEntry sqe;
            sqe.seq = e.seq;
            sq_.push_back(sqe);
        }
        if (isBranch(d.uop.op)) {
            ++stats_.branches;
            if (cfg_.use_branch_predictor) {
                // Consult the hybrid predictor; override the trace's
                // sampled flag with the real outcome.
                e.d.mispredicted =
                    bp_.predictAndUpdate(d.uop.pc, d.taken);
            }
            if (e.d.mispredicted) {
                ++stats_.mispredicts;
                fetch_blocked_ = true;
                fetch_block_seq_ = e.seq;
                fetch_resume_ = 0;
            }
        }

        rob_.push_back(e);
        if (pending == 0)
            ready_q_.push_back(e.seq);

        if (fetch_blocked_)
            return;  // nothing past the mispredicted branch
    }
}

// --------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------

void
Core::wakeup(std::uint16_t preg)
{
    auto it = preg_waiters_.find(preg);
    if (it == preg_waiters_.end())
        return;
    for (std::uint64_t seq : it->second) {
        auto pit = pending_srcs_.find(seq);
        if (pit == pending_srcs_.end())
            continue;
        emc_assert(pit->second > 0, "wakeup underflow");
        if (--pit->second == 0)
            ready_q_.push_back(seq);
    }
    preg_waiters_.erase(it);
}

void
Core::issueStage()
{
    unsigned issued = 0;
    retryStage(issued);

    // The ready queue is FIFO: every entry taken leaves it, whether it
    // issues, is dropped or moves to the retry list.
    while (issued < cfg_.issue_width && !ready_q_.empty()) {
        const std::uint64_t seq = ready_q_.front();
        ready_q_.pop_front();
        RobEntry *e = bySeq(seq);
        // Stale entries go; offloaded uops execute at the EMC
        // (chainResult re-queues them on cancel).
        if (!e || e->issued || e->completed || e->offloaded)
            continue;

        switch (e->d.uop.op) {
          case Opcode::kLoad: {
            std::uint64_t blocker = 0;
            if (!tryExecuteLoad(*e, blocker)) {
                retry_q_.push_back({seq, blocker, e->d.vaddr});
                replay_armed_ = false;
                continue;
            }
            break;
          }
          case Opcode::kStore:
            executeStore(*e);
            break;
          default:
            executeAlu(*e);
            break;
        }
        markIssued(*e);
        ++issued;
    }
}

void
Core::retryStage(unsigned &issued)
{
    // Loads that failed earlier go first, in the order they failed.
    // A parked load's full path would fail again at the SQ scan, so it
    // only repeats the one side effect that path has before the scan:
    // its TLB touch, at its own position among the other retries, so
    // the LRU order (and hence later evictions and walk latencies)
    // stays exactly that of re-running every load.
    if (retry_q_.empty())
        return;
    if (replay_armed_ && tlb_.changes() == replay_mark_) {
        // The same touches, in the same order, on a TLB that has not
        // moved since they last ran (and all hit): only hits accrue.
        tlb_.creditHits(retry_q_.size());
        return;
    }

    const std::uint64_t misses = tlb_.misses();
    const std::size_t n = retry_q_.size();
    std::size_t kept = 0;
    std::size_t i = 0;
    bool all_parked = true;
    for (; i < n && issued < cfg_.issue_width; ++i) {
        RetryEntry r = retry_q_[i];
        if (r.blocker != 0) {
            tlb_.touch(r.vaddr);
            retry_q_[kept++] = r;
            continue;
        }
        RobEntry *e = bySeq(r.seq);
        if (!e || e->issued || e->completed || e->offloaded)
            continue;
        if (tryExecuteLoad(*e, r.blocker)) {
            markIssued(*e);
            ++issued;
            continue;
        }
        // MSHR-full and port failures stay active; a store-blocked
        // load parks on the store.
        all_parked = all_parked && r.blocker != 0;
        r.vaddr = e->d.vaddr;
        retry_q_[kept++] = r;
    }
    // Issue width ran out: the unvisited rest keeps its order.
    for (; i < n; ++i) {
        all_parked = all_parked && retry_q_[i].blocker != 0;
        retry_q_[kept++] = retry_q_[i];
    }
    retry_q_.resize(kept);

    // Arm the O(1) replay only when the next stage would repeat exactly
    // this stage's touches: nothing left the list (a load that issued
    // touched the TLB but will not touch it again) and every touch hit.
    replay_armed_ = all_parked && kept == n && tlb_.misses() == misses;
    replay_mark_ = tlb_.changes();
}

template <class Pred>
void
Core::wakeRetries(Pred wake)
{
    for (RetryEntry &r : retry_q_) {
        if (r.blocker != 0 && wake(r)) {
            r.blocker = 0;
            replay_armed_ = false;
        }
    }
}

void
Core::markIssued(RobEntry &e)
{
    e.issued = true;
    if (e.in_rs) {
        e.in_rs = false;
        emc_assert(rs_occupancy_ > 0, "RS underflow");
        --rs_occupancy_;
    }
}

void
Core::executeAlu(RobEntry &e)
{
    const std::uint64_t a =
        e.src1_preg != kNoPreg ? prf_[e.src1_preg].value : 0;
    const std::uint64_t b =
        e.src2_preg != kNoPreg ? prf_[e.src2_preg].value : 0;
    std::uint64_t value = 0;
    if (e.d.uop.op != Opcode::kNop)
        value = evalAlu(e.d.uop.op, a, b, e.d.uop.imm);
    emc_assert(!e.d.uop.hasDst() || value == e.d.result,
               "core ALU result diverged from oracle: " + e.d.uop.toString());
    scheduleComplete(e, now_ + execLatency(e.d.uop.op), value);
    ++stats_.uops_executed;
    if (e.d.uop.op == Opcode::kFpAdd || e.d.uop.op == Opcode::kFpMul
        || e.d.uop.op == Opcode::kVecOp) {
        ++stats_.fp_uops_executed;
    }
}

bool
Core::scanOlderStores(const RobEntry &load, std::uint64_t &blocker) const
{
    // Conservative memory disambiguation: the core has no replay
    // machinery, so a load waits until every older store has computed
    // its address, then forwards on a match. Youngest first.
    blocker = 0;
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        if (it->seq >= load.seq)
            continue;
        if (!it->addr_known) {
            // Offloaded stores resolve at the EMC; younger loads may
            // bypass them (the LSQ-populate conflict check cancels the
            // chain on a real collision).
            const RobEntry *st = bySeq(it->seq);
            if (st && st->offloaded)
                continue;
            blocker = it->seq;
            return false;
        }
        if (it->vaddr == load.d.vaddr)
            return true;
    }
    return false;
}

bool
Core::tryExecuteLoad(RobEntry &e, std::uint64_t &blocker)
{
    const std::uint64_t base =
        e.src1_preg != kNoPreg ? prf_[e.src1_preg].value : 0;
    const Addr vaddr = effectiveAddr(base, e.d.uop.imm);
    emc_assert(vaddr == e.d.vaddr,
               "load address diverged from oracle: " + e.d.uop.toString());

    Cycle walk = 0;
    const Addr paddr = tlb_.translate(*pt_, vaddr, walk);
    e.paddr = paddr;

    // Address-taint bookkeeping for dependent-miss identification.
    if (e.src1_preg != kNoPreg && prf_[e.src1_preg].taint) {
        e.addr_tainted = true;
        e.taint_depth_at_exec = prf_[e.src1_preg].taint_depth;
        e.addr_taint_src = prf_[e.src1_preg].taint_src;
    }

    if (scanOlderStores(e, blocker)) {
        scheduleComplete(e, now_ + 1 + walk, e.d.mem_value);
        ++stats_.uops_executed;
        return true;
    }
    if (blocker != 0)
        return false;  // parks until the store's state changes

    const Addr line = lineAlign(paddr);
    if (l1d_.access(line) != nullptr) {
        ++stats_.l1d_hits;
        scheduleComplete(e, now_ + cfg_.l1d_latency + walk, e.d.mem_value);
        ++stats_.uops_executed;
        return true;
    }

    // L1 miss: allocate an MSHR and send the request out.
    if (mshrs_.has(line)) {
        ++stats_.l1d_misses;
        mshrs_.allocate(line, e.seq);
        e.mem_outstanding = true;
        ++stats_.uops_executed;
        return true;
    }
    if (mshrs_.full())
        return false;
    if (!port_->requestLine(id_, line, e.d.uop.pc, false, e.addr_tainted))
        return false;
    ++stats_.l1d_misses;
    mshrs_.allocate(line, e.seq);
    e.mem_outstanding = true;
    ++stats_.uops_executed;
    maybeHermesProbe(line, e.d.uop.pc, vaddr);
    return true;
}

void
Core::maybeHermesProbe(Addr paddr_line, Addr pc, Addr vaddr)
{
    if (!hermes_)
        return;
    // One prediction per in-flight line: a secondary access rides the
    // first access's probe (and its training outcome).
    if (hermes_pending_.count(paddr_line))
        return;
    pred::PredFeatures f;
    f.core = 0;  // per-core predictor instance
    f.pc = pc;
    f.line = paddr_line;
    f.vaddr = vaddr;
    const bool predicted = hermes_->predict(f);
    hermes_pending_.emplace(paddr_line,
                            HermesPending{pc, vaddr, predicted});
    if (predicted)
        port_->hermesProbe(id_, paddr_line, pc);
}

void
Core::executeStore(RobEntry &e)
{
    const std::uint64_t base =
        e.src1_preg != kNoPreg ? prf_[e.src1_preg].value : 0;
    const std::uint64_t data =
        e.src2_preg != kNoPreg ? prf_[e.src2_preg].value : 0;
    const Addr vaddr = effectiveAddr(base, e.d.uop.imm);
    emc_assert(vaddr == e.d.vaddr,
               "store address diverged from oracle: " + e.d.uop.toString());
    emc_assert(data == e.d.mem_value,
               "store data diverged from oracle: " + e.d.uop.toString());

    Cycle walk = 0;
    const Addr paddr = tlb_.translate(*pt_, vaddr, walk);
    e.paddr = paddr;

    for (auto &sqe : sq_) {
        if (sqe.seq == e.seq) {
            sqe.vaddr = vaddr;
            sqe.paddr = paddr;
            sqe.value = data;
            sqe.addr_known = true;
            break;
        }
    }
    wakeRetries([&](const RetryEntry &r) { return r.blocker == e.seq; });
    scheduleComplete(e, now_ + 1 + walk, data);
    ++stats_.uops_executed;
}

void
Core::scheduleComplete(RobEntry &e, Cycle when, std::uint64_t value)
{
    e.ready_cycle = when;
    e.pending_value = value;
    complete_at_[when].push_back(e.seq);
}

// --------------------------------------------------------------------
// Complete (writeback) stage
// --------------------------------------------------------------------

void
Core::completeStage()
{
    auto it = complete_at_.find(now_);
    if (it != complete_at_.end()) {
        for (std::uint64_t seq : it->second) {
            RobEntry *e = bySeq(seq);
            if (!e || e->completed)
                continue;
            completeEntry(*e, e->pending_value, false);
        }
        complete_at_.erase(it);
    }

    // Deferred dependent-miss counter updates (see header comment in
    // recordMissDependence).
    while (!counter_updates_.empty()
           && counter_updates_.front().first <= now_) {
        const std::uint64_t src_seq = counter_updates_.front().second;
        counter_updates_.pop_front();
        auto sit = source_dep_seen_.find(src_seq);
        if (sit != source_dep_seen_.end()) {
            if (sit->second)
                dep_counter_.increment();
            else
                dep_counter_.decrement();
            source_dep_seen_.erase(sit);
        }
    }

    // Ship a finished chain once its generation cycles have elapsed.
    if (chain_in_progress_ && now_ >= chain_send_cycle_) {
        chain_in_progress_ = false;
        if (!port_->offloadChain(pending_chain_)) {
            ++stats_.chains_rejected_no_context;
            unOffloadChain(pending_chain_);
        } else {
            EMC_OBS_POINT(tracer_, obs::TracePoint::kChainOffloaded,
                          now_, pending_chain_.id,
                          obs::Track::core(id_),
                          pending_chain_.uops.size());
            ++stats_.chains_generated;
            stats_.chain_uops_total += pending_chain_.uops.size();
            stats_.chain_live_ins_total += pending_chain_.live_in_count;
            for (const ChainUop &cu : pending_chain_.uops) {
                if (cu.is_source) {
                    offload_chain_source_[pending_chain_.id] = cu.rob_seq;
                    break;
                }
            }
        }
    }
}

void
Core::completeEntry(RobEntry &e, std::uint64_t value, bool from_emc)
{
    emc_assert(!e.completed, "double completion");
    e.completed = true;
    e.mem_outstanding = false;

    // Belt-and-braces exit for runahead: the blocking load completing
    // always ends the episode (covers the same-cycle fill race).
    if (in_runahead_ && isLoad(e.d.uop.op) && e.paddr != kNoAddr
        && lineAlign(e.paddr) == runahead_blocking_line_) {
        exitRunahead(runahead_blocking_line_);
    }

    if (e.d.uop.hasDst()) {
        PhysReg &pr = prf_[e.dst_preg];
        emc_assert(value == e.d.result,
                   "completion value diverged from oracle: "
                       + e.d.uop.toString());
        pr.value = value;
        pr.ready = true;
        setTaintFromSources(e, pr);
        ++stats_.cdb_broadcasts;
        wakeup(e.dst_preg);
    }
    pending_srcs_.erase(e.seq);

    if (isBranch(e.d.uop.op) && e.d.mispredicted
        && fetch_blocked_ && fetch_block_seq_ == e.seq) {
        fetch_resume_ = now_ + cfg_.mispredict_penalty;
    }

    if (from_emc) {
        e.completed_by_emc = true;
        ++stats_.offloaded_uops_completed_remotely;
    }
}

void
Core::setTaintFromSources(const RobEntry &e, PhysReg &dst)
{
    if (isLoad(e.d.uop.op)) {
        // A load's destination taint reflects its own LLC miss status,
        // set in fillArrived; hits clear the taint.
        dst.taint = e.llc_miss;
        dst.taint_depth = 0;
        dst.taint_src = e.seq;
        return;
    }
    // ALU ops propagate the deeper of their source taints, capped.
    dst.taint = false;
    std::uint32_t depth = 0;
    std::uint64_t src = 0;
    for (std::uint16_t s : {e.src1_preg, e.src2_preg}) {
        if (s == kNoPreg)
            continue;
        const PhysReg &pr = prf_[s];
        if (pr.taint && pr.taint_depth >= depth) {
            dst.taint = true;
            depth = pr.taint_depth;
            src = pr.taint_src;
        }
    }
    if (dst.taint) {
        dst.taint_depth = depth + 1;
        dst.taint_src = src;
        if (dst.taint_depth > kTaintDepthCap)
            dst.taint = false;
    }
}

// --------------------------------------------------------------------
// Retire stage + full-window stall detection
// --------------------------------------------------------------------

void
Core::retireStage()
{
    full_window_stall_ = false;

    for (unsigned n = 0; n < cfg_.retire_width && !rob_.empty(); ++n) {
        RobEntry &head = rob_.front();
        if (!head.completed)
            break;

        if (isStore(head.d.uop.op)) {
            // Move the store to the post-retire drain buffer.
            emc_assert(!sq_.empty() && sq_.front().seq == head.seq,
                       "SQ out of sync with ROB");
            StoreQueueEntry sqe = sq_.front();
            sq_.pop_front();
            sqe.retired = true;
            store_buffer_.push_back(sqe);
        }
        if (isLoad(head.d.uop.op)) {
            emc_assert(lq_occupancy_ > 0, "LQ underflow");
            --lq_occupancy_;
            // Source-miss bookkeeping for the 3-bit trigger counter.
            // Loads executed remotely at the EMC do not update it:
            // the core cannot observe their dependents (the chain
            // result already credited the chain's source).
            if (head.llc_miss && !head.completed_by_emc)
                recordMissDependence(head);
        }
        if (head.prev_dst_preg != kNoPreg && head.d.uop.hasDst())
            free_list_.push_back(head.prev_dst_preg);

        if (ck_retire_)
            ck_retire_->onRetire(*check_, id_, head.seq);
        ++stats_.retired_uops;
        rob_.pop_front();
    }

    // Full-window stall: the window (ROB, or the RS clogged with
    // miss-dependent uops) is full and the head is an outstanding load
    // known to have missed the LLC (Section 4.2's trigger).
    const bool window_full = robFull()
                             || rs_occupancy_ >= cfg_.rs_size;
    if (!rob_.empty() && window_full) {
        RobEntry &head = rob_.front();
        if (isLoad(head.d.uop.op) && !head.completed
            && head.mem_outstanding && head.llc_miss) {
            full_window_stall_ = true;
            ++stats_.full_window_stall_cycles;
            if (cfg_.emc_enabled)
                maybeGenerateChain();
            if (cfg_.runahead_enabled && !in_runahead_)
                maybeEnterRunahead(head);
        }
    }
}

void
Core::recordMissDependence(const RobEntry &head)
{
    // The counter decision for this source miss fires a fixed delay
    // after retirement, giving dependent loads time to reach their own
    // LLC miss determination. See DESIGN.md §5.
    if (!source_dep_seen_.count(head.seq))
        source_dep_seen_[head.seq] = false;
    counter_updates_.emplace_back(now_ + 200, head.seq);
}

// --------------------------------------------------------------------
// Chain generation (Section 4.2, Algorithm 1)
// --------------------------------------------------------------------

void
Core::maybeGenerateChain()
{
    RobEntry &head = rob_.front();
    if (chain_in_progress_ || head.seq == last_chain_source_seq_)
        return;
    last_chain_source_seq_ = head.seq;

    if (!dep_counter_.topTwoBitsSet()) {
        ++stats_.chains_rejected_counter;
        return;
    }

    ChainRequest chain;
    if (!buildChain(head, chain))
        return;

    // Generation costs one cycle per chain uop (the per-cycle pseudo
    // wake-up walk of Figure 9), then the chain ships to the EMC.
    pending_chain_ = std::move(chain);
    chain_in_progress_ = true;
    chain_send_cycle_ = now_ + pending_chain_.uops.size();
    stats_.chain_gen_cycles += pending_chain_.uops.size();
}

bool
Core::buildChain(RobEntry &source, ChainRequest &chain)
{
    emc_assert(isLoad(source.d.uop.op), "chain source must be a load");

    chain.id = next_chain_id_++;
    chain.core = id_;
    chain.source_paddr_line = lineAlign(source.paddr);
    chain.source_value = source.d.mem_value;

    // Register Remapping Table: core preg -> EMC preg.
    std::unordered_map<std::uint16_t, std::uint8_t> rrt;
    std::uint8_t next_epr = 0;

    // Process the source uops. The head is the miss blocking
    // retirement; every other in-flight load waiting on the *same
    // line* (MSHR-merged, e.g. a pointer and a field of one node)
    // receives its data in the same fill, so the MSHR wake-up
    // broadcasts all of their destination tags (multiple levels of
    // indirection, Section 4.2).
    const Addr src_line = lineAlign(source.paddr);
    // The walk runs with a larger tentative budget; the slice filter
    // below prunes non-address-generating uops before the hardware
    // caps (16 uops / 16 EPRs) are enforced on what actually ships.
    const unsigned walk_uops = 4 * cfg_.chain_max_uops;
    const unsigned walk_eprs = 4 * kEmcPhysRegs;
    std::vector<std::uint8_t> walk_epr_alloc;
    std::unordered_set<std::uint64_t> source_seqs;
    for (std::size_t i = 0; i < rob_.size()
                            && chain.uops.size() + 1 < walk_uops
                            && next_epr < walk_eprs; ++i) {
        RobEntry &e = rob_[i];
        if (!isLoad(e.d.uop.op) || e.completed || e.offloaded)
            continue;
        const bool is_head = e.seq == source.seq;
        if (!is_head
            && !(e.issued && e.mem_outstanding && e.paddr != kNoAddr
                 && lineAlign(e.paddr) == src_line)) {
            continue;
        }
        ChainUop su;
        su.d = e.d;
        su.rob_seq = e.seq;
        su.is_source = true;
        su.epr_dst = next_epr;
        rrt[e.dst_preg] = next_epr++;
        ++stats_.rrt_writes;
        ++stats_.cdb_broadcasts;
        ++stats_.rob_chain_reads;
        chain.uops.push_back(su);
        source_seqs.insert(e.seq);
        if (is_head)
            chain.source_epr = su.epr_dst;
    }

    std::vector<std::uint64_t> marked;

    for (std::size_t i = 1;
         i < rob_.size() && chain.uops.size() < walk_uops; ++i) {
        RobEntry &e = rob_[i];
        if (e.completed || e.issued || e.offloaded)
            continue;
        if (source_seqs.count(e.seq))
            continue;
        if (!emcAllowed(e.d.uop.op))
            continue;

        const bool has1 = e.src1_preg != kNoPreg;
        const bool has2 = e.src2_preg != kNoPreg;
        const bool dep1 = has1 && rrt.count(e.src1_preg);
        const bool dep2 = has2 && rrt.count(e.src2_preg);
        stats_.rrt_reads += (has1 ? 1 : 0) + (has2 ? 1 : 0);
        if (!dep1 && !dep2)
            continue;  // not woken by the pseudo-broadcast walk
        const bool ok1 = !has1 || dep1 || prf_[e.src1_preg].ready;
        const bool ok2 = !has2 || dep2 || prf_[e.src2_preg].ready;
        if (!ok1 || !ok2)
            continue;

        ChainUop cu;
        cu.d = e.d;
        cu.rob_seq = e.seq;

        if (isStore(e.d.uop.op)) {
            // Stores join the chain only as register spills: a later
            // load in the window reads the same address (Section 4.3).
            bool spill = false;
            for (std::size_t j = i + 1; j < rob_.size(); ++j) {
                const RobEntry &l = rob_[j];
                if (isLoad(l.d.uop.op) && l.d.vaddr == e.d.vaddr) {
                    spill = true;
                    break;
                }
            }
            if (!spill)
                continue;
            cu.is_spill_store = true;
        }

        if (dep1) {
            cu.epr_src1 = rrt[e.src1_preg];
        } else if (has1) {
            cu.src1_live_in = true;
            cu.src1_val = prf_[e.src1_preg].value;
            ++chain.live_in_count;
        }
        if (dep2) {
            cu.epr_src2 = rrt[e.src2_preg];
        } else if (has2) {
            cu.src2_live_in = true;
            cu.src2_val = prf_[e.src2_preg].value;
            ++chain.live_in_count;
        }

        if (e.d.uop.hasDst()) {
            if (next_epr >= walk_eprs)
                break;
            cu.epr_dst = static_cast<std::uint8_t>(next_epr);
            rrt[e.dst_preg] = static_cast<std::uint8_t>(next_epr++);
            ++stats_.rrt_writes;
        }

        ++stats_.cdb_broadcasts;  // pseudo wake-up tag broadcast
        ++stats_.rob_chain_reads;
        chain.uops.push_back(cu);
        marked.push_back(e.seq);
    }

    if (marked.empty())
        return false;  // no dependent work worth shipping

    // Filter the chain to the operations required to generate the
    // dependent memory accesses (Section 4.1.2): keep memory ops,
    // branches and their transitive register ancestors; pure-compute
    // dependents stay at the core and complete off the live-outs.
    {
        std::vector<bool> keep(chain.uops.size(), false);
        std::vector<bool> needed_epr(walk_eprs, false);
        for (std::size_t i = chain.uops.size(); i-- > 0;) {
            const ChainUop &cu = chain.uops[i];
            bool k = cu.is_source || isMem(cu.d.uop.op)
                     || isBranch(cu.d.uop.op);
            if (!k && cu.epr_dst != kNoEpr && needed_epr[cu.epr_dst])
                k = true;
            if (k) {
                if (cu.epr_src1 != kNoEpr)
                    needed_epr[cu.epr_src1] = true;
                if (cu.epr_src2 != kNoEpr)
                    needed_epr[cu.epr_src2] = true;
            }
            keep[i] = k;
        }

        // Rebuild the chain with compact EPR numbering, enforcing
        // the hardware caps (Table 1) on the filtered chain.
        std::vector<std::uint8_t> remap(walk_eprs, kNoEpr);
        std::vector<ChainUop> kept;
        unsigned live_ins = 0;
        bool has_dependent_mem = false;
        std::unordered_set<std::uint64_t> kept_seqs;
        std::unordered_set<Addr> dep_lines;
        std::uint8_t epr = 0;
        for (std::size_t i = 0; i < chain.uops.size(); ++i) {
            if (!keep[i])
                continue;
            if (kept.size() >= cfg_.chain_max_uops)
                break;
            ChainUop cu = chain.uops[i];
            if (cu.d.uop.hasDst() && epr >= kEmcPhysRegs)
                break;
            // Bound the chase depth: stop once the chain already
            // covers chain_max_indirection new lines and this load
            // would open another one.
            if (!cu.is_source && isLoad(cu.d.uop.op)) {
                const Addr l = lineAlign(cu.d.vaddr);
                if (!dep_lines.count(l)
                    && dep_lines.size() >= cfg_.chain_max_indirection) {
                    break;
                }
                dep_lines.insert(l);
            }
            if (cu.epr_src1 != kNoEpr)
                cu.epr_src1 = remap[cu.epr_src1];
            if (cu.epr_src2 != kNoEpr)
                cu.epr_src2 = remap[cu.epr_src2];
            if (cu.epr_dst != kNoEpr) {
                remap[cu.epr_dst] = epr;
                cu.epr_dst = epr++;
            }
            if (cu.src1_live_in)
                ++live_ins;
            if (cu.src2_live_in)
                ++live_ins;
            if (!cu.is_source && isMem(cu.d.uop.op))
                has_dependent_mem = true;
            if (cu.is_source && cu.rob_seq == source.seq)
                chain.source_epr = cu.epr_dst;
            kept.push_back(cu);
            if (!cu.is_source)
                kept_seqs.insert(cu.rob_seq);
        }
        if (!has_dependent_mem)
            return false;  // nothing latency-critical to accelerate
        chain.uops = std::move(kept);
        chain.live_in_count = live_ins;
        marked.assign(kept_seqs.begin(), kept_seqs.end());
    }

    // Attach the source PTE when the EMC TLB does not hold it.
    const Addr vpage = pageNum(source.d.vaddr);
    if (!port_->emcTlbResident(id_, vpage)) {
        chain.source_pte = pt_->lookup(vpage);
        chain.pte_attached = true;
    }

    for (std::uint64_t seq : marked) {
        RobEntry *e = bySeq(seq);
        e->offloaded = true;
        if (e->in_rs) {
            e->in_rs = false;
            emc_assert(rs_occupancy_ > 0, "RS underflow (chain)");
            --rs_occupancy_;
        }
        // A load parked on an offloaded store may now bypass it; an
        // offloaded load leaves the retry list untouched.
        wakeRetries([&](const RetryEntry &r) {
            return r.blocker == seq || r.seq == seq;
        });
    }
    return true;
}

void
Core::unOffloadChain(const ChainRequest &chain)
{
    for (const ChainUop &cu : chain.uops) {
        if (cu.is_source)
            continue;
        RobEntry *e = bySeq(cu.rob_seq);
        if (!e || e->completed)
            continue;
        unOffload(*e);
    }
}

void
Core::unOffload(RobEntry &e)
{
    e.offloaded = false;
    e.in_rs = true;
    ++rs_occupancy_;  // may transiently overshoot on cancel
    auto pit = pending_srcs_.find(e.seq);
    if (pit != pending_srcs_.end() && pit->second == 0)
        ready_q_.push_back(e.seq);
    // A store the younger loads bypassed blocks them again.
    if (isStore(e.d.uop.op))
        wakeRetries([&](const RetryEntry &r) { return r.seq > e.seq; });
}

// --------------------------------------------------------------------
// Notifications from the System
// --------------------------------------------------------------------

void
Core::fillArrived(Addr paddr_line, bool was_llc_miss)
{
    // Train the Hermes predictor on the ground-truth LLC outcome with
    // the exact feature bundle recorded at predict time.
    auto hp = hermes_pending_.find(paddr_line);
    if (hp != hermes_pending_.end()) {
        if (hermes_) {
            pred::PredFeatures f;
            f.core = 0;
            f.pc = hp->second.pc;
            f.line = paddr_line;
            f.vaddr = hp->second.vaddr;
            hermes_->train(f, was_llc_miss);
        }
        hermes_pending_.erase(hp);
    }

    // Fill into the L1 (write-through L1 lines are never dirty).
    if (l1d_.peek(paddr_line) == nullptr)
        l1d_.insert(paddr_line);

    if (in_runahead_ && paddr_line == runahead_blocking_line_)
        exitRunahead(paddr_line);

    std::vector<std::uint64_t> waiters;
    if (!mshrs_.complete(paddr_line, waiters))
        return;  // e.g. fetch-on-write fills with no register consumers
    for (std::uint64_t seq : waiters) {
        RobEntry *e = bySeq(seq);
        if (!e || e->completed || e->offloaded)
            continue;
        e->llc_miss = e->llc_miss || was_llc_miss;
        scheduleComplete(*e, now_ + 1, e->d.mem_value);
    }
}

void
Core::llcMissDetermined(Addr paddr_line)
{
    auto it = fill_waiters_.find(paddr_line);
    (void)it;
    // Mark every waiting load as an LLC miss; classify the requester.
    bool counted = false;
    for (auto &e : rob_) {
        if (!e.mem_outstanding || e.completed)
            continue;
        if (e.paddr == kNoAddr || lineAlign(e.paddr) != paddr_line)
            continue;
        if (!isLoad(e.d.uop.op))
            continue;
        e.llc_miss = true;
        if (!counted) {
            counted = true;
            ++stats_.llc_misses;
            if (e.addr_tainted) {
                ++stats_.dependent_llc_misses;
                stats_.dep_distance.sample(
                    static_cast<double>(e.taint_depth_at_exec));
                auto sit = source_dep_seen_.find(e.addr_taint_src);
                if (sit != source_dep_seen_.end()) {
                    if (!sit->second) {
                        sit->second = true;
                        dep_counter_.increment();
                    }
                } else {
                    source_dep_seen_[e.addr_taint_src] = true;
                    dep_counter_.increment();
                }
            }
        }
    }
}

void
Core::chainResult(const ChainResult &result)
{
    // Dependent misses executed at the EMC are still dependent misses
    // of the program: feed them into the 3-bit trigger counter so the
    // counter tracks ground truth rather than only core-visible
    // misses (otherwise chaining would starve itself).
    std::uint64_t src_seq = 0;
    auto oit = offload_chain_source_.find(result.chain_id);
    if (oit != offload_chain_source_.end()) {
        src_seq = oit->second;
        offload_chain_source_.erase(oit);
    }
    if (result.outcome == ChainOutcome::kCompleted) {
        bool any_dep_miss = false;
        for (const LiveOut &lo : result.live_outs) {
            if (lo.is_mem && !lo.is_store && lo.llc_miss)
                any_dep_miss = true;
        }
        if (any_dep_miss) {
            auto sit = source_dep_seen_.find(src_seq);
            if (sit != source_dep_seen_.end()) {
                if (!sit->second) {
                    sit->second = true;
                    dep_counter_.increment();
                }
            } else {
                source_dep_seen_[src_seq] = true;
                dep_counter_.increment();
            }
        }
    }

    if (result.outcome != ChainOutcome::kCompleted) {
        ++stats_.chain_results_canceled;
        // Reconstruct the chain membership from the live-outs the EMC
        // echoes back (every chain uop's rob_seq is echoed on cancel).
        for (const LiveOut &lo : result.live_outs) {
            RobEntry *e = bySeq(lo.rob_seq);
            if (!e || e->completed || !e->offloaded)
                continue;
            unOffload(*e);
        }
        return;
    }

    ++stats_.chain_results_ok;
    for (const LiveOut &lo : result.live_outs) {
        RobEntry *e = bySeq(lo.rob_seq);
        if (!e || e->completed)
            continue;
        emc_assert(e->offloaded, "live-out for non-offloaded uop");
        if (isLoad(e->d.uop.op))
            e->llc_miss = lo.llc_miss;
        if (isStore(e->d.uop.op)) {
            // Populate the SQ entry so the post-retire drain works.
            for (auto &sqe : sq_) {
                if (sqe.seq == e->seq) {
                    sqe.vaddr = e->d.vaddr;
                    sqe.paddr = pt_->translate(e->d.vaddr);
                    sqe.value = e->d.mem_value;
                    sqe.addr_known = true;
                    break;
                }
            }
            // A younger load may now forward from it.
            wakeRetries([&](const RetryEntry &r) { return r.seq > e->seq; });
            completeEntry(*e, lo.value, true);
        } else {
            completeEntry(*e, lo.value, true);
        }
    }
}

bool
Core::lsqPopulate(std::uint64_t rob_seq, Addr paddr)
{
    // The EMC executed a memory op; check for an ordering conflict: an
    // older, non-offloaded store to the same address whose data the
    // EMC could not have seen.
    RobEntry *e = bySeq(rob_seq);
    if (!e)
        return false;
    for (const auto &sqe : sq_) {
        if (sqe.seq >= rob_seq)
            break;
        if (!sqe.addr_known)
            continue;
        if (lineAlign(sqe.paddr) == lineAlign(paddr)) {
            RobEntry *st = bySeq(sqe.seq);
            if (st && !st->offloaded && !st->completed)
                return true;  // conflict: cancel the chain
            if (st && !st->offloaded && st->completed
                && sqe.vaddr == e->d.vaddr) {
                // Same-address completed store not in the chain: the
                // EMC read DRAM, not the forwarded value -> conflict.
                return true;
            }
        }
    }
    return false;
}

void
Core::invalidateL1(Addr paddr_line)
{
    l1d_.invalidate(paddr_line);
}

void
Core::warmInvalidateL1(Addr paddr_line)
{
    l1d_.warmInvalidate(paddr_line);
}

// --------------------------------------------------------------------
// Store drain (write-through L1)
// --------------------------------------------------------------------

// --------------------------------------------------------------------
// Runahead execution (optional baseline, Mutlu et al. [38])
// --------------------------------------------------------------------

void
Core::maybeEnterRunahead(const RobEntry &head)
{
    // The fill may already be en route to the register file (it can
    // land in the L1 the same cycle the stall is inspected).
    if (head.ready_cycle != kNoCycle
        || l1d_.peek(lineAlign(head.paddr)) != nullptr) {
        return;
    }
    in_runahead_ = true;
    runahead_blocking_line_ = lineAlign(head.paddr);
    runahead_budget_ = cfg_.runahead_max_uops;
    runahead_lines_.clear();
    ++stats_.runahead_episodes;

    // Shadow validity: everything the window already computed is
    // valid; the destinations of outstanding miss loads are INV.
    for (bool &v : runahead_valid_)
        v = true;
    for (const RobEntry &e : rob_) {
        if (isLoad(e.d.uop.op) && !e.completed)
            runahead_valid_[e.d.uop.dst] = false;
        else if (e.d.uop.hasDst() && !e.completed)
            runahead_valid_[e.d.uop.dst] = false;
    }
}

void
Core::runaheadStep()
{
    // Pre-execute up to fetch_width future uops per cycle with the
    // invalid-value dataflow. Uops are kept for replay after exit.
    for (unsigned n = 0; n < cfg_.fetch_width && in_runahead_; ++n) {
        if (runahead_budget_ == 0)
            return;  // budget exhausted; stay stalled until the fill
        DynUop d;
        if (!trace_->next(d))
            return;
        replay_q_.push_back(d);
        --runahead_budget_;
        ++stats_.runahead_uops;

        const bool s1 = !d.uop.hasSrc1() || runahead_valid_[d.uop.src1];
        const bool s2 = !d.uop.hasSrc2() || runahead_valid_[d.uop.src2];
        const bool inputs_valid = s1 && s2;

        if (isLoad(d.uop.op)) {
            if (!inputs_valid) {
                // A dependent load: its address is INV. Runahead must
                // drop it — this is precisely what the EMC accelerates.
                runahead_valid_[d.uop.dst] = false;
                ++stats_.runahead_dropped_loads;
                continue;
            }
            runahead_valid_[d.uop.dst] = true;
            Cycle walk = 0;
            const Addr paddr = tlb_.translate(*pt_, d.vaddr, walk);
            const Addr line = lineAlign(paddr);
            if (l1d_.peek(line) != nullptr || mshrs_.has(line)
                || runahead_lines_.count(line)) {
                continue;
            }
            if (port_->requestLine(id_, line, d.uop.pc, false, false)) {
                runahead_lines_.insert(line);
                ++stats_.runahead_prefetches;
            }
            continue;
        }
        if (isStore(d.uop.op) || isBranch(d.uop.op))
            continue;  // stores do not commit; branches follow the trace
        if (d.uop.hasDst())
            runahead_valid_[d.uop.dst] = inputs_valid;
    }
}

void
Core::exitRunahead(Addr filled_line)
{
    in_runahead_ = false;
    runahead_blocking_line_ = kNoAddr;
    runahead_lines_.clear();
}

void
Core::debugDump() const
{
    std::fprintf(stderr,
                 "core%u @%llu: rob=%zu rs=%u lq=%u sq=%zu sb=%zu "
                 "readyq=%zu retired=%llu fetch_blocked=%d "
                 "chain_in_progress=%d\n",
                 id_, static_cast<unsigned long long>(now_), rob_.size(),
                 rs_occupancy_, lq_occupancy_, sq_.size(),
                 store_buffer_.size(), ready_q_.size(),
                 static_cast<unsigned long long>(stats_.retired_uops),
                 fetch_blocked_, chain_in_progress_);
    for (std::size_t i = 0; i < rob_.size() && i < 6; ++i) {
        const RobEntry &e = rob_[i];
        std::fprintf(stderr,
                     "  rob[%zu] seq=%llu %s issued=%d comp=%d offl=%d "
                     "memout=%d llcmiss=%d pend=%u\n",
                     i, static_cast<unsigned long long>(e.seq),
                     e.d.uop.toString().c_str(), e.issued, e.completed,
                     e.offloaded, e.mem_outstanding, e.llc_miss,
                     pending_srcs_.count(e.seq)
                         ? pending_srcs_.at(e.seq)
                         : 999);
    }
}

void
Core::selfCheck(check::CheckRegistry &reg) const
{
    const std::string comp = "core" + std::to_string(id_);
    auto bad = [&](const std::string &msg) {
        reg.fail("core_state", comp, 0, msg);
    };

    // ROB: sequence numbers are dense (seq-indexed lookup depends on
    // it) and the load-queue occupancy counter matches the ROB.
    unsigned loads = 0;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        if (rob_[i].seq != rob_.front().seq + i) {
            bad("ROB seq not dense at index " + std::to_string(i));
            break;
        }
    }
    for (const RobEntry &e : rob_)
        loads += isLoad(e.d.uop.op) ? 1 : 0;
    if (loads != lq_occupancy_) {
        bad("LQ occupancy " + std::to_string(lq_occupancy_)
            + " != ROB load count " + std::to_string(loads));
    }

    // Register file: the free list holds each preg at most once, and
    // no RAT mapping points into the free list.
    std::vector<bool> free_set(cfg_.phys_regs, false);
    for (std::uint16_t p : free_list_) {
        if (p >= cfg_.phys_regs) {
            bad("free list holds out-of-range preg " + std::to_string(p));
            continue;
        }
        if (free_set[p])
            bad("preg " + std::to_string(p) + " on the free list twice");
        free_set[p] = true;
    }
    if (free_list_.size() >= cfg_.phys_regs)
        bad("free list larger than the register file");
    for (unsigned a = 0; a < kArchRegs; ++a) {
        const std::uint16_t p = rat_[a];
        if (p >= cfg_.phys_regs) {
            bad("RAT maps arch reg " + std::to_string(a)
                + " to out-of-range preg " + std::to_string(p));
        } else if (free_set[p]) {
            bad("RAT maps arch reg " + std::to_string(a)
                + " to freed preg " + std::to_string(p));
        }
    }

    // Store queue: program order means strictly increasing seqs.
    for (std::size_t i = 1; i < sq_.size(); ++i) {
        if (sq_[i].seq <= sq_[i - 1].seq) {
            bad("SQ seqs not strictly increasing at index "
                + std::to_string(i));
            break;
        }
    }
    if (sq_.size() > cfg_.sq_size)
        bad("SQ occupancy exceeds capacity");

    // Retry list: a parked load is still waiting in the window on the
    // store a fresh SQ scan names, and while the O(1) replay credit is
    // armed every parked page is resident (so the replay would hit).
    const bool armed = replay_armed_ && tlb_.changes() == replay_mark_;
    for (const RetryEntry &r : retry_q_) {
        if (r.blocker == 0)
            continue;
        const std::string who = "parked load seq " + std::to_string(r.seq);
        const RobEntry *e = bySeq(r.seq);
        if (!e || !isLoad(e->d.uop.op) || e->issued || e->completed
            || e->offloaded) {
            bad(who + " is not a waiting load in the window");
            continue;
        }
        std::uint64_t blocker = 0;
        if (scanOlderStores(*e, blocker) || blocker != r.blocker) {
            bad(who + " parked on store " + std::to_string(r.blocker)
                + " but the SQ scan gives " + std::to_string(blocker));
        }
        if (r.vaddr != e->d.vaddr)
            bad(who + " replays the wrong address");
        if (armed && !tlb_.resident(r.vaddr))
            bad(who + " replay armed but its page is not TLB-resident");
    }

    auto struct_fail = [&](const std::string &msg) {
        reg.fail("cache_state", comp, 0, msg);
    };
    l1d_.checkConsistent(struct_fail);
    mshrs_.checkConsistent(struct_fail);
}

void
Core::drainStoreBuffer()
{
    if (store_buffer_.empty())
        return;
    StoreQueueEntry &sqe = store_buffer_.front();
    emc_assert(sqe.addr_known, "retired store without an address");
    const Addr line = lineAlign(sqe.paddr);
    // Write-through, no-write-allocate L1.
    l1d_.peek(line);  // write hits update in place; nothing to model
    port_->storeThrough(id_, line);
    store_buffer_.pop_front();
}

} // namespace emc
