#include "emc/emc.hh"

#include <algorithm>

#include "common/log.hh"

namespace emc
{

Emc::Emc(const EmcConfig &cfg, unsigned num_cores, EmcPort *port)
    : cfg_(cfg), num_cores_(num_cores), port_(port),
      contexts_(cfg.contexts),
      dcache_(cfg.dcache_bytes, cfg.dcache_ways, "emc_dcache"),
      pred_(pred::makePredictor(cfg.pred, num_cores))
{
    for (unsigned c = 0; c < num_cores; ++c)
        tlbs_.emplace_back(cfg.tlb_entries);
    for (auto &ctx : contexts_) {
        ctx.prf.resize(kEmcPhysRegs);
    }
}

bool
Emc::hasFreeContext() const
{
    for (const auto &ctx : contexts_) {
        if (!ctx.busy)
            return true;
    }
    return false;
}

bool
Emc::acceptChain(const ChainRequest &chain, bool source_already_arrived)
{
    Context *free_ctx = nullptr;
    for (auto &ctx : contexts_) {
        if (!ctx.busy) {
            free_ctx = &ctx;
            break;
        }
    }
    if (!free_ctx) {
        ++stats_.chains_rejected;
        return false;
    }

    if (check_)
        check::validateChain(chain, *check_, "emc.accept");

    Context &c = *free_ctx;
    c.busy = true;
    c.armed = false;
    c.halted = false;
    c.chain = chain;
    c.state.assign(chain.uops.size(), UopState());
    for (auto &r : c.prf) {
        r.ready = false;
        r.value = 0;
    }
    c.lsq.clear();
    c.arm_cycle = kNoCycle;
    c.generation = generation_counter_++;

    // Install the shipped PTE (Section 4.1.4).
    if (chain.pte_attached)
        tlbs_[chain.core].insert(chain.source_pte);

    ++stats_.chains_accepted;
    stats_.uops_per_chain.sample(static_cast<double>(chain.uops.size()));

    if (source_already_arrived)
        observeFill(chain.source_paddr_line);
    return true;
}

void
Emc::observeFill(Addr paddr_line)
{
    // Keep the most recent DRAM-to-chip lines in the EMC data cache.
    if (dcache_.peek(paddr_line) == nullptr)
        dcache_.insert(paddr_line);

    // Arm any context waiting for this fill as its source data.
    for (unsigned i = 0; i < contexts_.size(); ++i) {
        Context &c = contexts_[i];
        if (!c.busy || c.armed || c.halted)
            continue;
        if (c.chain.source_paddr_line != paddr_line)
            continue;
        c.armed = true;
        c.arm_cycle = port_->now();
        // Every source load's destination EPR receives its slice of
        // the arriving line (the MSHR wakes all merged loads at once).
        for (unsigned u = 0; u < c.chain.uops.size(); ++u) {
            ChainUop &cu = c.chain.uops[u];
            if (!cu.is_source)
                continue;
            c.state[u].issued = true;
            c.state[u].completed = true;
            c.state[u].value = cu.d.mem_value;
            if (cu.epr_dst != kNoEpr) {
                c.prf[cu.epr_dst].value = cu.d.mem_value;
                c.prf[cu.epr_dst].ready = true;
            }
        }
    }
}

bool
Emc::sourceReady(const Context &c, const ChainUop &cu, bool first_src,
                 std::uint64_t &value) const
{
    const std::uint8_t epr = first_src ? cu.epr_src1 : cu.epr_src2;
    const bool live_in = first_src ? cu.src1_live_in : cu.src2_live_in;
    const std::uint64_t captured = first_src ? cu.src1_val : cu.src2_val;
    const bool has =
        first_src ? cu.d.uop.hasSrc1() : cu.d.uop.hasSrc2();
    if (!has) {
        value = 0;
        return true;
    }
    if (live_in) {
        value = captured;
        return true;
    }
    emc_assert(epr != kNoEpr, "chain source neither EPR nor live-in");
    if (!c.prf[epr].ready)
        return false;
    value = c.prf[epr].value;
    return true;
}

bool
Emc::uopReady(const Context &c, unsigned idx, std::uint64_t &a,
              std::uint64_t &b) const
{
    const ChainUop &cu = c.chain.uops[idx];
    const UopState &st = c.state[idx];
    if (st.issued || st.completed)
        return false;
    return sourceReady(c, cu, true, a) && sourceReady(c, cu, false, b);
}

void
Emc::missPredUpdate(CoreId core, Addr pc, Addr paddr_line,
                    bool was_miss)
{
    emc_assert(core < num_cores_,
               "missPredUpdate: core id out of range");
    pred::PredFeatures f;
    f.core = core;
    f.pc = pc;
    f.line = paddr_line;
    pred_->train(f, was_miss);
}

void
Emc::warmMissPredUpdate(CoreId core, Addr pc, Addr paddr_line,
                        bool was_miss)
{
    emc_assert(core < num_cores_,
               "warmMissPredUpdate: core id out of range");
    pred::PredFeatures f;
    f.core = core;
    f.pc = pc;
    f.line = paddr_line;
    pred_->warmTrain(f, was_miss);
}

bool
Emc::issueUop(unsigned ctx_idx, unsigned uop_idx)
{
    Context &c = contexts_[ctx_idx];
    ChainUop &cu = c.chain.uops[uop_idx];
    UopState &st = c.state[uop_idx];
    const Cycle now = port_->now();

    std::uint64_t a = 0, b = 0;
    const bool ready = uopReady(c, uop_idx, a, b);
    emc_assert(ready, "issueUop on non-ready uop");

    switch (cu.d.uop.op) {
      case Opcode::kLoad: {
        const Addr vaddr = effectiveAddr(a, cu.d.uop.imm);
        emc_assert(vaddr == cu.d.vaddr,
                   "EMC load address diverged from oracle: "
                       + cu.d.uop.toString());

        // LSQ forwarding from an earlier spill store in this chain.
        for (const LsqEntry &le : c.lsq) {
            if (le.vaddr == vaddr) {
                st.issued = true;
                st.complete_cycle = now + 1;
                st.value = cu.d.mem_value;
                ++stats_.lsq_forwards;
                ++stats_.loads_executed;
                ++stats_.uops_executed;
                port_->emcLsqPopulate(c.chain.core, cu.rob_seq, vaddr,
                                      c.chain.id);
                return true;
            }
        }

        // Virtual address translation through the per-core EMC TLB.
        Addr pframe = kNoAddr;
        if (!tlbs_[c.chain.core].lookup(pageNum(vaddr), pframe)) {
            haltContext(ctx_idx, ChainOutcome::kTlbMiss);
            return true;
        }
        const Addr paddr = (pframe << kPageShift)
                           | (vaddr & (kPageBytes - 1));
        const Addr line = lineAlign(paddr);

        port_->emcLsqPopulate(c.chain.core, cu.rob_seq, paddr,
                              c.chain.id);

        // EMC data cache first (Section 4.1.3).
        if (dcache_.access(line) != nullptr) {
            ++stats_.dcache_hits;
            st.issued = true;
            st.complete_cycle = now + cfg_.dcache_latency;
            st.value = cu.d.mem_value;
            ++stats_.loads_executed;
            ++stats_.uops_executed;
            return true;
        }
        ++stats_.dcache_misses;

        // MSHR-style merging: a request for this line is already in
        // flight from the EMC (e.g. a node's pointer and a field on
        // the same line); piggyback instead of issuing again.
        auto wit = line_waiters_.find(line);
        if (wit != line_waiters_.end()) {
            wit->second.push_back({ctx_idx, uop_idx, c.generation, line});
            st.issued = true;
            st.mem_outstanding = true;
            st.value = cu.d.mem_value;
            ++stats_.loads_executed;
            ++stats_.uops_executed;
            ++stats_.merged_loads;
            return true;
        }

        // Predict LLC hit/miss to pick the path (Section 4.3).
        // predict() mutates nothing but its counters, so the
        // backpressure retry below may simply re-predict next cycle.
        bool predict_miss = false;
        if (cfg_.direct_dram) {
            emc_assert(c.chain.core < num_cores_,
                       "chain core id out of range");
            pred::PredFeatures f;
            f.core = c.chain.core;
            f.pc = cu.d.uop.pc;
            f.line = line;
            predict_miss = pred_->predict(f);
        }

        const std::uint64_t token = next_token_++;
        bool sent;
        if (predict_miss) {
            sent = port_->emcDirectDram(c.chain.core, line, token);
            if (sent)
                ++stats_.direct_dram_loads;
        } else {
            sent = port_->emcLlcQuery(c.chain.core, line, token,
                                      cu.d.uop.pc);
            if (sent)
                ++stats_.llc_query_loads;
        }
        if (!sent)
            return false;  // backpressure: retry next cycle

        EMC_OBS_POINT(tracer_, obs::TracePoint::kEmcIssue, now,
                      c.chain.id, obs::Track::emcCtx(trace_mc_, ctx_idx),
                      line);
        tokens_[token] = {ctx_idx, uop_idx, c.generation, line};
        line_waiters_[line];  // open the merge window for this line
        st.issued = true;
        st.mem_outstanding = true;
        st.value = cu.d.mem_value;
        ++stats_.loads_executed;
        ++stats_.uops_executed;
        return true;
      }

      case Opcode::kStore: {
        const Addr vaddr = effectiveAddr(a, cu.d.uop.imm);
        emc_assert(vaddr == cu.d.vaddr,
                   "EMC store address diverged from oracle: "
                       + cu.d.uop.toString());
        emc_assert(b == cu.d.mem_value,
                   "EMC store data diverged from oracle: "
                       + cu.d.uop.toString());
        if (c.lsq.size() >= cfg_.lsq_entries) {
            // LSQ full: treat as a halt-worthy structural problem.
            haltContext(ctx_idx, ChainOutcome::kDisambiguation);
            return true;
        }
        c.lsq.push_back({vaddr, b});
        st.issued = true;
        st.complete_cycle = now + 1;
        st.value = b;
        ++stats_.stores_executed;
        ++stats_.uops_executed;
        port_->emcLsqPopulate(c.chain.core, cu.rob_seq, vaddr,
                              c.chain.id);
        return true;
      }

      case Opcode::kBranch: {
        // The EMC can detect a misprediction but cannot redirect: it
        // halts and lets the core re-execute the chain (Section 4.3).
        emc_assert(evalBranch(a) == cu.d.taken,
                   "EMC branch direction diverged from oracle");
        if (cu.d.mispredicted) {
            haltContext(ctx_idx, ChainOutcome::kMispredict);
            return true;
        }
        st.issued = true;
        st.complete_cycle = now + 1;
        st.value = a;
        ++stats_.uops_executed;
        return true;
      }

      default: {
        const std::uint64_t value = evalAlu(cu.d.uop.op, a, b,
                                            cu.d.uop.imm);
        emc_assert(!cu.d.uop.hasDst() || value == cu.d.result,
                   "EMC ALU result diverged from oracle: "
                       + cu.d.uop.toString());
        st.issued = true;
        st.complete_cycle = now + 1;
        st.value = value;
        ++stats_.uops_executed;
        return true;
      }
    }
}

void
Emc::completeUop(Context &c, unsigned idx, std::uint64_t value)
{
    UopState &st = c.state[idx];
    const ChainUop &cu = c.chain.uops[idx];
    st.completed = true;
    st.mem_outstanding = false;
    st.value = value;
    if (cu.epr_dst != kNoEpr) {
        c.prf[cu.epr_dst].value = value;
        c.prf[cu.epr_dst].ready = true;
    }
}

void
Emc::haltContext(unsigned ctx_idx, ChainOutcome reason)
{
    Context &c = contexts_[ctx_idx];
    c.halted = true;
    c.halt_reason = reason;
    switch (reason) {
      case ChainOutcome::kTlbMiss: ++stats_.halts_tlb; break;
      case ChainOutcome::kMispredict: ++stats_.halts_mispredict; break;
      case ChainOutcome::kDisambiguation:
        ++stats_.halts_disambiguation;
        break;
      default: break;
    }

    // Tell the core to re-execute the whole chain: echo every chain
    // uop's rob_seq so the core can un-offload them.
    ChainResult result;
    result.chain_id = c.chain.id;
    result.core = c.chain.core;
    result.outcome = reason;
    for (const ChainUop &cu : c.chain.uops) {
        if (cu.is_source)
            continue;
        LiveOut lo;
        lo.rob_seq = cu.rob_seq;
        result.live_outs.push_back(lo);
    }
    result.live_out_count = 1;  // a single small cancel message
    port_->emcChainResult(result, 8);

    c.busy = false;
}

void
Emc::finishContext(unsigned ctx_idx)
{
    Context &c = contexts_[ctx_idx];
    ++stats_.chains_completed;
    if (c.arm_cycle != kNoCycle) {
        stats_.chain_exec_cycles.sample(
            static_cast<double>(port_->now() - c.arm_cycle));
    }

    ChainResult result;
    result.chain_id = c.chain.id;
    result.core = c.chain.core;
    result.outcome = ChainOutcome::kCompleted;
    for (unsigned u = 0; u < c.chain.uops.size(); ++u) {
        const ChainUop &cu = c.chain.uops[u];
        if (cu.is_source)
            continue;  // completes at the core via its own fill
        LiveOut lo;
        lo.rob_seq = cu.rob_seq;
        lo.value = c.state[u].value;
        lo.is_mem = isMem(cu.d.uop.op);
        lo.is_store = isStore(cu.d.uop.op);
        lo.llc_miss = c.state[u].llc_miss;
        result.live_outs.push_back(lo);
        if (cu.epr_dst != kNoEpr || isStore(cu.d.uop.op))
            ++result.live_out_count;
    }
    stats_.live_outs_total += result.live_out_count;
    port_->emcChainResult(result, result.liveOutBytes());

    c.busy = false;
}

void
Emc::memResponse(std::uint64_t token, bool was_llc_miss)
{
    auto it = tokens_.find(token);
    if (it == tokens_.end())
        return;
    const TokenInfo info = it->second;
    tokens_.erase(it);

    auto finish = [&](const TokenInfo &ti) {
        Context &c = contexts_[ti.ctx];
        if (!c.busy || c.generation != ti.generation)
            return;  // chain canceled while the request was in flight
        UopState &st = c.state[ti.uop];
        if (!st.mem_outstanding)
            return;
        st.llc_miss = was_llc_miss;
        completeUop(c, ti.uop, st.value);
    };
    finish(info);

    // Wake every load merged onto this line.
    auto wit = line_waiters_.find(info.line);
    if (wit != line_waiters_.end()) {
        for (const TokenInfo &ti : wit->second)
            finish(ti);
        line_waiters_.erase(wit);
    }
}

void
Emc::cancelChain(std::uint64_t chain_id, ChainOutcome reason)
{
    for (unsigned i = 0; i < contexts_.size(); ++i) {
        Context &c = contexts_[i];
        if (c.busy && c.chain.id == chain_id) {
            haltContext(i, reason);
            return;
        }
    }
}

void
Emc::invalidateLine(Addr paddr_line)
{
    dcache_.invalidate(paddr_line);
}

void
Emc::warmInvalidateLine(Addr paddr_line)
{
    dcache_.warmInvalidate(paddr_line);
}

void
Emc::tlbShootdown(CoreId core, Addr vpage)
{
    tlbs_[core % num_cores_].shootdown(vpage);
}

bool
Emc::tlbResident(CoreId core, Addr vpage) const
{
    return tlbs_[core % num_cores_].resident(vpage);
}

void
Emc::selfCheck(check::CheckRegistry &reg) const
{
    auto bad = [&](std::uint64_t chain_id, const std::string &msg) {
        reg.fail("emc_state", "emc", chain_id, msg);
    };

    // Per-context structure.
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
        const Context &c = contexts_[i];
        if (!c.busy)
            continue;
        if (c.state.size() != c.chain.uops.size()) {
            bad(c.chain.id, "context " + std::to_string(i)
                + " uop-state size diverged from its chain");
        }
        if (c.lsq.size() > cfg_.lsq_entries)
            bad(c.chain.id, "context LSQ exceeds capacity");
        for (std::size_t u = 0; u < c.state.size(); ++u) {
            const UopState &st = c.state[u];
            if (st.completed && st.mem_outstanding) {
                bad(c.chain.id, "uop " + std::to_string(u)
                    + " both completed and memory-outstanding");
            }
            if ((st.completed || st.mem_outstanding) && !st.issued) {
                bad(c.chain.id, "uop " + std::to_string(u)
                    + " progressed without being issued");
            }
        }
    }

    // Token map vs. line-waiter map: every direct-issued request holds
    // exactly one token and opened exactly one merge window, and the
    // two maps are erased together on response — so the token lines
    // are a bijection onto the line_waiters_ keys.
    reg.expectEq("emc_state", "emc", tokens_.size(),
                 line_waiters_.size(),
                 "outstanding tokens vs. open merge windows");
    // lint-ok: unordered-iter (order-insensitive invariant scan)
    for (const auto &kv : tokens_) {
        const TokenInfo &info = kv.second;
        if (!line_waiters_.count(info.line)) {
            bad(kv.first, "token line has no merge window "
                "(token/line-waiter maps diverged)");
        }
        if (info.ctx >= contexts_.size()) {
            bad(kv.first, "token references invalid context");
            continue;
        }
        const Context &c = contexts_[info.ctx];
        if (!c.busy || c.generation != info.generation)
            continue;  // stale token of a canceled chain (legal)
        if (info.uop >= c.state.size()) {
            bad(c.chain.id, "token references uop out of range");
            continue;
        }
        const UopState &st = c.state[info.uop];
        if (!st.issued || st.completed || !st.mem_outstanding) {
            bad(c.chain.id, "token maps uop " + std::to_string(info.uop)
                + " whose state is not memory-outstanding "
                  "(leaked or double-mapped token)");
        }
    }

    // Leak detection in the other direction: every memory-outstanding
    // uop of a live chain must be reachable from a token or a merge
    // window, or its fill can never arrive.
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
        const Context &c = contexts_[i];
        if (!c.busy)
            continue;
        for (std::size_t u = 0; u < c.state.size(); ++u) {
            if (!c.state[u].mem_outstanding)
                continue;
            bool covered = false;
            // lint-ok: unordered-iter (order-insensitive invariant scan)
            for (const auto &kv : tokens_) {
                const TokenInfo &ti = kv.second;
                if (ti.ctx == i && ti.uop == u
                    && ti.generation == c.generation) {
                    covered = true;
                    break;
                }
            }
            // lint-ok: unordered-iter (order-insensitive invariant scan)
            for (const auto &kv : line_waiters_) {
                for (const TokenInfo &ti : kv.second) {
                    if (ti.ctx == i && ti.uop == u
                        && ti.generation == c.generation) {
                        covered = true;
                        break;
                    }
                }
            }
            if (!covered) {
                bad(c.chain.id, "uop " + std::to_string(u)
                    + " is memory-outstanding with no in-flight "
                      "request (leaked mapping)");
            }
        }
    }

    auto struct_fail = [&](const std::string &msg) {
        reg.fail("cache_state", "emc", 0, msg);
    };
    dcache_.checkConsistent(struct_fail);
}

void
Emc::tick()
{
    const Cycle now = port_->now();

    // Complete scheduled short-latency uops and finished contexts.
    for (unsigned i = 0; i < contexts_.size(); ++i) {
        Context &c = contexts_[i];
        if (!c.busy || c.halted)
            continue;
        bool all_done = c.armed;
        for (unsigned u = 0; u < c.state.size(); ++u) {
            UopState &st = c.state[u];
            if (st.issued && !st.completed && !st.mem_outstanding
                && st.complete_cycle <= now) {
                completeUop(c, u, st.value);
            }
            if (!st.completed)
                all_done = false;
        }
        if (all_done)
            finishContext(i);
    }

    // Issue up to issue_width ready uops across armed contexts; the
    // shared reservation station bounds how many waiting uops are
    // considered per cycle.
    unsigned issued = 0;
    unsigned considered = 0;
    for (unsigned i = 0; i < contexts_.size()
                         && issued < cfg_.issue_width; ++i) {
        Context &c = contexts_[i];
        if (!c.busy || !c.armed || c.halted)
            continue;
        for (unsigned u = 0; u < c.chain.uops.size()
                             && issued < cfg_.issue_width; ++u) {
            if (c.state[u].issued || c.state[u].completed)
                continue;
            if (++considered > cfg_.rs_entries)
                break;
            std::uint64_t a, b;
            if (!uopReady(c, u, a, b))
                continue;
            if (issueUop(i, u))
                ++issued;
            if (c.halted)
                break;
        }
    }
}

} // namespace emc
