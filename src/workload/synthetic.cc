#include "workload/synthetic.hh"

#include <algorithm>

#include "common/log.hh"
#include "ckpt/serial.hh"

namespace emc
{

SyntheticProgram::SyntheticProgram(const BenchmarkProfile &profile,
                                   FunctionalMemory &mem,
                                   std::uint64_t seed)
    : profile_(profile), mem_(&mem), rng_(seed)
{
    // Size the chase ring and stream region from the working set.
    chase_nodes_ = std::max<std::uint64_t>(64, profile.ws_bytes / kLineBytes);
    chase_nodes_ = std::min<std::uint64_t>(chase_nodes_, 1ull << 20);
    stream_lines_ = std::max<std::uint64_t>(64,
                                            profile.ws_bytes / kLineBytes);
    stream_lines_ = std::min<std::uint64_t>(stream_lines_, 1ull << 20);

    // Random-kernel table: power-of-two span within the working set.
    std::uint64_t span = 1;
    while (span * 2 * kLineBytes <= profile.ws_bytes && span < (1u << 20))
        span *= 2;
    random_mask_ = span * kLineBytes - 1;

    if (profile.mix_chase > 0)
        buildChaseRing();
    if (profile.mix_graph > 0)
        buildGraph();
    if (profile.mix_hash > 0)
        buildHashTable();
    if (profile.mix_gather > 0)
        buildEmbedTable();
    emitInit();
}

SyntheticProgram::SyntheticProgram(const SyntheticProgram &built,
                                   FunctionalMemory &mem)
    : SyntheticProgram(built)
{
    mem_ = &mem;
}

void
SyntheticProgram::buildChaseRing()
{
    // Cyclic pointer chain over the node slots. The permutation is
    // random at cache-line granularity (every hop is a fresh line, so
    // it misses) but block-local at page granularity: real pointer
    // structures (e.g. mcf's arc arrays) are pool-allocated, so a
    // traversal revisits a bounded set of pages before moving on.
    // Blocks of 512 nodes span 8 pages — within the reach of the
    // 32-entry EMC TLB (Section 4.1.4) and a realistic core TLB.
    std::vector<std::uint32_t> order(chase_nodes_);
    for (std::uint64_t i = 0; i < chase_nodes_; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    constexpr std::uint64_t kBlockNodes = 512;
    // Shuffle whole blocks, then shuffle nodes within each block.
    const std::uint64_t blocks =
        (chase_nodes_ + kBlockNodes - 1) / kBlockNodes;
    std::vector<std::uint64_t> block_order(blocks);
    for (std::uint64_t b = 0; b < blocks; ++b)
        block_order[b] = b;
    for (std::uint64_t b = blocks - 1; b > 0; --b) {
        const std::uint64_t j = rng_.below(b + 1);
        std::swap(block_order[b], block_order[j]);
    }
    std::vector<std::uint32_t> shuffled;
    shuffled.reserve(chase_nodes_);
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint64_t lo = block_order[b] * kBlockNodes;
        const std::uint64_t hi =
            std::min(lo + kBlockNodes, chase_nodes_);
        const std::size_t base = shuffled.size();
        for (std::uint64_t i = lo; i < hi; ++i)
            shuffled.push_back(order[i]);
        for (std::size_t i = shuffled.size() - 1; i > base; --i) {
            const std::size_t j = base + rng_.below(i - base + 1);
            std::swap(shuffled[i], shuffled[j]);
        }
    }
    order = std::move(shuffled);
    for (std::uint64_t i = 0; i < chase_nodes_; ++i) {
        const std::uint64_t succ = i + 1 == chase_nodes_ ? 0 : i + 1;
        const Addr node = kChaseBase + static_cast<Addr>(order[i])
                                           * kLineBytes;
        const Addr next = kChaseBase
                          + static_cast<Addr>(order[succ]) * kLineBytes;
        mem_->write(node, next);
        mem_->write(node + 8, rng_.next());
        mem_->write(node + 16, rng_.next());
    }
    // Start each independent chase stream at a different point of the
    // ring so concurrent traversals do not collide for the run lengths
    // simulated here (MLP, as in mcf's arc-list walks).
    const std::uint8_t chase_regs[3] = {kRegChasePtr, kRegChasePtrB,
                                        kRegChasePtrC};
    const unsigned streams =
        std::max(1u, std::min(3u, profile_.chase_streams));
    for (unsigned s = 0; s < streams; ++s) {
        const std::uint64_t start = (chase_nodes_ / streams) * s;
        regs_[chase_regs[s]] =
            kChaseBase + static_cast<Addr>(order[start]) * kLineBytes;
    }
}

std::uint64_t
SyntheticProgram::regVal(std::uint8_t r) const
{
    return r == kNoReg ? 0 : regs_[r];
}

void
SyntheticProgram::push(Opcode op, std::uint8_t dst, std::uint8_t src1,
                       std::uint8_t src2, std::int64_t imm)
{
    DynUop d;
    d.uop.op = op;
    d.uop.dst = dst;
    d.uop.src1 = src1;
    d.uop.src2 = src2;
    d.uop.imm = imm;
    // Stable static PCs: each kernel occupies its own code region and
    // every uop slot within an iteration keeps the same PC across
    // iterations, so PC-indexed structures (the EMC's LLC hit/miss
    // predictor, prefetcher tables) can learn.
    d.uop.pc = kernel_pc_base_ + 4 * kernel_pc_off_++;

    const std::uint64_t a = regVal(src1);
    const std::uint64_t b = regVal(src2);

    switch (op) {
      case Opcode::kLoad: {
        d.vaddr = effectiveAddr(a, imm);
        d.mem_value = mem_->read(d.vaddr);
        d.result = d.mem_value;
        if (dst != kNoReg)
            regs_[dst] = d.result;
        break;
      }
      case Opcode::kStore: {
        d.vaddr = effectiveAddr(a, imm);
        d.mem_value = b;
        mem_->write(d.vaddr, b);
        break;
      }
      case Opcode::kBranch: {
        d.taken = evalBranch(a);
        d.result = a;
        break;
      }
      default: {
        d.result = evalAlu(op, a, b, imm);
        if (dst != kNoReg)
            regs_[dst] = d.result;
        break;
      }
    }
    pending_.push_back(d);
}

void
SyntheticProgram::emitInit()
{
    kernel_pc_base_ = 0x400000;
    kernel_pc_off_ = 0;
    // Materialize base pointers and seeds with mov-immediates.
    const std::uint8_t chase_regs[3] = {kRegChasePtr, kRegChasePtrB,
                                        kRegChasePtrC};
    for (std::uint8_t r : chase_regs) {
        push(Opcode::kMov, r, kNoReg, kNoReg,
             static_cast<std::int64_t>(regs_[r] ? regs_[r] : kChaseBase));
    }
    push(Opcode::kMov, kRegLcg, kNoReg, kNoReg,
         static_cast<std::int64_t>(rng_.next() & 0xffffff));
    push(Opcode::kMov, kRegStreamIdx, kNoReg, kNoReg, 0);
    push(Opcode::kMov, kRegAcc, kNoReg, kNoReg, 0);
    push(Opcode::kMov, kRegSp, kNoReg, kNoReg,
         static_cast<std::int64_t>(kStackBase));
}

void
SyntheticProgram::emitBranch(std::uint8_t cond_reg, bool force_predictable)
{
    // The loop-control branch itself: strongly biased (taken), which
    // any predictor learns. Hard-to-predict control flow is modeled
    // by occasionally inserting a branch on data-dependent parity —
    // the accumulator mixes loaded values, so its low bit is
    // effectively random and a real predictor mispredicts it ~50% of
    // the time. The rate is tuned so the profile's intended
    // misprediction rate emerges from the hybrid predictor; the
    // sampled `mispredicted` flag is kept for runs with the predictor
    // disabled.
    if (!force_predictable
        && rng_.chance(2.0 * profile_.mispredict_rate)) {
        push(Opcode::kAnd, kRegT8, kRegAcc, kNoReg, 1);
        push(Opcode::kBranch, kNoReg, kRegT8, kNoReg, 0);
        pending_.back().mispredicted =
            rng_.chance(profile_.mispredict_rate);
    }
    push(Opcode::kBranch, kNoReg, cond_reg, kNoReg, 0);
    DynUop &d = pending_.back();
    if (!force_predictable)
        d.mispredicted = rng_.chance(profile_.mispredict_rate);
}

void
SyntheticProgram::maybeSpill()
{
    if (!rng_.chance(profile_.spill_rate))
        return;
    kernel_pc_base_ = 0x405000;
    kernel_pc_off_ = 0;
    // Register spill then a later fill from the same stack slot — the
    // pattern Section 4.3 supports at the EMC.
    const Addr slot = kStackBase + (stack_pos_++ % 512) * 8;
    push(Opcode::kAdd, kRegT6, kRegAcc, kNoReg, 1);
    push(Opcode::kMov, kRegT5, kNoReg, kNoReg,
         static_cast<std::int64_t>(slot));
    push(Opcode::kStore, kNoReg, kRegT5, kRegT6, 0);
    push(Opcode::kLoad, kRegT6, kRegT5, kNoReg, 0);
    push(Opcode::kAdd, kRegAcc, kRegAcc, kRegT6, 0);
}

void
SyntheticProgram::genChase()
{
    // Round-robin over the profile's independent chase streams; each
    // stream is a serial pointer chain, and interleaving them gives
    // the window memory-level parallelism (mcf walks many arcs).
    const std::uint8_t chase_regs[3] = {kRegChasePtr, kRegChasePtrB,
                                        kRegChasePtrC};
    const unsigned streams =
        std::max(1u, std::min(3u, profile_.chase_streams));
    const std::uint8_t ptr = chase_regs[chase_rr_ % streams];
    ++chase_rr_;
    kernel_pc_base_ = 0x401000 + 0x100 * (chase_rr_ % streams);
    kernel_pc_off_ = 0;
    // One pointer-chase step, shaped like the paper's Figure 5:
    //   load   ptr = [ptr]            <- source / dependent miss
    //   <interop ALU uops on ptr>
    //   load   rX = [ptr + 8]         <- dependent field load(s)
    //   add    acc += rX
    //   branch
    push(Opcode::kLoad, ptr, ptr, kNoReg, 0);

    // Integer uops between indirections (Figure 6's distance).
    std::uint8_t addr_reg = ptr;
    for (unsigned i = 0; i < profile_.chase_interop; ++i) {
        switch (i % 3) {
          case 0:
            push(Opcode::kMov, kRegT2, addr_reg, kNoReg, 0);
            addr_reg = kRegT2;
            break;
          case 1:
            push(Opcode::kAdd, kRegT3, addr_reg, kNoReg, 8);
            addr_reg = kRegT3;
            break;
          default:
            push(Opcode::kAdd, kRegAcc, kRegAcc, kNoReg, 1);
            break;
        }
    }

    for (unsigned f = 0; f < profile_.chase_field_loads; ++f) {
        const std::int64_t off = 8 + 8 * static_cast<std::int64_t>(f);
        const std::uint8_t base = addr_reg == ptr ? ptr : addr_reg;
        const std::int64_t imm = addr_reg == ptr ? off : off - 8;
        push(Opcode::kLoad, kRegT4, base, kNoReg, imm);
        push(Opcode::kXor, kRegAcc, kRegAcc, kRegT4, 0);
    }

    maybeSpill();
    emitBranch(ptr, false);
}

void
SyntheticProgram::genStream()
{
    kernel_pc_base_ = 0x402000;
    kernel_pc_off_ = 0;
    // A few consecutive lines of a streaming sweep.
    const unsigned lines = 2 + static_cast<unsigned>(rng_.below(3));
    for (unsigned i = 0; i < lines; ++i) {
        const Addr addr = kStreamBase
                          + (stream_pos_ % stream_lines_) * kLineBytes;
        ++stream_pos_;
        push(Opcode::kMov, kRegT12, kNoReg, kNoReg,
             static_cast<std::int64_t>(addr));
        push(Opcode::kLoad, kRegT3, kRegT12, kNoReg, 0);
        if (profile_.fp_frac > 0 && rng_.chance(profile_.fp_frac)) {
            push(Opcode::kFpAdd, kRegAcc, kRegAcc, kRegT3, 0);
        } else {
            push(Opcode::kAdd, kRegAcc, kRegAcc, kRegT3, 0);
        }
        if (rng_.chance(profile_.store_frac))
            push(Opcode::kStore, kNoReg, kRegT12, kRegAcc, 8);
    }
    emitBranch(kRegAcc, true);
}

void
SyntheticProgram::genRandom()
{
    kernel_pc_base_ = 0x403000;
    kernel_pc_off_ = 0;
    // Independent miss: the address derives from register-only LCG
    // arithmetic, so it never depends on a prior load's data.
    push(Opcode::kShl, kRegT8, kRegLcg, kNoReg, 13);
    push(Opcode::kXor, kRegLcg, kRegLcg, kRegT8, 0);
    push(Opcode::kShr, kRegT8, kRegLcg, kNoReg, 7);
    push(Opcode::kXor, kRegLcg, kRegLcg, kRegT8, 0);
    push(Opcode::kAnd, kRegT9, kRegLcg, kNoReg,
         static_cast<std::int64_t>(random_mask_ & ~0x3fULL));
    push(Opcode::kAdd, kRegT9, kRegT9, kNoReg,
         static_cast<std::int64_t>(kRandomBase));
    push(Opcode::kLoad, kRegT8, kRegT9, kNoReg, 0);
    push(Opcode::kAdd, kRegAcc, kRegAcc, kRegT8, 0);
    emitBranch(kRegLcg, true);
}

void
SyntheticProgram::genCompute()
{
    kernel_pc_base_ = 0x404000;
    kernel_pc_off_ = 0;
    // ILP-rich ALU work: two short independent chains.
    for (unsigned i = 0; i < profile_.compute_ops; ++i) {
        const bool fp = profile_.fp_frac > 0 && rng_.chance(profile_.fp_frac);
        const std::uint8_t dst = (i % 2) ? kRegT2 : kRegT3;
        const std::uint8_t src = (i % 2) ? kRegT2 : kRegT3;
        if (fp) {
            push(i % 4 == 0 ? Opcode::kFpMul : Opcode::kFpAdd,
                 dst, src, kRegAcc, 0);
        } else {
            switch (i % 4) {
              case 0: push(Opcode::kAdd, dst, src, kNoReg, 3); break;
              case 1: push(Opcode::kXor, dst, src, kRegAcc, 0); break;
              case 2: push(Opcode::kShl, dst, src, kNoReg, 1); break;
              default: push(Opcode::kSub, dst, src, kNoReg, 1); break;
            }
        }
    }
    push(Opcode::kAdd, kRegAcc, kRegAcc, kRegT2, 0);
    emitBranch(kRegAcc, true);
}

void
SyntheticProgram::genIteration()
{
    const double total = profile_.mix_chase + profile_.mix_stream
                         + profile_.mix_random + profile_.mix_compute
                         + profile_.mix_graph + profile_.mix_hash
                         + profile_.mix_gather;
    emc_assert(total > 0, "profile has no kernel weights");
    double pick = rng_.uniform() * total;
    if ((pick -= profile_.mix_chase) < 0)
        return genChase();
    if ((pick -= profile_.mix_stream) < 0)
        return genStream();
    if ((pick -= profile_.mix_random) < 0)
        return genRandom();
    if ((pick -= profile_.mix_graph) < 0)
        return genGraph();
    if ((pick -= profile_.mix_hash) < 0)
        return genHashProbe();
    if ((pick -= profile_.mix_gather) < 0)
        return genGather();
    genCompute();
}

bool
SyntheticProgram::next(DynUop &out)
{
    while (pending_.empty())
        genIteration();
    out = pending_.front();
    pending_.pop_front();
    ++produced_;
    return true;
}


void
SyntheticProgram::ckptSer(ckpt::Ar &ar)
{
    // Everything that evolves after construction. Layout parameters
    // (chase_nodes_, stream_lines_, random_mask_, pc base) and the
    // chase ring itself are rebuilt deterministically by the
    // constructor from the same profile and seed.
    ar.io(rng_);
    for (auto &r : regs_)
        ar.io(r);
    ar.io(pending_);
    ar.io(produced_);
    ar.io(kernel_pc_off_);
    ar.io(chase_rr_);
    ar.io(stream_pos_);
    ar.io(stack_pos_);
    ar.io(spill_slots_);
    ar.io(embed_idx_pos_);
}

} // namespace emc
