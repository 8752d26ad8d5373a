/**
 * @file
 * Irregular-workload kernels of SyntheticProgram (DESIGN.md §11): CSR
 * graph frontier walks, hash/B-tree bucket-chain probes, and
 * embedding-row gathers. Each kernel traverses a real data structure
 * built in functional memory at start-up, so its dependent misses are
 * genuine pointer-through-data dependences — the pattern the EMC
 * accelerates — rather than the abstract chase ring's.
 */

#include <algorithm>

#include "common/log.hh"
#include "workload/synthetic.hh"

namespace emc
{

namespace
{

/** Largest power of two <= max(x, 64), capped at 2^20. */
std::uint64_t
pow2Below(std::uint64_t x)
{
    std::uint64_t p = 64;
    while (p * 2 <= x && p < (1ull << 20))
        p *= 2;
    return p;
}

} // namespace

// --------------------------------------------------------------------
// Graph traversal (bfs, pagerank): fixed-degree CSR
// --------------------------------------------------------------------

void
SyntheticProgram::buildGraph()
{
    // Row array entry v holds the *address* of v's first edge (a
    // plain CSR offset would need a multiply the ISA lacks); edges
    // hold target vertex ids; the value array is one word per vertex.
    // Fixed out-degree keeps per-iteration uop counts (and so static
    // PCs) stable.
    const unsigned deg = std::max(1u, profile_.graph_degree);
    graph_verts_ =
        pow2Below(profile_.ws_bytes / (8 * (2 + deg)));
    for (std::uint64_t v = 0; v < graph_verts_; ++v) {
        const Addr row = kGraphEdgeBase + v * deg * 8;
        mem_->write(kGraphRowBase + v * 8, row);
        for (unsigned e = 0; e < deg; ++e) {
            // Community structure: most edges stay within a ±512
            // vertex window (the traversal revisits a bounded page
            // set, as with the chase ring's pool-allocated blocks);
            // a 20% tail of long-range edges keeps the frontier
            // moving across the whole graph.
            const std::uint64_t target =
                rng_.chance(0.2)
                    ? rng_.below(graph_verts_)
                    : (v + rng_.below(1024) - 512)
                          & (graph_verts_ - 1);
            mem_->write(row + e * 8, target);
        }
        mem_->write(kGraphValBase + v * 8, rng_.next());
    }
}

void
SyntheticProgram::genGraph()
{
    kernel_pc_base_ = 0x406000;
    kernel_pc_off_ = 0;
    const unsigned deg = std::max(1u, profile_.graph_degree);
    // One frontier step:
    //   row  = load rows[v & (verts-1)]      <- index load
    //   for each edge e:
    //     t   = load [row + 8e]              <- dependent edge load
    //     val = load values[t]               <- dependent gather
    //   v = t                                <- frontier advance
    // The mask keeps the vertex cursor valid even when another kernel
    // in the mix clobbers its register between iterations.
    push(Opcode::kShl, kRegT8, kRegT5, kNoReg, 3);
    push(Opcode::kAnd, kRegT8, kRegT8, kNoReg,
         static_cast<std::int64_t>(graph_verts_ * 8 - 1));
    push(Opcode::kLoad, kRegT9, kRegT8, kNoReg,
         static_cast<std::int64_t>(kGraphRowBase));
    for (unsigned e = 0; e < deg; ++e) {
        push(Opcode::kLoad, kRegT6, kRegT9, kNoReg,
             static_cast<std::int64_t>(8 * e));
        push(Opcode::kShl, kRegT2, kRegT6, kNoReg, 3);
        push(Opcode::kLoad, kRegT3, kRegT2, kNoReg,
             static_cast<std::int64_t>(kGraphValBase));
        if (profile_.fp_frac > 0 && rng_.chance(profile_.fp_frac))
            push(Opcode::kFpAdd, kRegAcc, kRegAcc, kRegT3, 0);
        else
            push(Opcode::kAdd, kRegAcc, kRegAcc, kRegT3, 0);
    }
    if (rng_.chance(profile_.store_frac)) {
        // Frontier-output store: mark the visited vertex's value.
        push(Opcode::kStore, kNoReg, kRegT2, kRegAcc,
             static_cast<std::int64_t>(kGraphValBase));
    }
    push(Opcode::kMov, kRegT5, kRegT6, kNoReg, 0);
    maybeSpill();
    emitBranch(kRegT5, false);
}

// --------------------------------------------------------------------
// Hash-join / B-tree probe (hashjoin, btree): bucket chains
// --------------------------------------------------------------------

void
SyntheticProgram::buildHashTable()
{
    // Every bucket heads a cyclic chain of `hash_chain` one-line
    // nodes ([next, key, payload, ...]); node slots are a random
    // permutation of the node region so the next-pointer walk misses
    // on every hop, like a heap-allocated chain after enough churn.
    const unsigned chain = std::max(1u, profile_.hash_chain);
    hash_buckets_ =
        pow2Below(profile_.ws_bytes / (8 + chain * kLineBytes));
    const std::uint64_t nodes = hash_buckets_ * chain;
    std::vector<std::uint32_t> slot(nodes);
    for (std::uint64_t i = 0; i < nodes; ++i)
        slot[i] = static_cast<std::uint32_t>(i);
    // Permute node slots within 512-slot (8-page) blocks only: every
    // next-pointer hop is a fresh line, but one probe's walk stays
    // inside a bounded page set — pool allocation, as in the chase
    // ring (and within reach of the 32-entry EMC TLB).
    constexpr std::uint64_t kBlockSlots = 512;
    for (std::uint64_t base = 0; base < nodes; base += kBlockSlots) {
        const std::uint64_t hi = std::min(base + kBlockSlots, nodes);
        for (std::uint64_t i = hi - 1; i > base; --i) {
            const std::uint64_t j = base + rng_.below(i - base + 1);
            std::swap(slot[i], slot[j]);
        }
    }
    for (std::uint64_t b = 0; b < hash_buckets_; ++b) {
        const std::uint64_t first = b * chain;
        mem_->write(kHashBucketBase + b * 8,
                   kHashNodeBase + Addr(slot[first]) * kLineBytes);
        for (unsigned n = 0; n < chain; ++n) {
            const Addr node =
                kHashNodeBase + Addr(slot[first + n]) * kLineBytes;
            const Addr next =
                kHashNodeBase
                + Addr(slot[first + (n + 1) % chain]) * kLineBytes;
            mem_->write(node, next);
            mem_->write(node + 8, rng_.next());   // key
            mem_->write(node + 16, rng_.next());  // payload
        }
    }
}

void
SyntheticProgram::genHashProbe()
{
    kernel_pc_base_ = 0x407000;
    kernel_pc_off_ = 0;
    const unsigned chain = std::max(1u, profile_.hash_chain);
    const unsigned fields = std::max(1u, profile_.hash_node_fields);
    // Probe: xorshift a fresh key, hash it to a bucket, load the head
    // pointer, then walk the chain — each hop loads the node's key
    // field(s) and its next pointer (the serial dependent-miss chain;
    // for btree the "chain" is the root-to-leaf path).
    push(Opcode::kShl, kRegT8, kRegLcg, kNoReg, 13);
    push(Opcode::kXor, kRegLcg, kRegLcg, kRegT8, 0);
    push(Opcode::kShr, kRegT8, kRegLcg, kNoReg, 7);
    push(Opcode::kXor, kRegLcg, kRegLcg, kRegT8, 0);
    push(Opcode::kShl, kRegT9, kRegLcg, kNoReg, 3);
    push(Opcode::kAnd, kRegT9, kRegT9, kNoReg,
         static_cast<std::int64_t>(hash_buckets_ * 8 - 1));
    push(Opcode::kLoad, kRegT2, kRegT9, kNoReg,
         static_cast<std::int64_t>(kHashBucketBase));
    for (unsigned n = 0; n < chain; ++n) {
        for (unsigned f = 0; f < fields; ++f) {
            push(Opcode::kLoad, kRegT3, kRegT2, kNoReg,
                 static_cast<std::int64_t>(8 + 8 * (f % 7)));
            push(Opcode::kXor, kRegAcc, kRegAcc, kRegT3, 0);
        }
        push(Opcode::kLoad, kRegT2, kRegT2, kNoReg, 0);
    }
    if (rng_.chance(profile_.store_frac)) {
        // Join-output store into the stack region.
        const Addr slot = kStackBase + 0x1000
                          + (stack_pos_++ % 512) * 8;
        push(Opcode::kMov, kRegT4, kNoReg, kNoReg,
             static_cast<std::int64_t>(slot));
        push(Opcode::kStore, kNoReg, kRegT4, kRegAcc, 0);
    }
    maybeSpill();
    emitBranch(kRegT2, false);
}

// --------------------------------------------------------------------
// Embedding gather (embed): skewed index array over a wide table
// --------------------------------------------------------------------

void
SyntheticProgram::buildEmbedTable()
{
    // The index array stores row *addresses* with hot/cold skew: a
    // small hot set (1/64th of the table) absorbs gather_hot_frac of
    // the lookups — the embedding-table popularity pattern. Row data
    // itself is read uninitialized (FunctionalMemory is deterministic)
    // so only the index array costs build time.
    const unsigned lines = std::max(1u, profile_.gather_lines);
    embed_rows_ =
        pow2Below(profile_.ws_bytes / (lines * kLineBytes));
    const std::uint64_t hot = std::max<std::uint64_t>(1, embed_rows_ / 64);
    embed_idx_entries_ = std::min<std::uint64_t>(
        1ull << 16, std::max<std::uint64_t>(64, embed_rows_ / 4));
    for (std::uint64_t i = 0; i < embed_idx_entries_; ++i) {
        const std::uint64_t row = rng_.chance(profile_.gather_hot_frac)
                                      ? rng_.below(hot)
                                      : rng_.below(embed_rows_);
        mem_->write(kEmbedIdxBase + i * 8,
                   kEmbedRowBase + Addr(row) * lines * kLineBytes);
    }
}

void
SyntheticProgram::genGather()
{
    kernel_pc_base_ = 0x408000;
    kernel_pc_off_ = 0;
    const unsigned lines = std::max(1u, profile_.gather_lines);
    // One lookup: sequential read of the next index entry, then fetch
    // the whole row it points at — address depends on the loaded
    // index, so cold rows are dependent misses.
    const Addr idx = kEmbedIdxBase
                     + (embed_idx_pos_++ % embed_idx_entries_) * 8;
    push(Opcode::kMov, kRegT8, kNoReg, kNoReg,
         static_cast<std::int64_t>(idx));
    push(Opcode::kLoad, kRegT9, kRegT8, kNoReg, 0);
    for (unsigned l = 0; l < lines; ++l) {
        push(Opcode::kLoad, kRegT3, kRegT9, kNoReg,
             static_cast<std::int64_t>(l * kLineBytes));
        if (profile_.fp_frac > 0 && rng_.chance(profile_.fp_frac))
            push(Opcode::kFpAdd, kRegAcc, kRegAcc, kRegT3, 0);
        else
            push(Opcode::kAdd, kRegAcc, kRegAcc, kRegT3, 0);
    }
    if (rng_.chance(profile_.store_frac)) {
        // Pooled-output store (reduction buffer in the stack region).
        const Addr slot = kStackBase + 0x2000
                          + (stack_pos_++ % 512) * 8;
        push(Opcode::kMov, kRegT4, kNoReg, kNoReg,
             static_cast<std::int64_t>(slot));
        push(Opcode::kStore, kNoReg, kRegT4, kRegAcc, 0);
    }
    emitBranch(kRegAcc, true);
}

} // namespace emc
