/**
 * @file
 * SyntheticProgram: a TraceSource that generates (and functionally
 * executes) a SPEC-flavored program on the fly.
 *
 * Seven kernels, mixed per BenchmarkProfile weights:
 *
 *  - chase:   walks a pre-built pointer ring through a large working
 *             set; every indirection is a potential dependent cache
 *             miss, with a few integer uops between indirections
 *             (the paper's Figure 5 pattern);
 *  - stream:  sequential loads/stores over large arrays;
 *  - random:  loads whose addresses come from register-only LCG
 *             arithmetic — misses, but *independent* ones;
 *  - compute: ILP-rich integer/FP ALU work;
 *  - graph:   CSR frontier walks — row-pointer load, edge loads, then
 *             vertex-value gathers (bfs, pagerank; irregular.cc);
 *  - hash:    bucket-chain / B-tree probes — hashed bucket head, then
 *             a serial next-pointer walk with key loads per node;
 *  - gather:  embedding-row gathers through a skewed (hot/cold)
 *             index array.
 *
 * The generator maintains architectural register values and a
 * FunctionalMemory, so every emitted DynUop carries oracle values that
 * the timing core and the EMC are checked against.
 */

#ifndef EMC_WORKLOAD_SYNTHETIC_HH
#define EMC_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hh"
#include "isa/trace.hh"
#include "mem/functional_memory.hh"
#include "workload/profile.hh"

namespace emc
{

/** Synthetic SPEC-like program generator / functional executor. */
class SyntheticProgram : public TraceSource
{
  public:
    /**
     * @param profile benchmark parameters
     * @param mem functional memory backing this program's address space
     * @param seed RNG seed (vary per core for heterogeneity)
     */
    SyntheticProgram(const BenchmarkProfile &profile, FunctionalMemory &mem,
                     std::uint64_t seed);

    /**
     * A copy of @p built that continues on @p mem, which must hold
     * what @p built's memory holds (an overlay on its sealed base).
     * Construction is deterministic, so a copy taken right after
     * construction equals a fresh build from the same profile and seed.
     */
    SyntheticProgram(const SyntheticProgram &built, FunctionalMemory &mem);

    bool next(DynUop &out) override;
    std::uint64_t produced() const override { return produced_; }

    /** Full generator state (the functional memory is saved by the
     *  owner alongside, as it is shared infrastructure). */
    void ckptSer(ckpt::Ar &ar) override;

    const BenchmarkProfile &profile() const { return profile_; }

  private:
    SyntheticProgram(const SyntheticProgram &) = default;

    // Virtual-address layout of the program.
    static constexpr Addr kChaseBase = 0x10000000;
    static constexpr Addr kStreamBase = 0x20000000;
    static constexpr Addr kRandomBase = 0x30000000;
    static constexpr Addr kStackBase = 0x40000000;
    // Irregular-kernel regions (irregular.cc).
    static constexpr Addr kGraphRowBase = 0x50000000;   ///< CSR row ptrs
    static constexpr Addr kGraphEdgeBase = 0x58000000;  ///< edge targets
    static constexpr Addr kGraphValBase = 0x5c000000;   ///< vertex values
    static constexpr Addr kHashBucketBase = 0x60000000; ///< bucket heads
    static constexpr Addr kHashNodeBase = 0x68000000;   ///< chain nodes
    static constexpr Addr kEmbedIdxBase = 0x70000000;   ///< lookup indices
    static constexpr Addr kEmbedRowBase = 0x78000000;   ///< table rows

    // Architectural register conventions.
    static constexpr std::uint8_t kRegChasePtr = 1;
    static constexpr std::uint8_t kRegChasePtrB = 10;
    static constexpr std::uint8_t kRegChasePtrC = 13;
    static constexpr std::uint8_t kRegT2 = 2;
    static constexpr std::uint8_t kRegT3 = 3;
    static constexpr std::uint8_t kRegT4 = 4;
    static constexpr std::uint8_t kRegT5 = 5;
    static constexpr std::uint8_t kRegT6 = 6;
    static constexpr std::uint8_t kRegLcg = 7;
    static constexpr std::uint8_t kRegT8 = 8;
    static constexpr std::uint8_t kRegT9 = 9;
    static constexpr std::uint8_t kRegStreamIdx = 11;
    static constexpr std::uint8_t kRegT12 = 12;
    static constexpr std::uint8_t kRegAcc = 14;
    static constexpr std::uint8_t kRegSp = 15;

    void buildChaseRing();
    void emitInit();
    void genIteration();
    void genChase();
    void genStream();
    void genRandom();
    void genCompute();
    // Irregular kernels + their start-up structure builders
    // (irregular.cc).
    void buildGraph();
    void buildHashTable();
    void buildEmbedTable();
    void genGraph();
    void genHashProbe();
    void genGather();
    void maybeSpill();
    void emitBranch(std::uint8_t cond_reg, bool force_predictable);

    /** Emit + functionally execute one uop. */
    void push(Opcode op, std::uint8_t dst, std::uint8_t src1,
              std::uint8_t src2, std::int64_t imm);

    std::uint64_t regVal(std::uint8_t r) const;

    BenchmarkProfile profile_;
    FunctionalMemory *mem_;
    Rng rng_;

    std::uint64_t regs_[kArchRegs] = {};
    std::deque<DynUop> pending_;
    std::uint64_t produced_ = 0;
    std::uint64_t kernel_pc_base_ = 0x400000;
    std::uint64_t kernel_pc_off_ = 0;

    std::uint64_t chase_nodes_ = 0;
    unsigned chase_rr_ = 0;   ///< round-robin chase stream selector
    std::uint64_t stream_lines_ = 0;
    std::uint64_t stream_pos_ = 0;
    std::uint64_t random_mask_ = 0;
    std::uint64_t stack_pos_ = 0;
    std::vector<Addr> spill_slots_;  ///< outstanding spill addresses

    // Irregular-kernel layout (powers of two; rebuilt by the ctor)
    // and cursors (checkpointed).
    std::uint64_t graph_verts_ = 0;
    std::uint64_t hash_buckets_ = 0;
    std::uint64_t embed_rows_ = 0;
    std::uint64_t embed_idx_entries_ = 0;
    std::uint64_t embed_idx_pos_ = 0;
};

} // namespace emc

#endif // EMC_WORKLOAD_SYNTHETIC_HH
