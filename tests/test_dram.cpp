/**
 * @file
 * Unit and property tests for the DDR3 channel model: address mapping,
 * bank timing, row-buffer outcomes, scheduling policies, write drain
 * and refresh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "ckpt/serial.hh"
#include "common/rng.hh"
#include "dram/dram_channel.hh"

namespace emc
{

/** Test access to the channel's scheduler state. */
struct DramChannelTestPeer
{
    using Queued = DramChannel::Queued;

    static std::deque<Queued> &readQ(DramChannel &c) { return c.read_q_; }
    static std::deque<Queued> &writeQ(DramChannel &c) { return c.write_q_; }
    static std::vector<Bank> &banks(DramChannel &c) { return c.banks_; }

    static std::vector<std::uint64_t> &
    threadRank(DramChannel &c)
    {
        return c.thread_rank_;
    }

    static std::uint64_t &
    markedRemaining(DramChannel &c)
    {
        return c.marked_remaining_;
    }

    static int
    pickFrFcfs(const DramChannel &c, bool writes, Cycle now)
    {
        return c.pickFrFcfs(writes ? c.write_q_ : c.read_q_, now);
    }

    static int pickBatch(DramChannel &c, Cycle now) { return c.pickBatch(now); }
};

namespace
{

DramGeometry
quadGeo()
{
    DramGeometry g;
    g.channels = 2;
    g.ranks_per_channel = 1;
    g.banks_per_rank = 8;
    g.row_bytes = 8192;
    return g;
}

TEST(DramMapTest, ChannelInterleavesByLine)
{
    const DramGeometry g = quadGeo();
    const DramCoord a = mapAddress(0, g);
    const DramCoord b = mapAddress(64, g);
    EXPECT_NE(a.channel, b.channel);
    EXPECT_EQ(mapAddress(128, g).channel, a.channel);
}

TEST(DramMapTest, RowHoldsManyLines)
{
    const DramGeometry g = quadGeo();
    // Two lines in the same channel+bank separated by less than a row
    // must map to the same row.
    const Addr a = 0;
    const Addr b = a + 64 * g.channels * g.banks_per_rank;  // next column
    const DramCoord ca = mapAddress(a, g);
    const DramCoord cb = mapAddress(b, g);
    EXPECT_EQ(ca.channel, cb.channel);
    EXPECT_EQ(ca.bank, cb.bank);
    EXPECT_EQ(ca.row, cb.row);
    EXPECT_NE(ca.column, cb.column);
}

TEST(DramMapTest, CoordinatesWithinBounds)
{
    const DramGeometry g = quadGeo();
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.next() & ~0x3full;
        const DramCoord c = mapAddress(a, g);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.rank, g.ranks_per_channel);
        EXPECT_LT(c.bank, g.banks_per_rank);
        EXPECT_LT(c.column, g.linesPerRow());
    }
}

TEST(BankTest, RowOutcomeSequence)
{
    Bank b;
    DramTiming t;
    EXPECT_EQ(b.classify(5), RowOutcome::kEmpty);
    RowOutcome out;
    const Cycle d1 = b.access(5, 0, t, false, out);
    EXPECT_EQ(out, RowOutcome::kEmpty);
    EXPECT_EQ(d1, t.tRCD + t.tCL);

    const Cycle earliest = b.readyCycle();
    const Cycle d2 = b.access(5, earliest, t, false, out);
    EXPECT_EQ(out, RowOutcome::kHit);
    EXPECT_EQ(d2, earliest + t.tCL);

    const Cycle before = d2;
    const Cycle d3 = b.access(9, b.readyCycle(), t, false, out);
    EXPECT_EQ(out, RowOutcome::kConflict);
    EXPECT_GT(d3, before);
}

TEST(BankTest, ConflictRespectsTras)
{
    Bank b;
    DramTiming t;
    RowOutcome out;
    b.access(1, 0, t, false, out);  // activate at 0
    // Immediately conflicting access: precharge cannot start before
    // tRAS from the activate.
    const Cycle d = b.access(2, t.tCCD, t, false, out);
    EXPECT_EQ(out, RowOutcome::kConflict);
    EXPECT_GE(d, t.tRAS + t.tRP + t.tRCD + t.tCL);
}

TEST(BankTest, RefreshClosesRow)
{
    Bank b;
    DramTiming t;
    RowOutcome out;
    b.access(1, 0, t, false, out);
    b.refresh(100, t);
    EXPECT_FALSE(b.rowOpen());
    EXPECT_GE(b.readyCycle(), 100 + t.tRFC);
}

TEST(BankTest, WriteRecoveryLongerThanRead)
{
    Bank br, bw;
    DramTiming t;
    RowOutcome out;
    br.access(1, 0, t, false, out);
    bw.access(1, 0, t, true, out);
    EXPECT_GT(bw.readyCycle(), br.readyCycle());
}

class DramChannelTest : public ::testing::Test
{
  protected:
    DramChannelTest()
        : chan_(quadGeo(), DramTiming{}, SchedPolicy::kFrFcfs, 64, 4)
    {
        chan_.setCallback([this](const MemRequest &req) {
            done_.push_back(req);
        });
    }

    void
    runTo(Cycle end)
    {
        for (; now_ <= end; ++now_)
            chan_.tick(now_);
    }

    MemRequest
    read(Addr a, CoreId core = 0)
    {
        MemRequest r;
        r.paddr = a;
        r.core = core;
        r.token = next_token_++;
        return r;
    }

    DramChannel chan_;
    std::vector<MemRequest> done_;
    Cycle now_ = 1;
    std::uint64_t next_token_ = 1;
};

TEST_F(DramChannelTest, SingleReadCompletes)
{
    ASSERT_TRUE(chan_.enqueue(read(0), now_));
    runTo(500);
    ASSERT_EQ(done_.size(), 1u);
    const MemRequest &r = done_[0];
    EXPECT_NE(r.cycle_dram_issue, kNoCycle);
    EXPECT_GT(r.cycle_dram_data, r.cycle_dram_issue);
    EXPECT_EQ(r.outcome, RowOutcome::kEmpty);
}

TEST_F(DramChannelTest, RowHitFasterThanConflict)
{
    const DramGeometry g = quadGeo();
    const Addr same_row = 64 * g.channels * g.banks_per_rank;
    ASSERT_TRUE(chan_.enqueue(read(0), now_));
    runTo(400);
    done_.clear();

    // Row hit.
    ASSERT_TRUE(chan_.enqueue(read(same_row), now_));
    runTo(now_ + 400);
    ASSERT_EQ(done_.size(), 1u);
    const Cycle hit_latency =
        done_[0].cycle_dram_data - done_[0].cycle_dram_issue;
    EXPECT_EQ(done_[0].outcome, RowOutcome::kHit);
    done_.clear();

    // Conflict: same bank, different row.
    const Addr other_row =
        static_cast<Addr>(g.linesPerRow()) * 64 * g.channels
        * g.banks_per_rank * 4;
    const DramCoord c0 = mapAddress(0, g);
    const DramCoord c1 = mapAddress(other_row, g);
    ASSERT_EQ(c0.bank, c1.bank);
    ASSERT_NE(c0.row, c1.row);
    ASSERT_TRUE(chan_.enqueue(read(other_row), now_));
    runTo(now_ + 800);
    ASSERT_EQ(done_.size(), 1u);
    const Cycle conf_latency =
        done_[0].cycle_dram_data - done_[0].cycle_dram_issue;
    EXPECT_EQ(done_[0].outcome, RowOutcome::kConflict);
    EXPECT_GT(conf_latency, hit_latency);
}

TEST_F(DramChannelTest, FrFcfsPrefersRowHit)
{
    const DramGeometry g = quadGeo();
    const Addr same_row = 64 * g.channels * g.banks_per_rank;
    // Open a row.
    ASSERT_TRUE(chan_.enqueue(read(0), now_));
    runTo(400);
    done_.clear();

    // Enqueue a conflict (older) and a row hit (younger) to the same
    // bank: the hit must be serviced first.
    const Addr conflict_addr =
        static_cast<Addr>(g.linesPerRow()) * 64 * g.channels
        * g.banks_per_rank * 8;
    ASSERT_EQ(mapAddress(conflict_addr, g).bank, mapAddress(0, g).bank);
    MemRequest older = read(conflict_addr);
    MemRequest younger = read(same_row);
    ASSERT_TRUE(chan_.enqueue(older, now_));
    ASSERT_TRUE(chan_.enqueue(younger, now_));
    runTo(now_ + 1200);
    ASSERT_EQ(done_.size(), 2u);
    EXPECT_EQ(done_[0].token, younger.token);
    EXPECT_EQ(done_[1].token, older.token);
}

TEST_F(DramChannelTest, QueueLimitEnforced)
{
    DramChannel small(quadGeo(), DramTiming{}, SchedPolicy::kFrFcfs, 2, 4);
    EXPECT_TRUE(small.enqueue(read(0), 1));
    EXPECT_TRUE(small.enqueue(read(64 * 2), 1));
    EXPECT_FALSE(small.enqueue(read(64 * 4), 1));
    EXPECT_FALSE(small.canAccept());
}

TEST_F(DramChannelTest, WritesDoNotStarveReads)
{
    // Saturate with writes below the drain watermark; reads must still
    // complete promptly.
    for (int i = 0; i < 8; ++i) {
        MemRequest w = read(static_cast<Addr>(i) * 4096);
        w.is_write = true;
        ASSERT_TRUE(chan_.enqueue(w, now_));
    }
    ASSERT_TRUE(chan_.enqueue(read(1 << 20), now_));
    runTo(600);
    ASSERT_GE(done_.size(), 1u);
}

TEST_F(DramChannelTest, WriteDrainAtWatermark)
{
    // Push writes past the high watermark; they must eventually issue
    // even with a continuous trickle of reads.
    for (int i = 0; i < 40; ++i) {
        MemRequest w = read(static_cast<Addr>(i) * 4096);
        w.is_write = true;
        ASSERT_TRUE(chan_.enqueue(w, now_));
    }
    runTo(20000);
    EXPECT_LT(chan_.writeQueueDepth(), 40u);
    EXPECT_GT(chan_.stats().writes, 0u);
}

TEST_F(DramChannelTest, BatchSchedulerServesAllCores)
{
    DramChannel batch(quadGeo(), DramTiming{}, SchedPolicy::kBatch, 64, 4);
    std::vector<MemRequest> finished;
    batch.setCallback([&](const MemRequest &r) { finished.push_back(r); });
    // Core 0 floods one bank; core 1 has a single request. PAR-BS
    // marking must bound core 0's lead.
    for (int i = 0; i < 16; ++i) {
        MemRequest r = read(static_cast<Addr>(i) * 4096
                            * quadGeo().banks_per_rank, 0);
        r.token = 100 + i;
        batch.enqueue(r, 1);
    }
    MemRequest lone = read(1 << 22, 1);
    lone.token = 999;
    batch.enqueue(lone, 1);
    for (Cycle c = 1; c < 30000 && finished.size() < 17; ++c)
        batch.tick(c);
    ASSERT_EQ(finished.size(), 17u);
    // The lone request must not finish last.
    EXPECT_NE(finished.back().token, 999u);
}

TEST_F(DramChannelTest, RefreshHappensPeriodically)
{
    runTo(3 * DramTiming{}.tREFI + 10);
    EXPECT_GE(chan_.stats().refreshes, 3u);
}

/** Property: every enqueued read completes exactly once. */
TEST_F(DramChannelTest, AllReadsCompleteOnce)
{
    Rng rng(77);
    std::vector<std::uint64_t> tokens;
    unsigned enqueued = 0;
    for (Cycle c = 1; c < 60000; ++c) {
        if (enqueued < 200 && rng.chance(0.02) && chan_.canAccept()) {
            MemRequest r = read(rng.below(1 << 22) << kLineShift,
                                static_cast<CoreId>(rng.below(4)));
            if (chan_.enqueue(r, c)) {
                tokens.push_back(r.token);
                ++enqueued;
            }
        }
        chan_.tick(c);
    }
    ASSERT_EQ(done_.size(), tokens.size());
    std::vector<std::uint64_t> got;
    for (const auto &r : done_)
        got.push_back(r.token);
    std::sort(got.begin(), got.end());
    std::sort(tokens.begin(), tokens.end());
    EXPECT_EQ(got, tokens);
}

/** Property: data timestamps are monotone per bank bus occupancy. */
TEST_F(DramChannelTest, DataBusNeverOverlaps)
{
    Rng rng(5);
    for (Cycle c = 1; c < 40000; ++c) {
        if (rng.chance(0.05) && chan_.canAccept())
            chan_.enqueue(read(rng.below(1 << 20) << kLineShift), c);
        chan_.tick(c);
    }
    std::vector<Cycle> ends;
    for (const auto &r : done_)
        ends.push_back(r.cycle_dram_data);
    std::sort(ends.begin(), ends.end());
    for (std::size_t i = 1; i < ends.size(); ++i)
        EXPECT_GE(ends[i] - ends[i - 1], DramTiming{}.tBurst)
            << "bursts overlap on the data bus";
}

// --------------------------------------------------------------------
// Scheduler cross-check: the channel's picks, which read the bank and
// row decoded once at enqueue, against the straightforward scheduler
// that re-derives mapAddress() for every candidate and comparison.
// --------------------------------------------------------------------

/** The re-deriving scheduler over a snapshot of a channel's state. */
struct OracleScheduler
{
    struct Entry
    {
        MemRequest req;
        bool marked = false;
    };

    DramGeometry geo;
    unsigned num_cores = 0;
    std::vector<Bank> banks;
    std::vector<Entry> read_q;
    std::vector<Entry> write_q;
    std::vector<std::uint64_t> thread_rank;
    std::uint64_t marked_remaining = 0;

    int
    pickFrFcfs(const std::vector<Entry> &q, Cycle now) const
    {
        int best = -1;
        bool best_hit = false;
        for (std::size_t i = 0; i < q.size(); ++i) {
            const DramCoord c = mapAddress(q[i].req.paddr, geo);
            const Bank &b = banks[c.rank * geo.banks_per_rank + c.bank];
            if (b.readyCycle() > now)
                continue;
            const bool hit = b.classify(c.row) == RowOutcome::kHit;
            if (best < 0 || (hit && !best_hit)) {
                best = static_cast<int>(i);
                best_hit = hit;
                if (hit)
                    break;
            }
        }
        return best;
    }

    void
    formBatch()
    {
        constexpr unsigned kMarkingCap = 5;
        marked_remaining = 0;
        std::vector<std::vector<unsigned>> counts(
            num_cores, std::vector<unsigned>(banks.size(), 0));
        for (auto &qe : read_q) {
            const DramCoord c = mapAddress(qe.req.paddr, geo);
            const unsigned bank_idx = c.rank * geo.banks_per_rank + c.bank;
            const CoreId core = qe.req.core % num_cores;
            if (counts[core][bank_idx] < kMarkingCap) {
                qe.marked = true;
                ++counts[core][bank_idx];
                ++marked_remaining;
            } else {
                qe.marked = false;
            }
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> load(num_cores);
        for (unsigned core = 0; core < num_cores; ++core) {
            std::uint64_t mx = 0, tot = 0;
            for (unsigned b = 0; b < banks.size(); ++b) {
                mx = std::max<std::uint64_t>(mx, counts[core][b]);
                tot += counts[core][b];
            }
            load[core] = {mx, tot};
        }
        std::vector<unsigned> order(num_cores);
        for (unsigned i = 0; i < num_cores; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
                             return load[a] < load[b];
                         });
        for (unsigned pos = 0; pos < num_cores; ++pos)
            thread_rank[order[pos]] = pos;
    }

    int
    pickBatch(Cycle now)
    {
        if (marked_remaining == 0 && !read_q.empty())
            formBatch();
        int best = -1;
        auto better = [&](const Entry &a, const Entry &b) {
            if (a.marked != b.marked)
                return a.marked;
            const DramCoord ca = mapAddress(a.req.paddr, geo);
            const DramCoord cb = mapAddress(b.req.paddr, geo);
            const bool ha = banks[ca.rank * geo.banks_per_rank + ca.bank]
                                .classify(ca.row) == RowOutcome::kHit;
            const bool hb = banks[cb.rank * geo.banks_per_rank + cb.bank]
                                .classify(cb.row) == RowOutcome::kHit;
            if (ha != hb)
                return ha;
            const auto ra = thread_rank[a.req.core % num_cores];
            const auto rb = thread_rank[b.req.core % num_cores];
            if (ra != rb)
                return ra < rb;
            return a.req.cycle_mc_enqueue < b.req.cycle_mc_enqueue;
        };
        for (std::size_t i = 0; i < read_q.size(); ++i) {
            const DramCoord c = mapAddress(read_q[i].req.paddr, geo);
            const Bank &b = banks[c.rank * geo.banks_per_rank + c.bank];
            if (b.readyCycle() > now)
                continue;
            if (best < 0 || better(read_q[i], read_q[best]))
                best = static_cast<int>(i);
        }
        return best;
    }
};

OracleScheduler
snapshot(DramChannel &ch, const DramGeometry &geo, unsigned num_cores)
{
    using P = DramChannelTestPeer;
    OracleScheduler o;
    o.geo = geo;
    o.num_cores = num_cores;
    o.banks = P::banks(ch);
    for (const auto &qe : P::readQ(ch))
        o.read_q.push_back({qe.req, qe.marked});
    for (const auto &qe : P::writeQ(ch))
        o.write_q.push_back({qe.req, qe.marked});
    o.thread_rank = P::threadRank(ch);
    o.marked_remaining = P::markedRemaining(ch);
    return o;
}

/** An address with the given in-channel coordinates. */
Addr
addrAt(const DramGeometry &g, unsigned rank, unsigned bank,
       std::uint64_t row, unsigned column, unsigned channel)
{
    std::uint64_t line = row;
    line = line * g.ranks_per_channel + rank;
    line = line * g.linesPerRow() + column;
    line = line * g.banks_per_rank + bank;
    line = line * g.channels + channel;
    return line << kLineShift;
}

/** Random queues, open rows, bank ready cycles, marks and ranks. */
void
randomize(DramChannel &ch, const DramGeometry &g, unsigned num_cores,
          std::size_t limit, Rng &rng)
{
    using P = DramChannelTestPeer;
    const DramTiming t;
    for (Bank &b : P::banks(ch)) {
        const unsigned steps = static_cast<unsigned>(rng.below(4));
        for (unsigned k = 0; k < steps; ++k) {
            RowOutcome out;
            b.access(rng.below(3), rng.below(1500), t, rng.chance(0.3), out);
        }
        if (rng.chance(0.1))
            b.refresh(rng.below(1500), t);
    }
    auto req = [&] {
        MemRequest r;
        r.paddr = addrAt(g, static_cast<unsigned>(rng.below(g.ranks_per_channel)),
                         static_cast<unsigned>(rng.below(g.banks_per_rank)),
                         rng.below(3),
                         static_cast<unsigned>(rng.below(g.linesPerRow())),
                         static_cast<unsigned>(rng.below(g.channels)));
        r.core = static_cast<CoreId>(rng.below(2 * num_cores));
        return r;
    };
    const std::size_t reads = rng.below(limit + 1);
    for (std::size_t i = 0; i < reads; ++i)
        ASSERT_TRUE(ch.enqueue(req(), rng.below(40)));
    const std::size_t writes = rng.below(40);
    for (std::size_t i = 0; i < writes; ++i) {
        MemRequest w = req();
        w.is_write = true;
        ch.enqueue(w, rng.below(40));
    }
    for (auto &qe : P::readQ(ch))
        qe.marked = rng.chance(0.5);
    P::markedRemaining(ch) = rng.chance(0.3) ? 0 : rng.below(reads + 1);
    for (auto &r : P::threadRank(ch))
        r = rng.below(num_cores);
}

/** One cross-check of every pick against the oracle. */
void
crossCheck(DramChannel &ch, const DramGeometry &g, unsigned num_cores,
           Cycle now)
{
    using P = DramChannelTestPeer;
    OracleScheduler o = snapshot(ch, g, num_cores);
    ch.checkConsistent([](const std::string &msg) { FAIL() << msg; });
    EXPECT_EQ(P::pickFrFcfs(ch, false, now), o.pickFrFcfs(o.read_q, now));
    EXPECT_EQ(P::pickFrFcfs(ch, true, now), o.pickFrFcfs(o.write_q, now));
    EXPECT_EQ(P::pickBatch(ch, now), o.pickBatch(now));
    // A batch formed inside pickBatch marks and ranks identically.
    const OracleScheduler after = snapshot(ch, g, num_cores);
    ASSERT_EQ(after.read_q.size(), o.read_q.size());
    for (std::size_t i = 0; i < o.read_q.size(); ++i)
        EXPECT_EQ(after.read_q[i].marked, o.read_q[i].marked) << i;
    EXPECT_EQ(after.thread_rank, o.thread_rank);
    EXPECT_EQ(after.marked_remaining, o.marked_remaining);
}

TEST(DramSchedulerOracle, PicksMatchReDerivingScheduler)
{
    DramGeometry two_rank = quadGeo();
    two_rank.ranks_per_channel = 2;
    two_rank.row_bytes = 4096;
    Rng rng(17);
    for (const DramGeometry &g : {quadGeo(), two_rank}) {
        for (unsigned cores : {1u, 4u, 8u}) {
            for (int trial = 0; trial < 300; ++trial) {
                DramChannel ch(g, DramTiming{}, SchedPolicy::kBatch, 64,
                               cores);
                randomize(ch, g, cores, 64, rng);
                crossCheck(ch, g, cores, rng.below(2500));
                if (HasFailure())
                    return;
            }
        }
    }
}

TEST(DramSchedulerOracle, PicksMatchAfterCheckpointRoundTrip)
{
    // The decoded coordinates are not in the image: loading must
    // re-derive them, or a restored channel schedules from defaults.
    const DramGeometry g = quadGeo();
    Rng rng(29);
    for (int trial = 0; trial < 200; ++trial) {
        DramChannel src(g, DramTiming{}, SchedPolicy::kBatch, 64, 4);
        randomize(src, g, 4, 64, rng);
        ckpt::Ar save = ckpt::Ar::saver();
        src.ser(save);
        DramChannel dst(g, DramTiming{}, SchedPolicy::kBatch, 64, 4);
        ckpt::Ar load = ckpt::Ar::loader(save.takeBytes());
        dst.ser(load);
        ASSERT_TRUE(load.exhausted());
        crossCheck(dst, g, 4, rng.below(2500));
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace emc
