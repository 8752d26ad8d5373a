/**
 * @file
 * Unit and property tests for the bidirectional slotted ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serial.hh"
#include "common/rng.hh"
#include "ring/ring.hh"

namespace emc
{
namespace
{

struct Harness
{
    explicit Harness(unsigned stops, bool data = false)
        : ring(stops, data)
    {
        ring.setDeliver([this](const RingMsg &m) {
            delivered.push_back({m, now});
        });
    }

    void
    run(Cycle until)
    {
        for (; now <= until; ++now)
            ring.tick(now);
    }

    RingMsg
    msg(unsigned src, unsigned dst, std::uint64_t token = 0)
    {
        RingMsg m;
        m.src = src;
        m.dst = dst;
        m.token = token;
        m.type = MsgType::kMemRead;
        return m;
    }

    Ring ring;
    std::vector<std::pair<RingMsg, Cycle>> delivered;
    Cycle now = 1;
};

TEST(RingTest, DistanceShortestPath)
{
    Ring r(5, false);
    EXPECT_EQ(r.distance(0, 1), 1u);
    EXPECT_EQ(r.distance(0, 4), 1u);
    EXPECT_EQ(r.distance(0, 2), 2u);
    EXPECT_EQ(r.distance(1, 4), 2u);
    EXPECT_EQ(r.distance(3, 3), 0u);
}

TEST(RingTest, DeliversAtHopDistance)
{
    Harness h(5);
    h.ring.send(h.msg(0, 2), h.now);
    h.run(10);
    ASSERT_EQ(h.delivered.size(), 1u);
    // Injection next tick, then one tick per hop: 2 hops.
    EXPECT_EQ(h.delivered[0].second - 1, 2u);
}

TEST(RingTest, ChoosesShorterDirection)
{
    Harness h(8);
    h.ring.send(h.msg(0, 7), h.now);  // 1 hop counter-clockwise
    h.run(10);
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_LE(h.delivered[0].second, 3u);
}

TEST(RingTest, RejectsSameStop)
{
    Ring r(4, false);
    RingMsg m;
    m.src = 2;
    m.dst = 2;
    EXPECT_DEATH(r.send(m, 0), "same-stop");
}

TEST(RingTest, ContentionDelaysInjection)
{
    // Saturate stop 0 with messages: later ones wait for free slots.
    Harness h(4);
    for (int i = 0; i < 6; ++i)
        h.ring.send(h.msg(0, 2, i), h.now);
    h.run(30);
    ASSERT_EQ(h.delivered.size(), 6u);
    EXPECT_GT(h.delivered.back().second, h.delivered.front().second);
    EXPECT_GT(h.ring.stats().inject_stalls, 0u);
}

TEST(RingTest, StatsCountMessages)
{
    Harness hc(4, false);
    hc.ring.send(hc.msg(0, 1), hc.now);
    EXPECT_EQ(hc.ring.stats().control_msgs, 1u);
    EXPECT_EQ(hc.ring.stats().data_msgs, 0u);

    Harness hd(4, true);
    RingMsg m = hd.msg(0, 1);
    m.type = MsgType::kChainTransfer;
    hd.ring.send(m, hd.now);
    EXPECT_EQ(hd.ring.stats().data_msgs, 1u);
    EXPECT_EQ(hd.ring.stats().data_emc_msgs, 1u);
}

TEST(RingTest, EmcMessageClassification)
{
    EXPECT_TRUE(isDataMsg(MsgType::kChainTransfer));
    EXPECT_TRUE(isDataMsg(MsgType::kLiveOut));
    EXPECT_TRUE(isDataMsg(MsgType::kFillToCore));
    EXPECT_FALSE(isDataMsg(MsgType::kMemRead));
    EXPECT_FALSE(isDataMsg(MsgType::kLsqPopulate));
}

/** Property: every sent message is delivered exactly once. */
TEST(RingProperty, AllMessagesDeliveredOnce)
{
    Harness h(6);
    Rng rng(42);
    std::map<std::uint64_t, std::pair<unsigned, unsigned>> sent;
    std::uint64_t token = 1;
    for (Cycle c = 1; c < 2000; ++c) {
        if (rng.chance(0.3)) {
            const unsigned src = static_cast<unsigned>(rng.below(6));
            unsigned dst = static_cast<unsigned>(rng.below(6));
            if (dst == src)
                dst = (dst + 1) % 6;
            sent[token] = {src, dst};
            h.ring.send(h.msg(src, dst, token), c);
            ++token;
        }
        h.ring.tick(c);
        h.now = c + 1;
    }
    h.run(h.now + 200);
    ASSERT_EQ(h.delivered.size(), sent.size());
    std::map<std::uint64_t, int> seen;
    for (const auto &[m, cyc] : h.delivered) {
        ++seen[m.token];
        auto it = sent.find(m.token);
        ASSERT_NE(it, sent.end());
        EXPECT_EQ(m.src, it->second.first);
        EXPECT_EQ(m.dst, it->second.second);
    }
    for (const auto &[tok, count] : seen)
        EXPECT_EQ(count, 1) << "token " << tok;
}

/** Property: latency is at least the hop distance. */
TEST(RingProperty, LatencyLowerBound)
{
    Harness h(9);
    Rng rng(9);
    std::map<std::uint64_t, Cycle> inject_cycle;
    std::map<std::uint64_t, unsigned> dist;
    std::uint64_t token = 1;
    for (Cycle c = 1; c < 1500; ++c) {
        if (rng.chance(0.2)) {
            const unsigned src = static_cast<unsigned>(rng.below(9));
            unsigned dst = static_cast<unsigned>(rng.below(9));
            if (dst == src)
                dst = (dst + 1) % 9;
            inject_cycle[token] = c;
            dist[token] = h.ring.distance(src, dst);
            h.ring.send(h.msg(src, dst, token), c);
            ++token;
        }
        h.ring.tick(c);
        h.now = c + 1;
    }
    h.run(h.now + 200);
    for (const auto &[m, cyc] : h.delivered)
        EXPECT_GE(cyc - inject_cycle[m.token], dist[m.token]);
}

// --------------------------------------------------------------------
// Reference model: the ring as a slot vector per direction that is
// copied and rotated every cycle. Ring rotates an offset instead; it
// must match the reference delivery for delivery and byte for byte.
// --------------------------------------------------------------------

/** Copy-and-rotate slotted ring with Ring's observable behaviour. */
class RefRing
{
  public:
    RefRing(unsigned stops, bool is_data)
        : stops_(stops), is_data_(is_data), cw_(stops), ccw_(stops),
          inject_q_(stops)
    {
    }

    void setDeliver(Ring::Deliver d) { deliver_ = std::move(d); }
    const RingStats &stats() const { return stats_; }

    void
    send(const RingMsg &msg, Cycle now)
    {
        RingMsg m = msg;
        m.injected = now;
        inject_q_[m.src].push_back(m);
        ++sent_total_;
        if (is_data_) {
            ++stats_.data_msgs;
            if (m.type == MsgType::kChainTransfer
                || m.type == MsgType::kLiveOut)
                ++stats_.data_emc_msgs;
        } else {
            ++stats_.control_msgs;
            if (m.type == MsgType::kLsqPopulate
                || m.type == MsgType::kEmcLlcQuery)
                ++stats_.control_emc_msgs;
        }
    }

    std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const auto &q : inject_q_)
            n += q.size();
        for (const auto *dir : {&cw_, &ccw_}) {
            for (const Slot &s : *dir)
                n += s.busy ? 1 : 0;
        }
        return n;
    }

    void
    tick(Cycle now)
    {
        advance(cw_, 1, now);
        advance(ccw_, stops_ - 1, now);
        inject();
    }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(cw_);
        ar.io(ccw_);
        ar.io(inject_q_);
        ar.io(stats_);
        ar.io(sent_total_);
        ar.io(delivered_total_);
    }

  private:
    struct Slot
    {
        bool busy = false;
        RingMsg msg;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(busy);
            ar.io(msg);
        }
    };

    void
    advance(std::vector<Slot> &slots, unsigned step, Cycle now)
    {
        // Move every busy slot on; the rest start over empty. An
        // ejected slot keeps its message until the next rotation.
        std::vector<Slot> next(stops_);
        for (unsigned i = 0; i < stops_; ++i) {
            if (slots[i].busy)
                next[(i + step) % stops_] = slots[i];
        }
        slots = std::move(next);
        for (unsigned i = 0; i < stops_; ++i) {
            Slot &s = slots[i];
            if (s.busy && s.msg.dst == i) {
                stats_.total_latency +=
                    static_cast<double>(now - s.msg.injected);
                ++stats_.delivered;
                ++delivered_total_;
                deliver_(s.msg);
                s.busy = false;
            }
        }
    }

    void
    inject()
    {
        for (unsigned stop = 0; stop < stops_; ++stop) {
            auto &q = inject_q_[stop];
            while (!q.empty()) {
                const RingMsg &m = q.front();
                const unsigned fwd = (m.dst + stops_ - stop) % stops_;
                const unsigned bwd = (stop + stops_ - m.dst) % stops_;
                Slot &primary = (fwd <= bwd ? cw_ : ccw_)[stop];
                Slot &secondary = (fwd <= bwd ? ccw_ : cw_)[stop];
                Slot *slot = !primary.busy ? &primary
                             : !secondary.busy && fwd == bwd ? &secondary
                                                             : nullptr;
                if (!slot) {
                    ++stats_.inject_stalls;
                    break;
                }
                slot->busy = true;
                slot->msg = m;
                q.pop_front();
            }
        }
    }

    unsigned stops_;
    bool is_data_;
    std::vector<Slot> cw_;   ///< cw_[i] is the slot at stop i
    std::vector<Slot> ccw_;
    std::vector<std::deque<RingMsg>> inject_q_;
    Ring::Deliver deliver_;
    RingStats stats_;
    std::uint64_t sent_total_ = 0;
    std::uint64_t delivered_total_ = 0;
};

template <class R>
std::vector<std::uint8_t>
image(R &ring)
{
    ckpt::Ar save = ckpt::Ar::saver();
    ring.ser(save);
    return save.takeBytes();
}

/**
 * Random traffic into a Ring and the reference: 500-cycle phases of
 * idle, light and bursty load (bursts stall injection), every message
 * type, and deliveries that answer at once by re-entering send() as
 * the System's dispatch does. The Ring is also restored from its own
 * image every 777 cycles, with messages in flight.
 */
void
crossCheckRing(unsigned stops, bool is_data, std::uint64_t seed)
{
    using Delivery = std::pair<std::uint64_t, Cycle>;  // token, cycle
    constexpr std::uint64_t kReply = 1ull << 40;
    Cycle now = 1;
    std::vector<Delivery> got, want;
    const auto reply = [&now](const RingMsg &m, auto &ring) {
        if ((m.token & kReply) == 0 && m.token % 3 == 0) {
            RingMsg r = m;
            r.src = m.dst;
            r.dst = m.src;
            r.token = m.token | kReply;
            ring.send(r, now);
        }
    };
    auto ring = std::make_unique<Ring>(stops, is_data);
    RefRing ref(stops, is_data);
    const auto hook = [&](Ring &r) {
        r.setDeliver([&](const RingMsg &m) {
            got.emplace_back(m.token, now);
            reply(m, r);
        });
    };
    hook(*ring);
    ref.setDeliver([&](const RingMsg &m) {
        want.emplace_back(m.token, now);
        reply(m, ref);
    });

    static constexpr MsgType kTypes[] = {
        MsgType::kMemRead,      MsgType::kLsqPopulate,
        MsgType::kEmcLlcQuery,  MsgType::kFillToCore,
        MsgType::kChainTransfer, MsgType::kLiveOut,
        MsgType::kEmcFillReply,  MsgType::kWriteback};
    Rng rng(seed);
    double rate = 0;
    std::uint64_t token = 1;
    std::uint64_t busy_cycles = 0;
    for (; now <= 6000; ++now) {
        if (now % 500 == 1)
            rate = std::vector<double>{0.0, 0.1, 0.6, 2.5}[rng.below(4)];
        const unsigned burst_stop = static_cast<unsigned>(rng.below(stops));
        for (double left = rate; rng.chance(std::min(left, 1.0));
             left -= 1.0) {
            RingMsg m;
            m.type = kTypes[rng.below(std::size(kTypes))];
            m.src = rng.chance(0.5) ? burst_stop
                                    : static_cast<unsigned>(rng.below(stops));
            m.dst = (m.src + 1 + static_cast<unsigned>(rng.below(stops - 1)))
                    % stops;
            m.token = token++;
            ring->send(m, now);
            ref.send(m, now);
        }
        busy_cycles += ring->pending() != 0;
        ring->tick(now);
        ref.tick(now);

        ASSERT_EQ(got, want) << "cycle " << now;
        ASSERT_EQ(ring->pending(), ref.pending()) << "cycle " << now;
        ASSERT_EQ(ring->stats().inject_stalls, ref.stats().inject_stalls)
            << "cycle " << now;
        // The image is written in stop order, ejected slots included.
        ASSERT_EQ(image(*ring), image(ref)) << "cycle " << now;

        if (now % 777 == 0) {
            const std::vector<std::uint8_t> bytes = image(*ring);
            auto restored = std::make_unique<Ring>(stops, is_data);
            ckpt::Ar load = ckpt::Ar::loader(bytes);
            restored->ser(load);
            ASSERT_TRUE(load.exhausted());
            hook(*restored);
            ring = std::move(restored);
        }
    }
    EXPECT_GT(ring->stats().delivered, 1000u);
    EXPECT_GT(ring->stats().inject_stalls, 100u);
    EXPECT_GT(busy_cycles, 1000u);
    EXPECT_LT(busy_cycles, 5500u);  // some cycles had nothing to move
}

TEST(RingReferenceModel, MatchesCopyAndRotateRing)
{
    std::uint64_t seed = 1;
    for (unsigned stops : {2u, 5u, 9u}) {
        for (bool is_data : {false, true}) {
            SCOPED_TRACE(std::to_string(stops) + " stops, "
                         + (is_data ? "data" : "control") + " ring");
            crossCheckRing(stops, is_data, seed++);
            if (HasFailure())
                return;
        }
    }
}

TEST(RingCkpt, ImageOfAnotherStopCountIsRejected)
{
    Ring five(5, false);
    const std::vector<std::uint8_t> bytes = image(five);
    Ring nine(9, false);
    ckpt::Ar load = ckpt::Ar::loader(bytes);
    EXPECT_THROW(nine.ser(load), ckpt::Error);
}

} // namespace
} // namespace emc
