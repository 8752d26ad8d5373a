#include "ring/ring.hh"

#include <bit>

namespace emc
{

Ring::Ring(unsigned stops, bool is_data)
    : stops_(stops), is_data_(is_data), inject_q_(stops)
{
    emc_assert(stops >= 2, "ring needs at least two stops");
    emc_assert(stops <= 64, "ring stops must fit Direction::stale");
    cw_.slots.resize(stops);
    cw_.step = 1;
    ccw_.slots.resize(stops);
    ccw_.step = -1;
}

void
Ring::send(const RingMsg &msg, Cycle now)
{
    emc_assert(msg.src < stops_ && msg.dst < stops_, "bad ring stop");
    emc_assert(msg.src != msg.dst,
               "same-stop messages bypass the ring (1-cycle local path)");
    RingMsg m = msg;
    m.injected = now;
    inject_q_[m.src].push_back(m);
    ++sent_total_;
    if (is_data_) {
        ++stats_.data_msgs;
        if (m.type == MsgType::kChainTransfer || m.type == MsgType::kLiveOut)
            ++stats_.data_emc_msgs;
    } else {
        ++stats_.control_msgs;
        if (m.type == MsgType::kLsqPopulate || m.type == MsgType::kEmcLlcQuery)
            ++stats_.control_emc_msgs;
    }
}

std::size_t
Ring::pending() const
{
    std::size_t n = cw_.busy + ccw_.busy;
    for (const auto &q : inject_q_)
        n += q.size();
    return n;
}

void
Ring::advance(Direction &dir, Cycle now)
{
    for (std::uint64_t m = dir.stale; m != 0; m &= m - 1) {
        Slot &s = dir.slots[std::countr_zero(m)];
        if (!s.busy)
            s.msg = RingMsg{};
    }
    dir.stale = 0;
    if (dir.busy == 0)
        return;  // an empty direction looks the same after rotating

    // Rotate slot contents by one stop, then eject arrivals in stop
    // order.
    dir.base = (dir.base + stops_ - dir.step) % stops_;
    const unsigned busy = dir.busy;
    unsigned seen = 0;
    for (unsigned i = 0; i < stops_ && seen < busy; ++i) {
        Slot &s = slotAt(dir, i);
        if (!s.busy)
            continue;
        ++seen;
        if (s.msg.dst != i)
            continue;
        stats_.total_latency += static_cast<double>(now - s.msg.injected);
        ++stats_.delivered;
        ++delivered_total_;
        switch (s.msg.type) {
          case MsgType::kChainTransfer:
          case MsgType::kLiveOut:
          case MsgType::kEmcFillReply:
          case MsgType::kLsqPopulate:
          case MsgType::kEmcLlcQuery:
            EMC_OBS_POINT(tracer_, obs::TracePoint::kRingMsg, now,
                          s.msg.token, obs::Track::ring(is_data_),
                          s.msg.token);
            break;
          default:
            break;
        }
        if (deliver_)
            deliver_(s.msg);
        s.busy = false;
        --dir.busy;
        dir.stale |= std::uint64_t{1} << (&s - dir.slots.data());
    }
}

void
Ring::inject(Cycle now)
{
    for (unsigned stop = 0; stop < stops_; ++stop) {
        auto &q = inject_q_[stop];
        while (!q.empty()) {
            RingMsg &m = q.front();
            // Choose the shorter direction; tie goes clockwise.
            const unsigned fwd = (m.dst + stops_ - stop) % stops_;
            const unsigned bwd = (stop + stops_ - m.dst) % stops_;
            Direction &primary = fwd <= bwd ? cw_ : ccw_;
            Direction &secondary = fwd <= bwd ? ccw_ : cw_;
            Direction *dir = nullptr;
            if (!slotAt(primary, stop).busy)
                dir = &primary;
            else if (fwd == bwd && !slotAt(secondary, stop).busy)
                dir = &secondary;
            if (!dir) {
                ++stats_.inject_stalls;
                break;  // head-of-line blocks this stop this cycle
            }
            Slot &s = slotAt(*dir, stop);
            s.busy = true;
            s.msg = m;
            ++dir->busy;
            q.pop_front();
        }
    }
}

void
Ring::tick(Cycle now)
{
    advance(cw_, now);
    advance(ccw_, now);
    inject(now);
}

} // namespace emc
