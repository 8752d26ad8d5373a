#include "dram/dram_channel.hh"

#include <algorithm>

#include "common/log.hh"

namespace emc
{

const char *
reqOriginName(ReqOrigin o)
{
    switch (o) {
      case ReqOrigin::kCoreDemand: return "core";
      case ReqOrigin::kEmcDemand: return "emc";
      case ReqOrigin::kPrefetch: return "prefetch";
      case ReqOrigin::kWriteback: return "writeback";
    }
    return "?";
}

DramCoord
mapAddress(Addr paddr, const DramGeometry &geo)
{
    std::uint64_t line = lineNum(paddr);
    DramCoord c;
    c.channel = static_cast<unsigned>(line % geo.channels);
    line /= geo.channels;
    c.bank = static_cast<unsigned>(line % geo.banks_per_rank);
    line /= geo.banks_per_rank;
    const unsigned cols = geo.linesPerRow();
    c.column = static_cast<unsigned>(line % cols);
    line /= cols;
    c.rank = static_cast<unsigned>(line % geo.ranks_per_channel);
    line /= geo.ranks_per_channel;
    c.row = line;
    return c;
}

DramChannel::DramChannel(const DramGeometry &geo, const DramTiming &timing,
                         SchedPolicy policy, std::size_t queue_limit,
                         unsigned num_cores)
    : geo_(geo), t_(timing), policy_(policy), queue_limit_(queue_limit),
      num_cores_(num_cores),
      banks_(geo.ranks_per_channel * geo.banks_per_rank),
      next_refresh_(timing.tREFI),
      thread_rank_(num_cores, 0)
{
    emc_assert(queue_limit_ > 0, "DRAM queue limit must be positive");
}

const Bank &
DramChannel::bank(unsigned rank, unsigned b) const
{
    return banks_.at(rank * geo_.banks_per_rank + b);
}

void
DramChannel::decode(Queued &qe) const
{
    const DramCoord c = mapAddress(qe.req.paddr, geo_);
    qe.bank = c.rank * geo_.banks_per_rank + c.bank;
    qe.row = c.row;
}

void
DramChannel::checkConsistent(
    const std::function<void(const std::string &)> &fail) const
{
    for (const auto *q : {&read_q_, &write_q_}) {
        for (const Queued &qe : *q) {
            Queued fresh = qe;
            decode(fresh);
            if (qe.bank != fresh.bank || qe.row != fresh.row) {
                fail("queued request " + std::to_string(qe.req.id)
                     + " caches bank " + std::to_string(qe.bank)
                     + " row " + std::to_string(qe.row)
                     + " but its address maps elsewhere");
            }
        }
    }
}

bool
DramChannel::enqueue(const MemRequest &req, Cycle now)
{
    Queued qe;
    qe.req = req;
    qe.req.cycle_mc_enqueue = now;
    decode(qe);
    if (req.is_write) {
        // Writes are buffered and drained lazily; the write queue is
        // effectively unbounded relative to the workload's needs but a
        // high watermark forces drains before it grows without bound.
        write_q_.push_back(qe);
        ++accepted_writes_;
        return true;
    }
    if (read_q_.size() >= queue_limit_)
        return false;
    read_q_.push_back(qe);
    ++accepted_reads_;
    return true;
}

void
DramChannel::maybeRefresh(Cycle now)
{
    if (now < next_refresh_)
        return;
    next_refresh_ += t_.tREFI;
    ++stats_.refreshes;
    for (auto &b : banks_)
        b.refresh(now, t_);
}

void
DramChannel::formBatch()
{
    // PAR-BS: when no marked requests remain, mark up to the marking
    // cap oldest requests per (thread, bank) and rank threads by their
    // total marked load (shortest job first).
    constexpr unsigned kMarkingCap = 5;
    marked_remaining_ = 0;

    // counts[core][bank] of marked requests.
    std::vector<std::vector<unsigned>> counts(
        num_cores_, std::vector<unsigned>(banks_.size(), 0));
    for (auto &qe : read_q_) {
        const CoreId core = qe.req.core % num_cores_;
        if (counts[core][qe.bank] < kMarkingCap) {
            qe.marked = true;
            ++counts[core][qe.bank];
            ++marked_remaining_;
        } else {
            qe.marked = false;
        }
    }

    // Thread ranking: max-bank-load primary, total secondary.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> load(num_cores_);
    for (unsigned core = 0; core < num_cores_; ++core) {
        std::uint64_t mx = 0, tot = 0;
        for (unsigned b = 0; b < banks_.size(); ++b) {
            mx = std::max<std::uint64_t>(mx, counts[core][b]);
            tot += counts[core][b];
        }
        load[core] = {mx, tot};
    }
    std::vector<unsigned> order(num_cores_);
    for (unsigned i = 0; i < num_cores_; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) {
                         return load[a] < load[b];
                     });
    for (unsigned pos = 0; pos < num_cores_; ++pos)
        thread_rank_[order[pos]] = pos;
}

int
DramChannel::pickFrFcfs(const std::deque<Queued> &q, Cycle now) const
{
    int best = -1;
    bool best_hit = false;
    for (std::size_t i = 0; i < q.size(); ++i) {
        const Bank &b = banks_[q[i].bank];
        if (b.readyCycle() > now)
            continue;
        const bool hit = b.classify(q[i].row) == RowOutcome::kHit;
        if (best < 0 || (hit && !best_hit)) {
            best = static_cast<int>(i);
            best_hit = hit;
            if (hit)
                break;  // oldest row hit wins
        }
    }
    return best;
}

int
DramChannel::pickBatch(Cycle now)
{
    if (marked_remaining_ == 0 && !read_q_.empty())
        formBatch();

    // Priority: marked > row-hit > thread rank > age; the first of
    // equals (lowest index) wins. Each candidate is classified once
    // and compared against the cached key of the best so far.
    int best = -1;
    bool best_marked = false;
    bool best_hit = false;
    std::uint64_t best_rank = 0;
    Cycle best_age = 0;
    for (std::size_t i = 0; i < read_q_.size(); ++i) {
        const Queued &qe = read_q_[i];
        const Bank &b = banks_[qe.bank];
        if (b.readyCycle() > now)
            continue;
        const bool hit = b.classify(qe.row) == RowOutcome::kHit;
        const std::uint64_t rank = thread_rank_[qe.req.core % num_cores_];
        const Cycle age = qe.req.cycle_mc_enqueue;
        bool better;
        if (best < 0)
            better = true;
        else if (qe.marked != best_marked)
            better = qe.marked;
        else if (hit != best_hit)
            better = hit;
        else if (rank != best_rank)
            better = rank < best_rank;
        else
            better = age < best_age;
        if (better) {
            best = static_cast<int>(i);
            best_marked = qe.marked;
            best_hit = hit;
            best_rank = rank;
            best_age = age;
        }
    }
    return best;
}

void
DramChannel::applyActConstraints(unsigned rank, Cycle act_cycle)
{
    // tRRD between activates in the same rank; tFAW over four.
    for (unsigned b = 0; b < geo_.banks_per_rank; ++b) {
        auto &bank = banks_[rank * geo_.banks_per_rank + b];
        bank.blockActivateUntil(act_cycle + t_.tRRD);
    }
}

void
DramChannel::issue(Queued &qe, Cycle now, bool is_write)
{
    MemRequest &req = qe.req;
    Bank &bank = banks_[qe.bank];

    RowOutcome outcome;
    Cycle data_start = bank.access(qe.row, now, t_, is_write, outcome);
    data_start = std::max(data_start, bus_free_);
    const Cycle data_done = data_start + t_.tBurst;
    bus_free_ = data_done;
    stats_.busy_bus_cycles += t_.tBurst;

    if (outcome != RowOutcome::kHit) {
        applyActConstraints(qe.bank / geo_.banks_per_rank,
                            bank.lastActivate());
        EMC_OBS_POINT(tracer_, obs::TracePoint::kRowAct, now, req.id,
                      obs::Track::bank(trace_bank_base_ + qe.bank),
                      qe.row);
    }

    req.cycle_dram_issue = now;
    req.cycle_dram_data = data_done;
    req.outcome = outcome;

    switch (outcome) {
      case RowOutcome::kHit: ++stats_.row_hits; break;
      case RowOutcome::kEmpty: ++stats_.row_empty; break;
      case RowOutcome::kConflict: ++stats_.row_conflicts; break;
    }

    if (is_write) {
        ++stats_.writes;
        ++issued_writes_;
    } else {
        ++stats_.reads;
        stats_.total_queue_wait +=
            static_cast<double>(now - req.cycle_mc_enqueue);
        stats_.total_service += static_cast<double>(data_done - now);
        ++stats_.read_samples;
        in_flight_.push_back(req);
    }
}

void
DramChannel::tick(Cycle now)
{
    maybeRefresh(now);

    // Deliver finished reads.
    for (std::size_t i = 0; i < in_flight_.size();) {
        if (in_flight_[i].cycle_dram_data <= now) {
            ++completed_reads_;
            if (callback_)
                callback_(in_flight_[i]);
            in_flight_[i] = in_flight_.back();
            in_flight_.pop_back();
        } else {
            ++i;
        }
    }

    // Write drain policy: drain when the write queue is deep or there
    // is nothing else to do.
    constexpr std::size_t kWriteHigh = 32;
    constexpr std::size_t kWriteLow = 8;
    if (draining_writes_ && write_q_.size() <= kWriteLow)
        draining_writes_ = false;
    if (!draining_writes_ && write_q_.size() >= kWriteHigh)
        draining_writes_ = true;

    const bool do_write =
        (draining_writes_ || read_q_.empty()) && !write_q_.empty();

    if (do_write) {
        const int idx = pickFrFcfs(write_q_, now);
        if (idx >= 0) {
            issue(write_q_[idx], now, true);
            write_q_.erase(write_q_.begin() + idx);
            return;
        }
    }

    if (!read_q_.empty()) {
        const int idx = policy_ == SchedPolicy::kFrFcfs
                            ? pickFrFcfs(read_q_, now)
                            : pickBatch(now);
        if (idx >= 0) {
            if (read_q_[idx].marked && marked_remaining_ > 0)
                --marked_remaining_;
            issue(read_q_[idx], now, false);
            read_q_.erase(read_q_.begin() + idx);
        }
    }
}

} // namespace emc
