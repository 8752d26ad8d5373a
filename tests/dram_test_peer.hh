/**
 * @file
 * Test access to a DramChannel's scheduler state and wake cycle,
 * shared by the DRAM cross-checks and the invariant-checker tests.
 */

#ifndef EMC_TESTS_DRAM_TEST_PEER_HH
#define EMC_TESTS_DRAM_TEST_PEER_HH

#include <cstdint>
#include <deque>
#include <vector>

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

    /** The host-only wake cycle (see DramChannel::wakeCycle()). */
    static Cycle &wake(DramChannel &c) { return c.wake_; }

    static int
    pickFrFcfs(const DramChannel &c, bool writes, Cycle now)
    {
        return c.pickFrFcfs(writes ? c.write_q_ : c.read_q_, now);
    }

    static int pickBatch(DramChannel &c, Cycle now) { return c.pickBatch(now); }
};

} // namespace emc

#endif // EMC_TESTS_DRAM_TEST_PEER_HH
