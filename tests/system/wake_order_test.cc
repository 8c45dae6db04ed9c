/**
 * @file
 * Tie order of a woken sender against its node's own arrivals.
 *
 * An open-loop generator's ArrivalEvent fires before its send at the
 * same tick: in a machine where a stalled send retried every tick,
 * the retry was always scheduled after the arrival it shared a tick
 * with.  A paced hold wakes the sleeping sender with a timed event
 * armed at hold time, which can be older than an arrival for the same
 * tick; the generator re-queues such a wake behind the arrival, and no
 * arrival wakes a sleeping sender.
 *
 * The case below is a 2x2 open-loop Poisson machine whose paced
 * senders hold for most of the run, so their wake ticks land on
 * arrival ticks many times over.  Its results were recorded from the
 * machine whose stalled senders retried every tick.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/histogram.hh"
#include "system/system.hh"
#include "system/traffic.hh"

using namespace tcpni;

namespace
{

TEST(WakeTieOrder, PacedOpenLoopWakesOnArrivalTicks)
{
    sys::NodeConfig cfg;
    cfg.memBytes = 4096;
    cfg.ni.transport.policy = "paced";
    cfg.ni.transport.paceRate = 100;
    cfg.ni.transport.paceBurst = 1;
    sys::System machine("tie", 2, 2, cfg);

    sys::TrafficConfig tc;
    tc.messages = 20;
    tc.meanGap = 6;
    tc.seed = 1;
    tc.openLoop = true;
    tc.arrival = sys::Arrival::poisson;
    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    for (NodeId n = 0; n < 4; ++n)
        gens.push_back(
            std::make_unique<sys::TrafficGen>(machine, n, tc));
    for (auto &g : gens)
        g->start();
    ASSERT_TRUE(machine.run(1'000'000));

    metrics::Histogram sojourn;
    uint64_t sent = 0, drained = 0, stalls = 0;
    int64_t holds = 0;
    for (NodeId n = 0; n < 4; ++n) {
        sojourn.merge(gens[n]->sojourn());
        sent += gens[n]->sent();
        drained += gens[n]->drained();
        stalls += gens[n]->stallRetries();
        holds += machine.node(n).transportPolicy()->holds();
    }
    std::ostringstream buckets;
    const std::vector<uint64_t> &b = sojourn.buckets();
    for (size_t i = 0; i < b.size(); ++i)
        if (b[i])
            buckets << i << ":" << b[i] << " ";

    EXPECT_EQ(machine.curTick(), 220u);
    EXPECT_EQ(sent, 80u);
    EXPECT_EQ(drained, 80u);
    EXPECT_EQ(stalls, 739u);
    EXPECT_EQ(holds, 739);
    EXPECT_EQ(sojourn.count(), 80u);
    EXPECT_EQ(sojourn.sum(), 4951u);
    EXPECT_EQ(sojourn.min(), 3u);
    EXPECT_EQ(sojourn.max(), 124u);
    EXPECT_EQ(sojourn.percentile(0.50), 67u);
    EXPECT_EQ(sojourn.percentile(0.99), 124u);
    EXPECT_EQ(buckets.str(),
              "3:2 4:2 5:1 7:1 8:1 12:1 14:2 15:1 18:1 20:2 23:1 25:2 "
              "30:3 32:1 33:1 37:2 38:1 39:1 42:1 44:1 47:1 48:1 53:2 "
              "54:1 55:1 57:1 59:1 62:2 64:1 65:1 66:2 67:2 68:2 69:1 "
              "70:1 71:2 72:2 73:1 75:3 76:2 77:2 78:3 79:2 80:1 81:1 "
              "82:3 83:2 84:1 85:2 88:1 89:2 90:1 94:1 ");
}

} // namespace
