/**
 * @file
 * Event budgets for the send and injection paths.
 *
 * A stalled sender sleeps until its NI wakes it, and a refused NI
 * pump sleeps until the mesh frees an injection slot, so neither
 * costs an event per stalled cycle.  These tests count the events of
 * each class with the event kernel's self-profile (evprof, keyed by
 * Event::name(), the same attribution perfbench reports) on congested
 * runs: an open-loop 4x4 incast under each transport policy and a
 * closed-loop 16x16 hotspot.  A message may cost one failed attempt
 * and the attempt that succeeds, never more on average.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ni/model_registry.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "system/traffic.hh"

using namespace tcpni;

namespace
{

struct Budget
{
    uint64_t sent = 0;       //!< messages the generators sent
    uint64_t injected = 0;   //!< messages the mesh accepted
    uint64_t sends = 0;      //!< traffic-send events
    uint64_t pumps = 0;      //!< ni-pump events
    uint64_t stalls = 0;     //!< stalled send attempts, skipped included
};

/** Run one machine with evprof on and count its send/pump events. */
Budget
measure(unsigned side, const sys::NodeConfig &cfg,
        const sys::TrafficConfig &tc)
{
    evprof::setEnabled(true);
    evprof::take();
    const unsigned nodes = side * side;
    Budget b;
    {
        sys::System machine("budget", side, side,
                            std::vector<sys::NodeConfig>(nodes, cfg));
        std::vector<std::unique_ptr<sys::TrafficGen>> gens;
        for (NodeId n = 0; n < nodes; ++n)
            gens.push_back(
                std::make_unique<sys::TrafficGen>(machine, n, tc));
        for (auto &g : gens)
            g->start();
        EXPECT_TRUE(machine.run(50'000'000));
        for (auto &g : gens) {
            b.sent += g->sent();
            b.stalls += g->stallRetries();
            EXPECT_EQ(g->sent(), g->arrivals());
        }
        b.injected = machine.mesh().injected();
    }
    evprof::setEnabled(false);
    const evprof::Profile prof = evprof::take();
    auto count = [&](const char *name) {
        auto it = prof.find(name);
        return it == prof.end() ? uint64_t(0) : it->second.count;
    };
    b.sends = count("traffic-send");
    b.pumps = count("ni-pump");
    return b;
}

void
expectWithinBudget(const Budget &b)
{
    ASSERT_GT(b.sent, 0u);
    EXPECT_EQ(b.injected, b.sent);
    EXPECT_LE(b.sends, 2 * b.sent)
        << b.sends << " traffic-send events for " << b.sent
        << " messages (" << b.stalls << " stalled attempts)";
    EXPECT_LE(b.pumps, 2 * b.injected)
        << b.pumps << " ni-pump events for " << b.injected
        << " injected messages";
}

class EventBudgetIncast : public ::testing::TestWithParam<const char *>
{};

TEST_P(EventBudgetIncast, SendsAndPumpsPerMessage)
{
    // The serving harness's incast shape, scaled down: fifteen
    // open-loop Poisson clients converge on a server that retires one
    // message every 8 ticks, offered well above its capacity.
    sys::NodeConfig cfg;
    cfg.memBytes = 4096;
    cfg.ni = ni::paperModels()[0].config();
    cfg.ni.transport.policy = GetParam();
    cfg.ni.transport.window = 2;
    sys::TrafficConfig tc;
    tc.messages = 24;
    tc.meanGap = 60;
    tc.seed = 5;
    tc.openLoop = true;
    tc.arrival = sys::Arrival::poisson;
    tc.pattern = sys::Pattern::incast;
    tc.serviceTime = 8;
    expectWithinBudget(measure(4, cfg, tc));
}

INSTANTIATE_TEST_SUITE_P(Policies, EventBudgetIncast,
                         ::testing::Values("naive", "window", "paced"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(EventBudget, HotspotSendsAndPumpsPerMessage)
{
    // The mesh_hotspot shape on a 16x16 mesh, hotter: 30% of all
    // traffic aimed at node 0 backs the mesh up around it, so
    // injections are refused for long stretches.
    sys::NodeConfig cfg;
    cfg.memBytes = 4096;
    cfg.ni.inputQueueDepth = 8;
    cfg.ni.outputQueueDepth = 8;
    cfg.ni.inputThreshold = 6;
    cfg.ni.outputThreshold = 6;
    sys::TrafficConfig tc;
    tc.messages = 16;
    tc.meanGap = 20;
    tc.hotspotPermille = 300;
    tc.seed = 5;
    expectWithinBudget(measure(16, cfg, tc));
}

} // namespace
