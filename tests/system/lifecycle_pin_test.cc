/**
 * @file
 * The message-lifecycle trace of two 6x6 machines, pinned record by
 * record: every inject, hop, arrive, dispatch and done record's trace
 * id, stage, node, tick and message type, in the order the sink
 * received them, hashed with FNV-1a.
 *
 * MeshFuzz and MeshStormPinned pin counters, histograms and delivery
 * order; this pin also covers which router each hop record names and
 * the trace id each send draws, so a change to how the mesh moves a
 * message, or to the tie order of same-tick sends across nodes, shows
 * here even when every counter agrees.  The cases are an open-loop
 * incast on a serving-style server and closed-loop random traffic
 * with a hotspot.  The pins were recorded from the mesh whose router
 * queues held whole messages, before packets moved to a pool.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/trace.hh"
#include "fnv1a.hh"
#include "ni/model_registry.hh"
#include "system/system.hh"
#include "system/traffic.hh"

using namespace tcpni;

namespace
{

struct LifecyclePrint
{
    Tick ticks = 0;
    uint64_t records = 0;
    uint64_t hops = 0;
    uint64_t hash = 0;   //!< fnv1a over every record, in sink order
};

/** Run a 6x6 machine to quiescence with a lifecycle sink installed. */
LifecyclePrint
traceRun(const sys::NodeConfig &cfg, const sys::TrafficConfig &tc)
{
    constexpr unsigned side = 6, nodes = side * side;
    trace::disableAll();
    trace::TraceSink sink;
    trace::setSink(&sink);

    LifecyclePrint p;
    {
        sys::System machine("life", side, side,
                            std::vector<sys::NodeConfig>(nodes, cfg));
        std::vector<std::unique_ptr<sys::TrafficGen>> gens;
        for (NodeId n = 0; n < nodes; ++n)
            gens.push_back(
                std::make_unique<sys::TrafficGen>(machine, n, tc));
        for (auto &g : gens)
            g->start();
        EXPECT_TRUE(machine.run(5'000'000));
        p.ticks = machine.curTick();
    }
    trace::setSink(nullptr);

    EXPECT_EQ(sink.dropped(), 0u);
    std::ostringstream os;
    for (const trace::LifecycleEvent &e : sink.events()) {
        os << e.id << ' ' << trace::stageName(e.stage) << ' ' << e.node
           << ' ' << e.tick << ' ' << unsigned(e.type) << '\n';
        p.hops += e.stage == trace::Stage::hop;
    }
    p.records = sink.events().size();
    p.hash = fnv1a(os.str());
    return p;
}

TEST(MeshLifecyclePinned, IncastTrace)
{
    // Thirty-five open-loop Poisson clients converge on node 0, which
    // retires one message every 6 ticks under a 2-message window.
    sys::NodeConfig cfg;
    cfg.memBytes = 4096;
    cfg.ni = ni::paperModels()[0].config();
    cfg.ni.transport.policy = "window";
    cfg.ni.transport.window = 2;
    sys::TrafficConfig tc;
    tc.messages = 12;
    tc.meanGap = 40;
    tc.seed = 3;
    tc.openLoop = true;
    tc.arrival = sys::Arrival::poisson;
    tc.pattern = sys::Pattern::incast;
    tc.serviceTime = 6;

    const LifecyclePrint p = traceRun(cfg, tc);
    EXPECT_EQ(p.ticks, 2527u);
    EXPECT_EQ(p.records, 3840u);
    EXPECT_EQ(p.hops, 2160u);
    EXPECT_EQ(p.hash, 0xaa7724ac7a22c80aULL);
}

TEST(MeshLifecyclePinned, RandomTrafficTrace)
{
    // Closed-loop uniform traffic with 20% aimed at node 0 and small
    // NI queues: backpressure trees form around the hotspot.
    sys::NodeConfig cfg;
    cfg.memBytes = 4096;
    cfg.ni.inputQueueDepth = 4;
    cfg.ni.outputQueueDepth = 4;
    cfg.ni.inputThreshold = 3;
    cfg.ni.outputThreshold = 3;
    sys::TrafficConfig tc;
    tc.messages = 20;
    tc.meanGap = 5;
    tc.hotspotPermille = 200;
    tc.seed = 9;

    const LifecyclePrint p = traceRun(cfg, tc);
    EXPECT_EQ(p.ticks, 160u);
    EXPECT_EQ(p.records, 5831u);
    EXPECT_EQ(p.hops, 2951u);
    EXPECT_EQ(p.hash, 0xccb2af5a2a950b55ULL);
}

} // namespace
