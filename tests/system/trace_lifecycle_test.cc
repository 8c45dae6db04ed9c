/**
 * @file
 * End-to-end message-lifecycle tracing over a real mesh: a pingpong
 * between the two nodes of a 2x1 mesh must produce a complete
 * inject -> hop -> arrive -> dispatch -> done record whose timing
 * matches the configured mesh latencies (1 cycle NI pump, 1 cycle per
 * hop, 1 cycle ejection).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "common/trace.hh"
#include "metrics/metrics.hh"
#include "ni/network_interface.hh"
#include "noc/mesh.hh"

using namespace tcpni;
using namespace tcpni::trace;

namespace
{

class LifecycleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        disableAll();
        setSink(&sink_);
    }

    void
    TearDown() override
    {
        setSink(nullptr);
        disableAll();
    }

    /** The inject events recorded so far, in order. */
    std::vector<LifecycleEvent>
    stage(Stage s) const
    {
        std::vector<LifecycleEvent> out;
        for (const LifecycleEvent &e : sink_.events())
            if (e.stage == s)
                out.push_back(e);
        return out;
    }

    TraceSink sink_;
};

/** Send one 1-word message src -> dst over the mesh, run the queue to
 *  completion, and consume the arrival with NEXT. */
void
sendAndConsume(EventQueue &eq, ni::NetworkInterface &src,
               ni::NetworkInterface &dst, NodeId dst_id)
{
    src.writeReg(ni::regO0, globalWord(dst_id, 0x100));
    src.writeReg(ni::regO1, 0xabcd);
    isa::NiCommand send;
    send.mode = isa::SendMode::send;
    send.type = 2;
    src.command(send);
    eq.run();

    isa::NiCommand next;
    next.next = true;
    dst.command(next);
}

TEST_F(LifecycleTest, PingpongLatencyMatchesMeshTiming)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1);
    ni::NiConfig cfg;
    ni::NetworkInterface ni0("node0.ni", eq, 0, mesh, cfg);
    ni::NetworkInterface ni1("node1.ni", eq, 1, mesh, cfg);

    // Ping: node 0 -> node 1.
    sendAndConsume(eq, ni0, ni1, 1);

    auto injects = stage(Stage::inject);
    auto hops = stage(Stage::hop);
    auto arrives = stage(Stage::arrive);
    auto dispatches = stage(Stage::dispatch);
    auto dones = stage(Stage::done);
    ASSERT_EQ(injects.size(), 1u);
    ASSERT_EQ(arrives.size(), 1u);
    ASSERT_EQ(dispatches.size(), 1u);
    ASSERT_EQ(dones.size(), 1u);

    uint64_t id = injects[0].id;
    EXPECT_GT(id, 0u);
    EXPECT_EQ(arrives[0].id, id);
    EXPECT_EQ(dispatches[0].id, id);
    EXPECT_EQ(dones[0].id, id);

    // One hop: nodes 0 and 1 are Manhattan distance 1 apart.
    ASSERT_EQ(hops.size(), 1u);
    EXPECT_EQ(hops[0].id, id);
    EXPECT_EQ(hops[0].node, 1u);

    // Timing: 1 cycle NI pump to enter the fabric, 1 cycle per hop,
    // 1 cycle to eject into the destination input queue; dispatch
    // happens the cycle the message reaches the head of the queue.
    Tick inject_tick = injects[0].tick;
    Tick dispatch_tick = dispatches[0].tick;
    EXPECT_EQ(dispatch_tick - inject_tick,
              static_cast<Tick>(1 + hops.size() + 1));

    // Stage ordering is strictly causal.
    EXPECT_LT(inject_tick, hops[0].tick);
    EXPECT_LE(hops[0].tick, arrives[0].tick);
    EXPECT_LE(arrives[0].tick, dispatch_tick);
    EXPECT_LE(dispatch_tick, dones[0].tick);

    // The whole round trip shows up as one complete lifecycle.
    EXPECT_EQ(sink_.completeLifecycles(), 1u);

    // Pong: node 1 -> node 0 behaves symmetrically.
    sink_.clear();
    sendAndConsume(eq, ni1, ni0, 0);
    auto pong_injects = stage(Stage::inject);
    auto pong_dispatches = stage(Stage::dispatch);
    ASSERT_EQ(pong_injects.size(), 1u);
    ASSERT_EQ(pong_dispatches.size(), 1u);
    EXPECT_EQ(pong_dispatches[0].id, pong_injects[0].id);
    EXPECT_EQ(stage(Stage::hop).size(), 1u);
    EXPECT_EQ(pong_dispatches[0].tick - pong_injects[0].tick,
              static_cast<Tick>(3));
    EXPECT_EQ(sink_.completeLifecycles(), 1u);
}

TEST_F(LifecycleTest, LatencyStatsMatchLifecycle)
{
    // The NIs record their latency histograms only into an installed
    // registry; it finalizes after they are gone.
    metrics::Registry reg(0);
    metrics::setRegistry(&reg);
    {
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 2, 1);
        ni::NiConfig cfg;
        ni::NetworkInterface ni0("node0.ni", eq, 0, mesh, cfg);
        ni::NetworkInterface ni1("node1.ni", eq, 1, mesh, cfg);

        sendAndConsume(eq, ni0, ni1, 1);

        // Exact occupancy integrals (messages x ticks): the message
        // sat one tick in node 0's output queue before the pump
        // injected it, and advanced into node 1's input registers the
        // tick it arrived.
        EXPECT_EQ(ni0.outputOccTicks(), 1u);
        EXPECT_EQ(ni1.inputOccTicks(), 0u);
    }
    metrics::setRegistry(nullptr);
    const metrics::TaskMetrics tm = reg.finalize("t");

    std::map<std::string, metrics::Histogram> node1;
    for (const auto &g : tm.groups) {
        if (g.name != "node1.ni")
            continue;
        for (const auto &series : g.series)
            if (series.kind == metrics::Kind::histogram)
                node1[series.name] = series.hist;
    }
    const metrics::Histogram &e2e = node1["e2e_latency"];
    const metrics::Histogram &net = node1["net_latency"];
    const metrics::Histogram &queue = node1["queue_latency"];

    // The NI's end-to-end latency distribution must agree with the
    // lifecycle record: one sample of inject -> dispatch cycles.
    EXPECT_EQ(e2e.count(), 1u);
    EXPECT_DOUBLE_EQ(e2e.mean(), 3.0);
    EXPECT_EQ(net.count(), 1u);
    EXPECT_EQ(queue.count(), 1u);
    // net + queued = end-to-end.
    EXPECT_DOUBLE_EQ(net.mean() + queue.mean(), e2e.mean());
}

/** Every "dur" value of a Chrome trace, as the unsigned number it
 *  was printed as. */
std::vector<uint64_t>
durations(const std::string &json)
{
    std::vector<uint64_t> out;
    const std::string key = "\"dur\":";
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1))
        out.push_back(std::stoull(json.substr(at + key.size())));
    return out;
}

TEST_F(LifecycleTest, SlicesNeverPairAcrossMachines)
{
    // Trace ids restart with every EventQueue, the way a sweep builds
    // one machine after another: machine A injects its id 1 at tick
    // 10, machine B receives its own id 1 straight off the wire at
    // tick 0.  Pairing A's inject with B's arrival would print a
    // negative (wrapped) network slice.
    Tick run_ticks = 0;
    {
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 2, 1);
        ni::NiConfig cfg;
        ni::NetworkInterface ni0("node0.ni", eq, 0, mesh, cfg);
        ni::NetworkInterface ni1("node1.ni", eq, 1, mesh, cfg);
        LambdaEvent idle([] {});
        eq.schedule(&idle, 10);
        eq.run();
        sendAndConsume(eq, ni0, ni1, 1);
        run_ticks = std::max(run_ticks, eq.curTick());
    }
    {
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 2, 1);
        ni::NiConfig cfg;
        ni::NetworkInterface ni1("node1.ni", eq, 1, mesh, cfg);
        Message m;
        m.words[0] = globalWord(1, 0x100);
        m.type = 2;
        m.setDestFromWord0();
        ASSERT_TRUE(ni1.acceptFromNetwork(m));
        eq.run();
        isa::NiCommand next;
        next.next = true;
        ni1.command(next);
        run_ticks = std::max(run_ticks, eq.curTick());
    }
    EXPECT_EQ(sink_.completeLifecycles(), 2u);

    std::ostringstream os;
    sink_.writeChromeTrace(os);
    const std::vector<uint64_t> durs = durations(os.str());
    ASSERT_FALSE(durs.empty());
    for (uint64_t d : durs)
        EXPECT_LE(d, run_ticks);   // unsigned: a negative one wraps
    // One process per machine.
    EXPECT_NE(os.str().find("\"pid\":1"), std::string::npos);
}

} // namespace
