#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "noc/mesh.hh"

using namespace tcpni;

namespace
{

Message
makeMsg(NodeId dst, Word tag = 0)
{
    Message m;
    m.words[0] = globalWord(dst, tag);
    m.words[1] = tag;
    m.setDestFromWord0();
    return m;
}

struct Collector
{
    std::vector<Message> got;
    bool accept = true;

    MessageSink
    sink()
    {
        return [this](const Message &m) {
            if (!accept)
                return false;
            got.push_back(m);
            return true;
        };
    }
};

} // namespace

TEST(MeshRouting, XYRoute)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 4);
    using P = MeshNetwork::Port;
    // node 5 is at (1,1)
    EXPECT_EQ(mesh.route(5, 5), P::local);
    EXPECT_EQ(mesh.route(5, 6), P::east);
    EXPECT_EQ(mesh.route(5, 4), P::west);
    EXPECT_EQ(mesh.route(5, 1), P::north);
    EXPECT_EQ(mesh.route(5, 9), P::south);
    // X is corrected before Y: 5 -> 10 (2,2) goes east first.
    EXPECT_EQ(mesh.route(5, 10), P::east);
    EXPECT_EQ(mesh.route(5, 8), P::west);
}

TEST(MeshDelivery, SingleHop)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1);
    Collector c0, c1;
    mesh.setSink(0, c0.sink());
    mesh.setSink(1, c1.sink());

    EXPECT_TRUE(mesh.offer(0, makeMsg(1, 42)));
    eq.run();
    ASSERT_EQ(c1.got.size(), 1u);
    EXPECT_EQ(c1.got[0].words[1], 42u);
    EXPECT_TRUE(mesh.idle());
}

TEST(MeshDelivery, ToSelf)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 2);
    Collector c;
    mesh.setSink(0, c.sink());
    mesh.setSink(1, [](const Message &) { return true; });
    mesh.setSink(2, [](const Message &) { return true; });
    mesh.setSink(3, [](const Message &) { return true; });
    mesh.offer(0, makeMsg(0, 9));
    eq.run();
    ASSERT_EQ(c.got.size(), 1u);
}

TEST(MeshDelivery, CornerToCorner)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 4);
    std::vector<Collector> cs(16);
    for (NodeId n = 0; n < 16; ++n)
        mesh.setSink(n, cs[n].sink());

    mesh.offer(0, makeMsg(15, 1));
    eq.run();
    ASSERT_EQ(cs[15].got.size(), 1u);
    // 6 hops plus injection/ejection: latency is bounded and > hops.
    EXPECT_GE(eq.curTick(), 6u);
    EXPECT_LE(eq.curTick(), 16u);
}

TEST(MeshDelivery, AllPairs)
{
    EventQueue eq;
    const unsigned w = 3, h = 3, n = w * h;
    MeshNetwork mesh("mesh", eq, w, h);
    std::vector<Collector> cs(n);
    for (NodeId i = 0; i < n; ++i)
        mesh.setSink(i, cs[i].sink());

    unsigned sent = 0;
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            ASSERT_TRUE(mesh.offer(s, makeMsg(d, s * 100 + d)));
            ++sent;
            eq.run();    // drain between offers: injection queue is
                         // finite
        }
    }
    unsigned got = 0;
    for (NodeId d = 0; d < n; ++d)
        got += cs[d].got.size();
    EXPECT_EQ(got, sent);
}

TEST(MeshOrdering, SameSrcDstPairInOrder)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 1, 16);
    Collector c;
    for (NodeId i = 0; i < 4; ++i)
        mesh.setSink(i, i == 3 ? c.sink()
                               : MessageSink([](const Message &) {
                                     return true;
                                 }));
    for (Word k = 0; k < 10; ++k)
        ASSERT_TRUE(mesh.offer(0, makeMsg(3, k)));
    eq.run();
    ASSERT_EQ(c.got.size(), 10u);
    for (Word k = 0; k < 10; ++k)
        EXPECT_EQ(c.got[k].words[1], k);
}

TEST(MeshBackpressure, InjectionRefusedWhenFull)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1, 2);
    Collector c0, c1;
    c1.accept = false;      // destination refuses everything
    mesh.setSink(0, c0.sink());
    mesh.setSink(1, c1.sink());

    // Keep stuffing; with all buffers full the fabric must refuse.
    int accepted = 0;
    for (int k = 0; k < 20; ++k) {
        if (mesh.offer(0, makeMsg(1, static_cast<Word>(k))))
            ++accepted;
        eq.run(eq.curTick() + 5);
    }
    EXPECT_LT(accepted, 20);
    EXPECT_EQ(c1.got.size(), 0u);
    EXPECT_FALSE(mesh.idle());

    // Un-refuse and drain: nothing was lost.
    c1.accept = true;
    eq.run();
    EXPECT_EQ(static_cast<int>(c1.got.size()), accepted);
    EXPECT_TRUE(mesh.idle());
}

TEST(MeshBackpressure, ContentionResolvesFairly)
{
    // Two senders to the same destination; both streams arrive whole.
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 3, 1, 4);
    Collector c;
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(2, [](const Message &) { return true; });
    mesh.setSink(1, c.sink());

    unsigned from0 = 0, from2 = 0;
    for (int round = 0; round < 12; ++round) {
        if (mesh.offer(0, makeMsg(1, 0x1000)))
            ++from0;
        if (mesh.offer(2, makeMsg(1, 0x2000)))
            ++from2;
        eq.run(eq.curTick() + 2);
    }
    eq.run();
    EXPECT_EQ(c.got.size(), from0 + from2);
}

TEST(MeshStats, LatencyRecorded)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1);
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(1, [](const Message &) { return true; });
    mesh.offer(0, makeMsg(1));
    eq.run();
    EXPECT_EQ(mesh.latencyDist().count(), 1);
    EXPECT_GT(mesh.latencyDist().mean(), 0.0);
    EXPECT_EQ(mesh.injected(), 1u);
    EXPECT_EQ(mesh.delivered(), 1u);
}

TEST(MeshErrors, BadDestinationPanics)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1);
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(1, [](const Message &) { return true; });
    EXPECT_THROW(mesh.offer(0, makeMsg(5)), PanicError);
}

TEST(IdealNetwork, DeliversWithLatency)
{
    EventQueue eq;
    IdealNetwork net("net", eq, 2, 3);
    Collector c;
    net.setSink(0, [](const Message &) { return true; });
    net.setSink(1, c.sink());
    net.offer(0, makeMsg(1, 5));
    eq.run();
    EXPECT_EQ(eq.curTick(), 3u);
    ASSERT_EQ(c.got.size(), 1u);
}

TEST(IdealNetwork, RetriesRefusedDelivery)
{
    EventQueue eq;
    IdealNetwork net("net", eq, 2, 1);
    Collector c;
    c.accept = false;
    net.setSink(0, [](const Message &) { return true; });
    net.setSink(1, c.sink());
    net.offer(0, makeMsg(1));
    eq.run(10);
    EXPECT_TRUE(c.got.empty());
    EXPECT_FALSE(net.idle());
    c.accept = true;
    eq.run();
    EXPECT_EQ(c.got.size(), 1u);
    EXPECT_TRUE(net.idle());
}

TEST(MeshSerialization, LongMessagesHoldLinks)
{
    // With serialization enabled, two 5-word messages cross a link in
    // 5-cycle slots; a 20-word (scrolled) message holds it four times
    // as long.
    auto drain_time = [](size_t extra_words) -> Tick {
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 2, 1, 8, /*cycles_per_word=*/1);
        mesh.setSink(0, [](const Message &) { return true; });
        mesh.setSink(1, [](const Message &) { return true; });
        for (int k = 0; k < 4; ++k) {
            Message m = makeMsg(1);
            m.extra.assign(extra_words, 0);
            EXPECT_TRUE(mesh.offer(0, m)) << k;
        }
        eq.run();
        EXPECT_EQ(mesh.delivered(), 4u);
        return eq.curTick();
    };

    Tick short_time = drain_time(0);
    Tick long_time = drain_time(15);    // 20-word messages
    EXPECT_GT(long_time, short_time * 2);
}

TEST(MeshSerialization, DefaultIsMessageGranularity)
{
    // cycles_per_word = 0 (the default): back-to-back messages move
    // one hop per cycle regardless of length.
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1, 8);
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(1, [](const Message &) { return true; });
    Message m = makeMsg(1);
    m.extra.assign(100, 0);
    mesh.offer(0, m);
    eq.run();
    EXPECT_LE(eq.curTick(), 5u);
}

namespace
{

/** Routers of @p mesh currently in the active set. */
std::vector<NodeId>
activeRouters(const MeshNetwork &mesh)
{
    std::vector<NodeId> active;
    for (NodeId n = 0; n < mesh.numNodes(); ++n)
        if (mesh.probe(n).active)
            active.push_back(n);
    return active;
}

} // namespace

TEST(MeshActiveSet, DrainedMeshHasNoActiveRoutersOrTick)
{
    EventQueue eq;
    const unsigned w = 4, h = 4, n = w * h;
    MeshNetwork mesh("mesh", eq, w, h);
    std::vector<Collector> cs(n);
    for (NodeId i = 0; i < n; ++i)
        mesh.setSink(i, cs[i].sink());
    EXPECT_TRUE(activeRouters(mesh).empty());

    for (NodeId s = 0; s < n; ++s)
        ASSERT_TRUE(mesh.offer(s, makeMsg(n - 1 - s, s)));
    EXPECT_EQ(activeRouters(mesh).size(), n);
    eq.run();

    EXPECT_TRUE(mesh.idle());
    EXPECT_TRUE(eq.empty());    // no tick left scheduled
    EXPECT_TRUE(activeRouters(mesh).empty());
    EXPECT_EQ(mesh.delivered(), n);
}

TEST(MeshActiveSet, ParkedHeadKeepsOnlyItsRouterActive)
{
    // Node 8's sink refuses: the message bound there parks at router
    // 8 while the rest of the 3x3 mesh drains around it.
    EventQueue eq;
    const unsigned w = 3, h = 3, n = w * h;
    MeshNetwork mesh("mesh", eq, w, h);
    std::vector<Collector> cs(n);
    cs[8].accept = false;
    for (NodeId i = 0; i < n; ++i)
        mesh.setSink(i, cs[i].sink());

    ASSERT_TRUE(mesh.offer(0, makeMsg(8, 1)));
    for (NodeId s = 1; s < 8; ++s)
        ASSERT_TRUE(mesh.offer(s, makeMsg((s + 4) % 8, s)));
    eq.run(50);

    EXPECT_EQ(activeRouters(mesh), std::vector<NodeId>{8});
    const auto parked = mesh.probe(8);
    for (unsigned in = 0; in < MeshNetwork::numPorts; ++in) {
        // XY routing brings 0 -> 8 in from the north neighbour.
        if (in == static_cast<unsigned>(MeshNetwork::Port::north)) {
            ASSERT_EQ(parked.resident[in].size(), 1u);
            EXPECT_EQ(parked.headOut[in], MeshNetwork::Port::local);
        } else {
            EXPECT_TRUE(parked.resident[in].empty()) << in;
            EXPECT_FALSE(parked.headOut[in].has_value()) << in;
        }
    }
    EXPECT_FALSE(mesh.idle());
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(mesh.delivered(), 7u);

    cs[8].accept = true;
    eq.run();
    EXPECT_EQ(cs[8].got.size(), 1u);
    EXPECT_TRUE(activeRouters(mesh).empty());
}

TEST(MeshActiveSet, CachedPortsMatchRouteOnNonSquareMesh)
{
    // Random traffic on a 7x3 mesh with shallow buffers and sinks
    // that sometimes refuse: after every tick, every resident
    // message's cached port is route() from the router it sits in,
    // each head summary matches its queue's front, and a router is
    // active exactly when it holds a message.
    EventQueue eq;
    const unsigned w = 7, h = 3, n = w * h;
    MeshNetwork mesh("mesh", eq, w, h, /*buffer_depth=*/2);
    Random rng(0x7a3);
    for (NodeId i = 0; i < n; ++i)
        mesh.setSink(i, [&rng](const Message &) {
            return !rng.chance(0.3);
        });

    uint64_t offered = 0;
    for (Tick t = 1; t <= 600; ++t) {
        if (t <= 400) {
            for (unsigned k = 0; k < 4; ++k) {
                const NodeId s = rng.uniform(0, n - 1);
                if (mesh.offer(s, makeMsg(rng.uniform(0, n - 1))))
                    ++offered;
            }
        }
        eq.run(t);
        for (NodeId r = 0; r < n; ++r) {
            const auto p = mesh.probe(r);
            bool holds = false;
            for (unsigned in = 0; in < MeshNetwork::numPorts; ++in) {
                for (const auto &[dest, port] : p.resident[in])
                    ASSERT_EQ(port, mesh.route(r, dest))
                        << "tick " << t << " router " << r;
                if (p.resident[in].empty()) {
                    ASSERT_FALSE(p.headOut[in].has_value());
                } else {
                    ASSERT_EQ(p.headOut[in], p.resident[in].front().second);
                    holds = true;
                }
            }
            ASSERT_EQ(p.active, holds) << "tick " << t << " router " << r;
        }
    }
    eq.run();
    EXPECT_GT(offered, 400u);
    EXPECT_EQ(mesh.delivered(), offered);
    EXPECT_TRUE(activeRouters(mesh).empty());
}
