/**
 * @file
 * Lifetime of the mesh's pooled packets.  A message lives in one pool
 * slot from offer() to eject; router queues hold only pointers to it.
 * These tests check the two ways that can go wrong: a mesh destroyed
 * with packets still in flight must release them and the SCROLL words
 * they own (the ASan/LSan CI job turns a leak into a failure), and a
 * sink that offers from inside ejection, often enough to grow the pool
 * in the middle of a tick, must not disturb the packet being ejected
 * or any other.  They also pin the range of the router queue depth.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "noc/mesh.hh"

using namespace tcpni;

namespace
{

constexpr unsigned extraWords = 12;

/** A long message whose every word is derived from (src, seq). */
Message
longMsg(NodeId src, NodeId dst, Word seq)
{
    Message m;
    m.words[0] = globalWord(dst, 0);
    m.words[1] = src;
    m.words[2] = seq;
    m.words[3] = src * 1000003u + seq;
    m.setDestFromWord0();
    for (unsigned w = 0; w < extraWords; ++w)
        m.extra.push_back(m.words[3] ^ (w * 0x9e3779b9u));
    return m;
}

/** True when @p m is exactly what longMsg(src, dst, seq) built. */
bool
intact(const Message &m, NodeId dst)
{
    const NodeId src = m.words[1];
    const Word seq = m.words[2];
    return m.dest() == dst && m.extra.size() == extraWords &&
           m.words == longMsg(src, dst, seq).words &&
           m.extra == longMsg(src, dst, seq).extra;
}

} // namespace

TEST(MeshPool, DestroyWithLongMessagesInFlightReleasesThem)
{
    // Sinks refuse everything, so long messages pile up in local,
    // transit and ejection queues all over a 4x4 mesh; destroying the
    // mesh then must free every packet and its extra words.
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 4, /*buffer_depth=*/3);
    for (NodeId n = 0; n < mesh.numNodes(); ++n)
        mesh.setSink(n, [](const Message &) { return false; });
    Word seq = 0;
    for (int round = 0; round < 6; ++round) {
        for (NodeId s = 0; s < mesh.numNodes(); ++s)
            mesh.offer(s, longMsg(s, (s * 7 + round) % 16, seq++));
        eq.run(eq.curTick() + 2);
    }
    ASSERT_FALSE(mesh.idle());

    // Packets wait in more than one kind of queue.
    unsigned local = 0, transit = 0;
    for (NodeId n = 0; n < mesh.numNodes(); ++n) {
        const auto p = mesh.probe(n);
        local += p.resident[0].size();
        for (unsigned in = 1; in < MeshNetwork::numPorts; ++in)
            transit += p.resident[in].size();
    }
    EXPECT_GT(local, 0u);
    EXPECT_GT(transit, 0u);
    // The mesh goes out of scope here with every packet still queued.
}

TEST(MeshPool, OffersFromInsideEjectionGrowThePoolMidTick)
{
    // Every node of an 8x8 mesh sends itself one message, so all 64
    // eject in the same tick.  Each of those deliveries offers eight
    // long messages from inside the sink -- 512 new packets in that
    // one tick, several times the pool's first slab -- while the
    // packet being ejected is still queued.  Every word of every
    // message must arrive intact.
    constexpr unsigned side = 8, nodes = side * side, fanout = 8;
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, side, side, /*buffer_depth=*/16);

    std::vector<std::vector<Message>> got(nodes);
    unsigned offered_inside = 0, bad = 0;
    Tick offer_tick = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        mesh.setSink(n, [&, n](const Message &m) {
            if (!intact(m, n))
                ++bad;
            got[n].push_back(m);
            if (m.words[2] != 0)
                return true;
            // The self-addressed seed message (sequence 0): fan out
            // from here.
            for (unsigned k = 0; k < fanout; ++k) {
                const NodeId dst = (n * 13 + k * 5 + 1) % nodes;
                EXPECT_TRUE(mesh.offer(n, longMsg(n, dst, 1 + k)));
            }
            offered_inside += fanout;
            offer_tick = eq.curTick();
            return true;
        });
    }

    for (NodeId n = 0; n < nodes; ++n)
        ASSERT_TRUE(mesh.offer(n, longMsg(n, n, 0)));
    eq.run(1);
    EXPECT_EQ(offered_inside, nodes * fanout);
    EXPECT_EQ(offer_tick, 1u);

    eq.run();
    EXPECT_TRUE(mesh.idle());
    EXPECT_EQ(bad, 0u);
    EXPECT_EQ(mesh.injected(), nodes + nodes * fanout);
    EXPECT_EQ(mesh.delivered(), nodes + nodes * fanout);
    unsigned total = 0;
    for (const auto &msgs : got)
        total += msgs.size();
    EXPECT_EQ(total, nodes + nodes * fanout);
}

TEST(MeshPool, DeepestQueueHoldsItsFullDepth)
{
    // The largest depth the 8-bit queue counters allow fills without
    // wrapping: 255 injections fit, the 256th is refused, and all 255
    // come out in order.
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1, MeshNetwork::maxBufferDepth);
    std::vector<Word> order;
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(1, [&](const Message &m) {
        order.push_back(m.words[2]);
        return true;
    });
    for (Word i = 0; i < MeshNetwork::maxBufferDepth; ++i)
        ASSERT_TRUE(mesh.offer(0, longMsg(0, 1, i))) << i;
    EXPECT_FALSE(mesh.offer(0, longMsg(0, 1, 999)));
    eq.run();
    ASSERT_EQ(order.size(), MeshNetwork::maxBufferDepth);
    for (Word i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(MeshPoolDeathTest, BufferDepthOutsideCounterRangeIsFatal)
{
    auto build = [](unsigned depth) {
        logging::throwOnError = false;
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 2, 2, depth);
    };
    EXPECT_DEATH(build(0), "mesh 'mesh': buffer_depth 0 is outside "
                           "\\[1, 255\\]");
    EXPECT_DEATH(build(256), "buffer_depth 256 is outside \\[1, 255\\]");
    EXPECT_DEATH(build(1u << 16),
                 "buffer_depth 65536 is outside \\[1, 255\\]");

    // Under the test harness's throw mode the same check throws.
    EventQueue eq;
    EXPECT_THROW(MeshNetwork("mesh", eq, 2, 2, 256), FatalError);
}
