/**
 * @file
 * The sharded-vs-single differential suite: on randomly configured
 * meshes under random synthetic traffic, a sharded run must produce
 * exactly the same final state as the single-queue run -- same final
 * tick and the same metrics fingerprint (every NI, mesh, per-link and
 * CPU series), byte for byte.  This is the determinism contract of ShardedEngine checked
 * end-to-end through System, MeshNetwork, NetworkInterface, and
 * TrafficGen.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hh"
#include "metrics_fingerprint.hh"
#include "system/system.hh"
#include "system/traffic.hh"

using namespace tcpni;

namespace
{

struct RunResult
{
    bool quiesced = false;
    Tick ticks = 0;
    uint64_t sent = 0;
    uint64_t drained = 0;
    unsigned shards = 0;
    std::string metrics;
};

struct FuzzCase
{
    unsigned width, height;
    sys::NodeConfig cfg;
    sys::TrafficConfig tc;
};

FuzzCase
drawCase(uint64_t seed)
{
    Random rng(seed);
    FuzzCase c;
    c.width = 1 + rng.next32() % 5;
    c.height = 2 + rng.next32() % 5;   // >= 2 rows so sharding bites
    if (c.width * c.height < 2)
        c.width = 2;

    c.cfg.memBytes = 1 << 12;
    c.cfg.ni.inputQueueDepth = 2 + rng.next32() % 14;
    c.cfg.ni.outputQueueDepth = 2 + rng.next32() % 14;
    c.cfg.ni.inputThreshold =
        1 + rng.next32() % c.cfg.ni.inputQueueDepth;
    c.cfg.ni.outputThreshold =
        1 + rng.next32() % c.cfg.ni.outputQueueDepth;

    c.tc.messages = 1 + rng.next32() % 20;
    c.tc.meanGap = 1 + rng.next32() % 25;
    c.tc.hotspotPermille = rng.chance(0.5) ? rng.next32() % 300 : 0;
    c.tc.seed = rng.next64();
    return c;
}

RunResult
runCase(const FuzzCase &c, unsigned shards)
{
    unsigned nodes = c.width * c.height;
    MetricsFingerprint metrics;
    sys::System machine("fuzz", c.width, c.height,
                        std::vector<sys::NodeConfig>(nodes, c.cfg),
                        shards);
    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    for (NodeId n = 0; n < nodes; ++n)
        gens.push_back(
            std::make_unique<sys::TrafficGen>(machine, n, c.tc));
    for (auto &g : gens)
        g->start();

    RunResult r;
    r.quiesced = machine.run(5'000'000);
    r.ticks = machine.curTick();
    r.shards = machine.engine().numShards();
    for (auto &g : gens) {
        r.sent += g->sent();
        r.drained += g->drained();
    }
    r.metrics = metrics.take(r.ticks);
    return r;
}

} // namespace

TEST(ShardDifferential, TenSeedsAllShardCountsIdentical)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        FuzzCase c = drawCase(seed * 0x9e3779b97f4a7c15ULL);
        SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                     std::to_string(c.width) + "x" +
                     std::to_string(c.height) + ", " +
                     std::to_string(c.tc.messages) + " msgs/node");

        RunResult base = runCase(c, 1);
        ASSERT_TRUE(base.quiesced);
        ASSERT_EQ(base.sent,
                  uint64_t(c.width) * c.height * c.tc.messages);
        ASSERT_EQ(base.drained, base.sent);

        for (unsigned shards : {2u, 4u, 8u}) {
            RunResult sharded = runCase(c, shards);
            SCOPED_TRACE(std::to_string(shards) + " shards (" +
                         std::to_string(sharded.shards) +
                         " effective)");
            EXPECT_TRUE(sharded.quiesced);
            EXPECT_EQ(sharded.ticks, base.ticks);
            EXPECT_EQ(sharded.sent, base.sent);
            EXPECT_EQ(sharded.drained, base.drained);
            // The whole metrics fingerprint -- every NI counter and
            // occupancy integral, latency histogram, mesh and per-link
            // counter, CPU counter -- must match byte for byte.
            EXPECT_EQ(sharded.metrics, base.metrics);
        }
    }
}

TEST(ShardDifferential, RerunIsBitIdentical)
{
    // Same configuration, same shard count, fresh System: the sharded
    // schedule itself must be reproducible.
    FuzzCase c = drawCase(0xfeedfacecafef00dULL);
    RunResult a = runCase(c, 4);
    RunResult b = runCase(c, 4);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.metrics, b.metrics);
}
