/**
 * @file
 * The mesh fuzz suite: on randomly configured meshes under random
 * synthetic traffic, every run must deliver everything it sends and
 * reproduce the final state pinned below -- final tick, sent and
 * drained counts, and an FNV-1a hash of the metrics fingerprint (every
 * NI, mesh, per-link and CPU series), checked end-to-end through
 * System, MeshNetwork, NetworkInterface and TrafficGen.
 *
 * The pins were recorded from the single-queue run of the sharded
 * engine this suite used to check shard counts against, so they carry
 * that differential proof over to the one-queue machine.  A change
 * that moves them changes simulated results.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hh"
#include "fnv1a.hh"
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
    c.height = 2 + rng.next32() % 5;
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
runCase(const FuzzCase &c)
{
    unsigned nodes = c.width * c.height;
    MetricsFingerprint metrics;
    sys::System machine("fuzz", c.width, c.height,
                        std::vector<sys::NodeConfig>(nodes, c.cfg));
    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    for (NodeId n = 0; n < nodes; ++n)
        gens.push_back(
            std::make_unique<sys::TrafficGen>(machine, n, c.tc));
    for (auto &g : gens)
        g->start();

    RunResult r;
    r.quiesced = machine.run(5'000'000);
    r.ticks = machine.curTick();
    for (auto &g : gens) {
        r.sent += g->sent();
        r.drained += g->drained();
    }
    r.metrics = metrics.take(r.ticks);
    return r;
}

struct Pin
{
    Tick ticks;
    uint64_t sent;
    uint64_t drained;
    uint64_t metricsHash;   //!< fnv1a(MetricsFingerprint::take())
};

/** Seeds 1..10, recorded from the sharded engine's one-shard run. */
constexpr Pin pins[10] = {
    {35, 6, 6, 0x64cb674d1120a0beULL},
    {29, 90, 90, 0xa922162a64256741ULL},
    {149, 240, 240, 0x7d543492431eb404ULL},
    {223, 32, 32, 0x66927b98fec45e0dULL},
    {51, 60, 60, 0x5cafd9b645d1ceacULL},
    {463, 256, 256, 0x23ec9802f7cdcde5ULL},
    {20, 78, 78, 0x5b3b2cb303c9b859ULL},
    {256, 190, 190, 0xf51e9b5c92616bb7ULL},
    {409, 28, 28, 0xaf848cd4d09a621fULL},
    {20, 36, 36, 0x6dbdab5cb4c7f370ULL},
};

} // namespace

TEST(MeshFuzz, TenSeedsMatchPinnedFingerprints)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        FuzzCase c = drawCase(seed * 0x9e3779b97f4a7c15ULL);
        SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                     std::to_string(c.width) + "x" +
                     std::to_string(c.height) + ", " +
                     std::to_string(c.tc.messages) + " msgs/node");

        RunResult r = runCase(c);
        ASSERT_TRUE(r.quiesced);
        ASSERT_EQ(r.sent, uint64_t(c.width) * c.height * c.tc.messages);
        ASSERT_EQ(r.drained, r.sent);

        const Pin &pin = pins[seed - 1];
        EXPECT_EQ(r.ticks, pin.ticks);
        EXPECT_EQ(r.sent, pin.sent);
        EXPECT_EQ(r.drained, pin.drained);
        // The whole metrics fingerprint -- every NI counter and
        // occupancy integral, latency histogram, mesh and per-link
        // counter, CPU counter -- must match byte for byte.
        EXPECT_EQ(fnv1a(r.metrics), pin.metricsHash);
    }
}

TEST(MeshFuzz, RerunIsBitIdentical)
{
    // Same configuration, fresh System: the schedule itself must be
    // reproducible.
    FuzzCase c = drawCase(0xfeedfacecafef00dULL);
    RunResult a = runCase(c);
    RunResult b = runCase(c);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.metrics, b.metrics);
}
