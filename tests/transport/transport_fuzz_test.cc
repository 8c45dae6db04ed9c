/**
 * @file
 * Transport-policy conservation fuzz: on randomly configured meshes
 * under randomized traffic (arrival process, pattern, open- and
 * closed-loop, service times), every message must be delivered
 * exactly once under every policy, and every run must reproduce its
 * pinned final state -- the contract tests/system/mesh_fuzz_test.cc
 * checks for the base system, extended over the policy hooks and the
 * CreditFabric's delivery notifications.  The pins were recorded from
 * the single-queue run of the retired sharded engine, which this
 * suite used to check shard counts against.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "../system/fnv1a.hh"
#include "../system/metrics_fingerprint.hh"
#include "system/system.hh"
#include "system/traffic.hh"
#include "transport/transport.hh"

using namespace tcpni;

namespace
{

struct RunResult
{
    bool quiesced = false;
    Tick ticks = 0;
    uint64_t sent = 0;
    uint64_t drained = 0;
    uint64_t sojourns = 0;
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
    c.width = 2 + rng.next32() % 3;
    c.height = 2 + rng.next32() % 3;

    c.cfg.memBytes = 1 << 12;
    c.cfg.ni.inputQueueDepth = 2 + rng.next32() % 14;
    c.cfg.ni.outputQueueDepth = 2 + rng.next32() % 14;
    c.cfg.ni.inputThreshold =
        1 + rng.next32() % c.cfg.ni.inputQueueDepth;
    c.cfg.ni.outputThreshold =
        1 + rng.next32() % c.cfg.ni.outputQueueDepth;

    // Randomized policy knobs, exercised well off their defaults.
    c.cfg.ni.transport.window = 1 + rng.next32() % 6;
    c.cfg.ni.transport.paceRate = 16 << (rng.next32() % 7);
    c.cfg.ni.transport.paceBurst = 1 + rng.next32() % 4;
    c.cfg.ni.transport.paceAiInterval = 16 << (rng.next32() % 5);

    c.tc.messages = 1 + rng.next32() % 12;
    c.tc.meanGap = 1 + rng.next32() % 25;
    c.tc.arrival = static_cast<sys::Arrival>(rng.next32() % 3);
    c.tc.pattern = rng.chance(0.4) ? sys::Pattern::incast
                                   : sys::Pattern::random;
    c.tc.openLoop = rng.chance(0.5);
    c.tc.serviceTime = rng.chance(0.5) ? rng.next32() % 10 : 0;
    c.tc.burstLen = 1 + rng.next32() % 12;
    c.tc.seed = rng.next64();
    return c;
}

RunResult
runCase(const FuzzCase &c, const std::string &policy)
{
    unsigned nodes = c.width * c.height;
    MetricsFingerprint metrics;
    sys::NodeConfig cfg = c.cfg;
    cfg.ni.transport.policy = policy;
    sys::System machine("fuzz", c.width, c.height,
                        std::vector<sys::NodeConfig>(nodes, cfg));
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
        r.sojourns += g->sojourn().count();
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

/** Seeds 1..6 x {naive, window, paced}, recorded from the sharded
 *  engine's one-shard run. */
constexpr Pin pins[6][3] = {
    {{140, 128, 128, 0x90026acb502f1a56ULL},
     {141, 128, 128, 0x0bda655228b57501ULL},
     {141, 128, 128, 0xeae8d3c51f92441cULL}},
    {{568, 18, 18, 0x161e560b0fe84511ULL},
     {568, 18, 18, 0x1dfb5bc3f6323c79ULL},
     {568, 18, 18, 0x4fa29e4e805a3366ULL}},
    {{722, 36, 36, 0x6c870b735110c73fULL},
     {723, 36, 36, 0x645b3fd9add8cd29ULL},
     {911, 36, 36, 0x1ebb8677b014edf2ULL}},
    {{220, 21, 21, 0x8629aeed5328687bULL},
     {221, 21, 21, 0x63874ef70868f344ULL},
     {221, 21, 21, 0x4f55c47478b4059cULL}},
    {{197, 21, 21, 0x6a70015ddb02620bULL},
     {197, 21, 21, 0x8799fee98d837cd1ULL},
     {197, 21, 21, 0x1c65d8c65d237562ULL}},
    {{174, 40, 40, 0xa17b4b1ec20aff60ULL},
     {175, 40, 40, 0x84ef965924310579ULL},
     {175, 40, 40, 0xa86c56f1e191ac55ULL}},
};

} // namespace

TEST(TransportFuzz, ExactlyOnceDeliveryAndPinnedFingerprints)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        FuzzCase c = drawCase(seed * 0x9e3779b97f4a7c15ULL);
        const unsigned senders =
            c.width * c.height -
            (c.tc.pattern == sys::Pattern::incast ? 1 : 0);
        SCOPED_TRACE(
            "seed " + std::to_string(seed) + ": " +
            std::to_string(c.width) + "x" + std::to_string(c.height) +
            ", " + std::to_string(c.tc.messages) + " msgs/sender" +
            (c.tc.pattern == sys::Pattern::incast ? ", incast" : "") +
            (c.tc.openLoop ? ", open-loop" : "") +
            ", svc " + std::to_string(c.tc.serviceTime));

        static const char *const policies[] = {"naive", "window",
                                               "paced"};
        for (size_t pi = 0; pi < 3; ++pi) {
            SCOPED_TRACE(policies[pi]);
            RunResult r = runCase(c, policies[pi]);

            // Conservation: everything offered was sent, and
            // everything sent was retired at a receiver exactly once
            // (a duplicate or a loss would break the equality, and a
            // message stuck in a queue would fail quiescence).
            ASSERT_TRUE(r.quiesced);
            EXPECT_EQ(r.sent,
                      uint64_t(senders) * c.tc.messages);
            EXPECT_EQ(r.drained, r.sent);
            if (c.tc.openLoop) {
                EXPECT_EQ(r.sojourns, r.drained);
            }

            const Pin &pin = pins[seed - 1][pi];
            EXPECT_EQ(r.ticks, pin.ticks);
            EXPECT_EQ(r.sent, pin.sent);
            EXPECT_EQ(r.drained, pin.drained);
            EXPECT_EQ(fnv1a(r.metrics), pin.metricsHash);
        }
    }
}
