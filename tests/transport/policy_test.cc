/**
 * @file
 * Unit tests for the transport-policy layer: the policy table and the
 * window / paced gating semantics in isolation.
 */

#include <gtest/gtest.h>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "transport/transport.hh"

using namespace tcpni;
using transport::TransportConfig;
using transport::Verdict;

namespace
{

TEST(PolicyTable, ListsTheThreeBuiltins)
{
    const char *const names[] = {"naive", "window", "paced"};
    const auto &table = transport::registeredPolicies();
    ASSERT_EQ(table.size(), std::size(names));
    for (size_t i = 0; i < table.size(); ++i) {
        EXPECT_STREQ(table[i].name, names[i]);
        EXPECT_NE(*table[i].description, '\0') << names[i];
        EXPECT_EQ(transport::findPolicy(names[i]), &table[i]);
        TransportConfig cfg;
        cfg.policy = names[i];
        if (i == 0) {
            // naive is the absence of a policy object.
            EXPECT_EQ(table[i].make, nullptr);
            EXPECT_EQ(transport::makePolicy(cfg), nullptr);
            continue;
        }
        EXPECT_STREQ(table[i].make(cfg)->name(), names[i]);
        EXPECT_STREQ(transport::makePolicy(cfg)->name(), names[i]);
    }
    EXPECT_EQ(transport::findPolicy("carrier-pigeon"), nullptr);
    EXPECT_EQ(transport::policyNames(), "naive, window, paced");
}

TEST(WindowPolicy, HoldsAtTheWindowPerDestination)
{
    TransportConfig cfg;
    cfg.policy = "window";
    cfg.window = 2;
    auto p = transport::makePolicy(cfg);

    // Two in flight to dst 5: admitted; the third holds.
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(p->gate(5, 10), Verdict::proceed);
        p->onAdmit(5, 10);
    }
    EXPECT_EQ(p->gate(5, 11), Verdict::hold);

    // Destinations are independent.
    EXPECT_EQ(p->gate(6, 11), Verdict::proceed);
    p->onAdmit(6, 11);

    // A returned credit reopens dst 5, one message's worth.
    p->onCredit(5, 1, 20);
    EXPECT_EQ(p->gate(5, 20), Verdict::proceed);
    p->onAdmit(5, 20);
    EXPECT_EQ(p->gate(5, 21), Verdict::hold);

    EXPECT_EQ(p->admits(), 4);
    EXPECT_EQ(p->holds(), 2);
    EXPECT_EQ(p->creditsReturned(), 1);
}

TEST(PacedPolicy, BucketDrainsAndRefillsAtTheConfiguredRate)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = transport::rateOne / 2;  // one message per 2 ticks
    auto p = transport::makePolicy(cfg);

    // The bucket starts full (paceBurst messages).
    EXPECT_EQ(p->gate(1, 0), Verdict::proceed);
    p->onAdmit(1, 0);

    // Empty: holds until the rate refills one whole message.
    EXPECT_EQ(p->gate(1, 0), Verdict::hold);
    EXPECT_EQ(p->gate(1, 1), Verdict::hold);
    EXPECT_EQ(p->gate(1, 2), Verdict::proceed);
}

TEST(PacedPolicy, OafullHalvesTheRate)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = transport::rateOne / 2;  // one message per 2 ticks
    auto p = transport::makePolicy(cfg);

    p->onAdmit(1, 0);                          // drain the bucket
    p->onOafull(true, 0);                      // MD: 1/4 msg/tick
    EXPECT_EQ(p->gate(1, 2), Verdict::hold);   // 2 ticks: not enough
    EXPECT_EQ(p->gate(1, 3), Verdict::hold);
    EXPECT_EQ(p->gate(1, 4), Verdict::proceed);  // 4 ticks = 1 msg
    EXPECT_EQ(p->oafullEdges(), 1);
}

TEST(PacedPolicy, SlowDeliveriesHalveTheRate)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = transport::rateOne / 2;  // one message per 2 ticks
    cfg.paceAiInterval = 16;
    auto p = transport::makePolicy(cfg);

    // Baseline: a delivery 8 ticks after its send.
    p->onAdmit(1, 0);
    p->onCredit(1, 1, 8);

    // A delivery far above baseline (> 4x) past the adaptation
    // interval is a congestion event: the rate halves (512 -> ~280
    // after the AI drift accrued over the idle span), so an empty
    // bucket that refilled in 2 ticks before now needs 4.
    p->onAdmit(1, 100);
    p->onCredit(1, 1, 200);
    EXPECT_EQ(p->gate(1, 200), Verdict::proceed);
    p->onAdmit(1, 200);
    EXPECT_EQ(p->gate(1, 202), Verdict::hold);
    EXPECT_EQ(p->gate(1, 203), Verdict::hold);
    EXPECT_EQ(p->gate(1, 204), Verdict::proceed);
}

TEST(PacedPolicy, AdditiveIncreaseRecoversWhenClear)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = 8;
    cfg.paceAiStep = 8;
    cfg.paceAiInterval = 4;
    auto p = transport::makePolicy(cfg);

    p->onAdmit(1, 0);  // empty the bucket at rate 8
    // By tick 4096 AI has long since driven the rate to the max (one
    // message per tick); a full refill is immediate thereafter.
    EXPECT_EQ(p->gate(1, 4096), Verdict::proceed);
    p->onAdmit(1, 4096);
    EXPECT_EQ(p->gate(1, 4097), Verdict::proceed);
}

TEST(PolicyMetrics, RetireOutlivesTheDerivedPolicy)
{
    // Every policy's metrics lambdas must be retired while the
    // derived object (whose members they read) is still alive: the
    // registry finalizes AFTER the policies are destroyed, exactly
    // like a sweep task tearing down its System before the TaskScope
    // deposits.  A policy that leaves retirement to the base
    // destructor reads freed derived members here (the sanitizer CI
    // job turns that into a hard failure).
    metrics::Registry reg(0);
    metrics::setRegistry(&reg);
    {
        EventQueue eq;
        for (const char *name : {"window", "paced"}) {
            TransportConfig cfg;
            cfg.policy = name;
            cfg.window = 1;
            auto p = transport::makePolicy(cfg);
            p->attachMetrics(std::string("tp.") + name, eq);
            // Populate the derived state the gauges read (window
            // exhaustion level, paced per-destination baselines).
            p->gate(1, 1);
            p->onAdmit(1, 1);
            p->gate(1, 2);
            p->onOafull(true, 3);
            p->onCredit(1, 1, 5);
            p->onOafull(false, 6);
        }
    }
    metrics::setRegistry(nullptr);
    metrics::TaskMetrics tm = reg.finalize("t");
    ASSERT_EQ(tm.groups.size(), 2u);
    for (const auto &g : tm.groups)
        EXPECT_GE(g.series.size(), 4u) << g.name;
}

} // namespace
