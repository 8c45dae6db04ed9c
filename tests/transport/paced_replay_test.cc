/**
 * @file
 * The paced policy's closed-form replay of a sleeping sender.
 *
 * A sender that stalls sleeps until its NI wakes it, and its policy is
 * deemed to have run gate() at every tick of the sleep
 * (transport::Policy::block()).  For paced that matters: each gate()
 * settles the bucket one tick, and per-tick settles part from one lazy
 * settle whenever the span crosses an additive-increase or
 * multiplicative-decrease tick.  Each trial here runs twin policies
 * through the same blocked span -- one with a gate() call per tick,
 * the other with block() / catchUp() / firstProceed() -- under
 * randomized knobs (an adaptation interval of 1 included), with oafull
 * asserted across some spans, credits that trigger a delay-based
 * decrease mid-span, and spans that stay blocked past the first
 * admitting tick (the sender is also waiting on a full output queue).
 * The twins must agree on every hold, on the first admitting tick, and
 * on every counter and gauge afterwards.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "transport/transport.hh"

using namespace tcpni;
using transport::Policy;
using transport::TransportConfig;
using transport::Verdict;

namespace
{

constexpr NodeId dst = 3;

TransportConfig
drawKnobs(Random &rng)
{
    static const unsigned intervals[] = {1, 1, 2, 3, 7, 16, 64, 256};
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceRate = 1 + rng.next32() % transport::rateOne;
    cfg.paceBurst = 1 + rng.next32() % 4;
    cfg.paceAiStep = 1 + rng.next32() % 96;
    cfg.paceAiInterval = intervals[rng.next32() % 8];
    cfg.paceAiHoldoff = 1 + rng.next32() % 4;
    return cfg;
}

/** Apply the same hook to both twins at @p t. */
void
hookBoth(Policy &a, Policy &b, Random &rng, Tick t, bool &oafull)
{
    switch (rng.next32() % 3) {
      case 0:
        // An oafull edge.
        oafull = !oafull;
        a.onOafull(oafull, t);
        b.onOafull(oafull, t);
        break;
      default: {
        // A delivery credit: once a fast baseline exists, a slow one
        // is a delay-based decrease.
        a.onCredit(dst, 1, t);
        b.onCredit(dst, 1, t);
        break;
      }
    }
}

struct Twins
{
    std::unique_ptr<Policy> tick;  //!< gate() at every tick
    std::unique_ptr<Policy> lazy;  //!< block() / catchUp()
};

/** One randomized trial; counts its blocked spans into @p spans. */
void
runTrial(uint64_t seed, unsigned &spans)
{
    Random rng(seed);
    const TransportConfig cfg = drawKnobs(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + " rate " +
                 std::to_string(cfg.paceRate) + " burst " +
                 std::to_string(cfg.paceBurst) + " step " +
                 std::to_string(cfg.paceAiStep) + " interval " +
                 std::to_string(cfg.paceAiInterval) + " holdoff " +
                 std::to_string(cfg.paceAiHoldoff));
    EventQueue eq;  // clock stays at 0: metrics read committed state
    Twins w{transport::makePolicy(cfg), transport::makePolicy(cfg)};
    w.tick->attachMetrics("t" + std::to_string(seed) + ".tick", eq);
    w.lazy->attachMetrics("t" + std::to_string(seed) + ".lazy", eq);
    Policy &a = *w.tick;
    Policy &b = *w.lazy;

    bool oafull = false;
    Tick t = 1;
    for (unsigned round = 0; round < 6; ++round) {
        // Unblocked traffic: both twins see the same sends and hooks.
        const Tick calm = t + rng.next32() % 200;
        for (; t < calm; ++t) {
            if (rng.chance(0.05))
                hookBoth(a, b, rng, t, oafull);
            if (rng.chance(0.4)) {
                const Verdict v = a.gate(dst, t);
                ASSERT_EQ(b.gate(dst, t), v) << "tick " << t;
                if (v == Verdict::proceed) {
                    a.onAdmit(dst, t);
                    b.onAdmit(dst, t);
                }
            }
        }
        if (rng.chance(0.3) && !oafull) {
            // Hold oafull asserted across the whole span.
            oafull = true;
            a.onOafull(true, t);
            b.onOafull(true, t);
        }

        // A send at t stalls; its sender sleeps.  With `full` it also
        // waits for the output queue, so the span outlives the first
        // admitting gate.
        const bool full = rng.chance(0.4);
        const Verdict first = a.gate(dst, t);
        ASSERT_EQ(b.gate(dst, t), first);
        if (first == Verdict::proceed && !full) {
            a.onAdmit(dst, t);
            b.onAdmit(dst, t);
            ++t;
            continue;
        }
        ++spans;
        b.block(dst, t);
        Tick expect = b.firstProceed();
        uint64_t tick_through = 0, lazy_through = 0;
        const Tick end = t + 1 + rng.next32() % 3000;
        const double hook_rate = rng.chance(0.5) ? 0.02 : 0.0;
        Tick span_last = t;
        for (Tick u = t + 1; u <= end; ++u) {
            if (rng.chance(hook_rate)) {
                lazy_through += b.catchUp(u - 1);
                hookBoth(a, b, rng, u, oafull);
                expect = b.firstProceed();
            }
            const Verdict v = a.gate(dst, u);
            span_last = u;
            if (v == Verdict::proceed) {
                ++tick_through;
                if (expect != maxTick) {
                    ASSERT_EQ(u, expect) << "first admitting tick";
                    expect = maxTick;  // only the first is predicted
                }
                if (!full)
                    break;
            } else {
                ASSERT_TRUE(expect == maxTick || u < expect)
                    << "tick " << u << " held, expected admit at "
                    << expect;
            }
        }
        lazy_through += b.catchUp(span_last);
        b.unblock();
        EXPECT_EQ(lazy_through, tick_through);
        EXPECT_EQ(b.holds(), a.holds());

        // The same state: every future verdict agrees.  A sender
        // blocked at span_last sees the same holds up to every later
        // tick, so each tick's verdict agrees too.
        a.block(dst, span_last);
        b.block(dst, span_last);
        for (Tick u = span_last + 1; u < span_last + 600; ++u)
            ASSERT_EQ(b.pendingHolds(u), a.pendingHolds(u))
                << "tick " << u;
        a.unblock();
        b.unblock();
        if (!full && tick_through) {
            // The woken sender's send is admitted.
            a.onAdmit(dst, span_last);
            b.onAdmit(dst, span_last);
        }
        t = span_last + 1;
        if (oafull && rng.chance(0.5)) {
            oafull = false;
            a.onOafull(false, t);
            b.onOafull(false, t);
        }
    }
}

TEST(PacedReplay, MatchesTickByTickGates)
{
    unsigned spans = 0;
    metrics::Registry reg(0);
    metrics::setRegistry(&reg);
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        runTrial(seed, spans);
        if (HasFatalFailure())
            break;
    }
    metrics::setRegistry(nullptr);
    EXPECT_GT(spans, 600u);

    // Every counter and gauge of the twins agrees (md_events,
    // ai_steps, rate_fp, tokens_fp, holds, ...).
    const metrics::TaskMetrics tm = reg.finalize("replay");
    ASSERT_EQ(tm.groups.size() % 2, 0u);
    unsigned compared = 0;
    for (const auto &ga : tm.groups) {
        const std::string &name = ga.name;
        if (name.size() < 5 || name.compare(name.size() - 5, 5, ".tick"))
            continue;
        const std::string twin = name.substr(0, name.size() - 5) + ".lazy";
        const metrics::TaskMetrics::GroupResult *gb = nullptr;
        for (const auto &g : tm.groups)
            if (g.name == twin)
                gb = &g;
        ASSERT_NE(gb, nullptr) << twin;
        ASSERT_EQ(ga.series.size(), gb->series.size());
        for (size_t i = 0; i < ga.series.size(); ++i) {
            EXPECT_EQ(ga.series[i].name, gb->series[i].name);
            EXPECT_EQ(ga.series[i].value, gb->series[i].value)
                << name << " " << ga.series[i].name;
            ++compared;
        }
    }
    EXPECT_GT(compared, 300u * 8);
}

} // namespace
