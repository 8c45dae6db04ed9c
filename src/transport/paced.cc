/**
 * @file
 * The paced policy: token-bucket rate pacing with AIMD adaptation.
 *
 * A send attempt needs one whole token (rateOne fixed-point units);
 * the bucket refills at rate_ units per tick and holds at most
 * paceBurst messages.  The rate adapts on the only congestion signal
 * the paper's hardware exposes, the local oafull threshold: a rising
 * edge (the output queue backing up means downstream is not draining
 * us) halves the rate (multiplicative decrease, floored at
 * 1), and if the level STAYS asserted a whole holdoff later
 * it halves again -- oafull is a level, not a pulse, and a queue that
 * stays above threshold is repeated evidence the rate is still too
 * high.  Every paceAiInterval ticks of clear running adds paceAiStep
 * (additive increase, capped at rateOne), EXCEPT during the
 * paceAiHoldoff intervals after a decrease: the local queue drains
 * the moment pacing starts working even though the shared bottleneck
 * is still congested, so an AI clock keyed only on the local level
 * would immediately re-inflate the rate back into congestion.  This
 * is the congestion-avoidance shape of FreeBSD's pluggable TCP
 * stacks, reduced to the one-bit feedback an 1992-era NI actually
 * has.
 *
 * The one-bit signal alone is blind exactly when pacing works (see
 * onCredit below), so the policy also subscribes to the credit
 * fabric's delivery notifications and runs a delay-based detector on
 * its own messages' delivery times, halving on deliveries far above
 * the minimum observed baseline.
 *
 * All state is integer and lazily settled: project() computes the
 * bucket and rate as of `now` without mutating anything, and
 * gate()/onOafull() commit the projection.
 * A sleeping sender's deemed per-tick gates are replayed in closed
 * form by replay(), which is what a tick-by-tick gate() loop would
 * have settled.
 */

#include <algorithm>
#include <deque>
#include <map>

#include "common/logging.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace transport
{

namespace
{

class PacedPolicy : public Policy
{
  public:
    explicit PacedPolicy(const TransportConfig &cfg)
        : Policy(cfg),
          st_{cfg.paceRate,
              static_cast<uint64_t>(cfg.paceBurst) * rateOne, 0, 0, 0, 0}
    {}

    // The metrics lambdas below read members of THIS class; retire
    // them before those members are destroyed.
    ~PacedPolicy() override { retireMetrics(); }

    const char *name() const override { return "paced"; }

    Verdict
    gate(NodeId, Tick now) override
    {
        settle(now);
        if (st_.tokens < rateOne) {
            countHold();
            return Verdict::hold;
        }
        return Verdict::proceed;
    }

    void
    onAdmit(NodeId dst, Tick now) override
    {
        Policy::onAdmit(dst, now);
        settle(now);
        st_.tokens -= std::min<uint64_t>(st_.tokens, rateOne);
        outstanding_[dst].push_back(now);
    }

    /**
     * Delivery-delay congestion detection.  The local oafull level
     * goes quiet the moment pacing binds (the bucket sits before the
     * output queue, so a paced queue never backs up), but the shared
     * bottleneck is still congested -- and every sender can see that
     * in how long its own messages took to land.  Track the minimum
     * observed delivery delay as the uncongested baseline (the first
     * message of each epoch crosses a near-empty mesh) and treat a
     * delivery worse than kDelayMult times the baseline as a
     * congestion event: one multiplicative decrease per adaptation
     * interval, arming the same post-decrease AI holdoff as oafull.
     */
    void
    onCredit(NodeId dst, uint32_t count, Tick now) override
    {
        Policy::onCredit(dst, count, now);
        auto &q = outstanding_[dst];
        // The baseline is per destination: uncongested delivery time
        // grows with hop distance, so one global minimum would make
        // every far destination look permanently congested.
        uint64_t &min_delay = minDelay_[dst];
        if (!min_delay)
            min_delay = UINT64_MAX;
        bool congested = false;
        for (uint32_t i = 0; i < count && !q.empty(); ++i) {
            const uint64_t sample = now - q.front();
            q.pop_front();
            if (sample < min_delay)
                min_delay = sample;
            else if (sample > kDelayMult * min_delay)
                congested = true;
        }
        if (congested && now >= lastDelayMd_ + cfg_.paceAiInterval) {
            settle(now);
            st_.rate = std::max<uint32_t>(1, st_.rate / 2);
            ++st_.mdEvents;
            lastDelayMd_ = now;
            st_.aiAnchor = holdoffAnchor(now);
        }
    }

    void
    onOafull(bool asserted, Tick now) override
    {
        Policy::onOafull(asserted, now);
        settle(now);
        if (asserted) {
            st_.rate = std::max<uint32_t>(1, st_.rate / 2);
            ++st_.mdEvents;
            oafullNow_ = true;
            st_.aiAnchor = holdoffAnchor(now);
        } else {
            oafullNow_ = false;
            // The holdoff a decrease scheduled stays in force: AI
            // resumes paceAiHoldoff intervals after the LAST decrease,
            // not one interval after the queue first drains.
            st_.aiAnchor = std::max(st_.aiAnchor, now);
        }
    }

  protected:
    void
    addMetrics(metrics::Group &g, EventQueue &eq) override
    {
        g.addCounter("md_events",
                     [this, &eq] { return stateAt(eq.curTick()).mdEvents; },
                     "multiplicative decreases");
        g.addCounter("ai_steps",
                     [this, &eq] { return stateAt(eq.curTick()).aiSteps; },
                     "additive-increase steps applied");
        g.addGauge("rate_fp",
                   [this, &eq] { return stateAt(eq.curTick()).rate; },
                   "pacing rate, rateOne fixed point per tick");
        g.addGauge("tokens_fp",
                   [this, &eq] { return stateAt(eq.curTick()).tokens; },
                   "bucket level, rateOne fixed point");
        g.addGauge("min_delay",
                   [this] {
                       uint64_t best = 0;
                       for (const auto &[dst, d] : minDelay_)
                           if (d != UINT64_MAX && (!best || d < best))
                               best = d;
                       return best;
                   },
                   "best per-destination baseline delivery delay");
    }

    uint64_t
    heldInSpan(NodeId, Tick from, Tick to) const override
    {
        return replay(from, to, false).held;
    }

    uint64_t
    settleSpan(NodeId, Tick from, Tick to) override
    {
        const Replay r = replay(from, to, false);
        st_ = r.st;
        return r.held;
    }

    Tick
    firstProceedAfter(NodeId, Tick from) const override
    {
        return replay(from, maxTick, true).firstProceed;
    }

  private:
    /** The bucket, the rate and the adaptation clock. */
    struct State
    {
        uint32_t rate;
        uint64_t tokens;
        Tick lastSettle;
        Tick aiAnchor;
        uint64_t mdEvents;  //!< multiplicative decreases
        uint64_t aiSteps;   //!< additive-increase steps applied
    };

    /** @p s settled lazily to @p now, in one span; pure. */
    State
    project(State s, Tick now) const
    {
        if (now > s.lastSettle) {
            // Refill at the pre-adaptation rate over the whole span
            // (conservative and exactly reproducible), then adapt.
            s.tokens = std::min(
                s.tokens + static_cast<uint64_t>(s.rate) *
                               (now - s.lastSettle),
                bucketCap());
        }
        if (now > s.aiAnchor) {
            uint64_t steps = (now - s.aiAnchor) / cfg_.paceAiInterval;
            if (steps) {
                if (oafullNow_) {
                    // oafull is a level: a queue still above its
                    // threshold a whole holdoff after the last
                    // decrease is repeated evidence the rate remains
                    // too high, so halve again and re-arm the holdoff
                    // (TCP would see one loss per RTT).
                    ++s.mdEvents;
                    s.rate = std::max<uint32_t>(1, s.rate / 2);
                    s.aiAnchor = holdoffAnchor(now);
                } else {
                    s.aiSteps += steps;
                    s.rate = static_cast<uint32_t>(std::min<uint64_t>(
                        static_cast<uint64_t>(s.rate) +
                            steps * cfg_.paceAiStep,
                        rateOne));
                    s.aiAnchor += steps * cfg_.paceAiInterval;
                }
            }
        }
        s.lastSettle = std::max(s.lastSettle, now);
        return s;
    }

    /** Outcome of replaying a blocked sender's deemed gates. */
    struct Replay
    {
        State st;
        uint64_t held = 0;             //!< deemed gates that held
        Tick firstProceed = maxTick;   //!< first that proceeded
    };

    /**
     * The deemed gates of ticks (@p from, @p to], each a settle()
     * of one tick followed by the token test, in closed form: one
     * step per stretch of constant rate between adaptation ticks.
     * project() cannot stand in for this -- over a span it refills
     * at the old rate throughout, applies at most one decrease and
     * lumps several increases into one -- so a lazy settle and
     * per-tick settles part ways whenever a span crosses an
     * adaptation tick.  With @p stop the replay ends at the first
     * gate that proceeds.  Pure.
     */
    Replay
    replay(Tick from, Tick to, bool stop) const
    {
        Replay r{st_};
        State &s = r.st;
        Tick t = from;  // last replayed tick
        // Count the gate of tick t (tokens as settled); true to stop.
        auto classify = [&](Tick tick) {
            if (s.tokens < rateOne) {
                ++r.held;
                return false;
            }
            if (r.firstProceed == maxTick)
                r.firstProceed = tick;
            return stop;
        };
        while (t < to) {
            if (s.lastSettle != t) {
                // A hook already settled tick t+1 (its settle comes
                // before the gate of its own tick), or the state was
                // last settled before the span: one lazy step.
                s = project(s, t + 1);
                ++t;
                if (classify(t))
                    return r;
                continue;
            }
            // Constant rate up to and including the next adaptation
            // tick E (which still refills at the old rate).
            const Tick e = s.aiAnchor + cfg_.paceAiInterval;
            tcpni_assert(e > t);
            const Tick end = std::min(e, to);
            const uint64_t len = end - t;
            if (s.tokens >= rateOne) {
                if (classify(t + 1))
                    return r;
            } else {
                // First j with tokens + j * rate >= rateOne (the cap
                // is at least one message, so it never binds first).
                const uint64_t need = rateOne - s.tokens;
                const uint64_t j = (need + s.rate - 1) / s.rate;
                r.held += std::min(len, j - 1);
                if (j <= len && r.firstProceed == maxTick) {
                    r.firstProceed = t + j;
                    if (stop)
                        return r;
                }
            }
            const uint64_t room = bucketCap() - s.tokens;
            s.tokens = len >= (room + s.rate - 1) / s.rate
                           ? bucketCap()
                           : s.tokens + len * s.rate;
            s.lastSettle = t = end;
            if (end == e) {
                if (oafullNow_) {
                    ++s.mdEvents;
                    s.rate = std::max<uint32_t>(1, s.rate / 2);
                    s.aiAnchor = holdoffAnchor(e);
                } else {
                    ++s.aiSteps;
                    s.rate = std::min(s.rate + cfg_.paceAiStep,
                                      rateOne);
                    s.aiAnchor = e;
                }
            }
        }
        return r;
    }

    /** The state as of @p now: a blocked sender's deemed gates up to
     *  @p now applied, as the metrics sampler must see them. */
    State
    stateAt(Tick now) const
    {
        NodeId dst;
        Tick from;
        return blockedSpan(now, dst, from) ? replay(from, now, false).st
                                           : st_;
    }

    uint64_t
    bucketCap() const
    {
        return static_cast<uint64_t>(cfg_.paceBurst) * rateOne;
    }

    /**
     * Anchor such that the next adaptation event fires a whole
     * post-decrease holdoff (paceAiHoldoff intervals) after @p now.
     */
    Tick
    holdoffAnchor(Tick now) const
    {
        return now + static_cast<Tick>(cfg_.paceAiHoldoff - 1) *
                         cfg_.paceAiInterval;
    }

    void settle(Tick now) { st_ = project(st_, now); }

    /** Delivery delay considered congested, in baselines. */
    static constexpr uint64_t kDelayMult = 4;

    State st_;
    bool oafullNow_ = false;

    /** Send ticks of in-flight messages, FIFO per destination. */
    std::map<NodeId, std::deque<Tick>> outstanding_;
    /** Baseline (minimum observed) delivery delay per destination;
     *  0 means "no sample yet". */
    std::map<NodeId, uint64_t> minDelay_;
    Tick lastDelayMd_ = 0;
};

} // namespace

std::unique_ptr<Policy>
makePacedPolicy(const TransportConfig &cfg)
{
    auto p = std::make_unique<PacedPolicy>(cfg);
    return p;
}

} // namespace transport
} // namespace tcpni
