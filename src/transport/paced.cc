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
 * paceMinRate), and if the level STAYS asserted a whole holdoff later
 * it halves again -- oafull is a level, not a pulse, and a queue that
 * stays above threshold is repeated evidence the rate is still too
 * high.  Every paceAiInterval ticks of clear running adds paceAiStep
 * (additive increase, capped at paceMaxRate), EXCEPT during the
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
 * bucket and rate as of `now` without mutating anything (so the CPU's
 * side-effect-free wouldHold() pre-check agrees exactly with the
 * subsequent gate()), and gate()/onOafull() commit the projection.
 */

#include <algorithm>
#include <deque>
#include <map>

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
        : Policy(cfg), rate_(cfg.paceRate),
          tokens_(static_cast<uint64_t>(cfg.paceBurst) * rateOne)
    {}

    // The metrics lambdas below read members of THIS class; retire
    // them before those members are destroyed.
    ~PacedPolicy() override { retireMetrics(); }

    const char *name() const override { return "paced"; }

    Verdict
    gate(NodeId, Tick now) override
    {
        settle(now);
        if (tokens_ < rateOne) {
            countHold();
            return Verdict::hold;
        }
        return Verdict::proceed;
    }

    bool
    wouldHold(NodeId, Tick now) const override
    {
        return project(now).tokens < rateOne;
    }

    void
    onAdmit(NodeId dst, Tick now) override
    {
        Policy::onAdmit(dst, now);
        settle(now);
        tokens_ -= std::min<uint64_t>(tokens_, rateOne);
        outstanding_[dst].push_back(now);
    }

    bool wantsCredits() const override { return true; }

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
            rate_ = std::max(cfg_.paceMinRate, rate_ / 2);
            ++mdEvents_;
            lastDelayMd_ = now;
            aiAnchor_ = holdoffAnchor(now);
        }
    }

    void
    onOafull(bool asserted, Tick now) override
    {
        Policy::onOafull(asserted, now);
        settle(now);
        if (asserted) {
            rate_ = std::max(cfg_.paceMinRate, rate_ / 2);
            ++mdEvents_;
            oafullNow_ = true;
            aiAnchor_ = holdoffAnchor(now);
        } else {
            oafullNow_ = false;
            // The holdoff a decrease scheduled stays in force: AI
            // resumes paceAiHoldoff intervals after the LAST decrease,
            // not one interval after the queue first drains.
            aiAnchor_ = std::max(aiAnchor_, now);
        }
    }

  protected:
    void
    addMetrics(metrics::Group &g) override
    {
        g.addCounter("md_events", [this] { return mdEvents_; },
                     "multiplicative decreases");
        g.addCounter("ai_steps", [this] { return aiSteps_; },
                     "additive-increase steps applied");
        g.addGauge("rate_fp", [this] { return rate_; },
                   "pacing rate, rateOne fixed point per tick");
        g.addGauge("tokens_fp", [this] { return tokens_; },
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

  private:
    struct Projection
    {
        uint32_t rate;
        uint64_t tokens;
        Tick aiAnchor;
        uint64_t aiSteps;
        uint64_t mdSteps;
    };

    /** Bucket and rate as of @p now; pure. */
    Projection
    project(Tick now) const
    {
        Projection p{rate_, tokens_, aiAnchor_, 0, 0};
        if (now > lastSettle_) {
            // Refill at the pre-adaptation rate over the whole span
            // (conservative and exactly reproducible), then adapt.
            p.tokens = std::min(
                p.tokens + static_cast<uint64_t>(rate_) *
                               (now - lastSettle_),
                static_cast<uint64_t>(cfg_.paceBurst) * rateOne);
        }
        if (now > p.aiAnchor) {
            uint64_t steps = (now - p.aiAnchor) / cfg_.paceAiInterval;
            if (steps) {
                if (oafullNow_) {
                    // oafull is a level: a queue still above its
                    // threshold a whole holdoff after the last
                    // decrease is repeated evidence the rate remains
                    // too high, so halve again and re-arm the holdoff
                    // (TCP would see one loss per RTT).
                    p.mdSteps = 1;
                    p.rate = std::max(cfg_.paceMinRate, p.rate / 2);
                    p.aiAnchor = holdoffAnchor(now);
                } else {
                    p.aiSteps = steps;
                    p.rate = static_cast<uint32_t>(std::min<uint64_t>(
                        static_cast<uint64_t>(p.rate) +
                            steps * cfg_.paceAiStep,
                        cfg_.paceMaxRate));
                    p.aiAnchor += steps * cfg_.paceAiInterval;
                }
            }
        }
        return p;
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

    void
    settle(Tick now)
    {
        Projection p = project(now);
        rate_ = p.rate;
        tokens_ = p.tokens;
        aiAnchor_ = p.aiAnchor;
        lastSettle_ = std::max(lastSettle_, now);
        aiSteps_ += p.aiSteps;
        mdEvents_ += p.mdSteps;
    }

    /** Delivery delay considered congested, in baselines. */
    static constexpr uint64_t kDelayMult = 4;

    uint32_t rate_;
    uint64_t tokens_;
    Tick lastSettle_ = 0;
    Tick aiAnchor_ = 0;
    bool oafullNow_ = false;

    /** Send ticks of in-flight messages, FIFO per destination. */
    std::map<NodeId, std::deque<Tick>> outstanding_;
    /** Baseline (minimum observed) delivery delay per destination;
     *  0 means "no sample yet". */
    std::map<NodeId, uint64_t> minDelay_;
    Tick lastDelayMd_ = 0;

    uint64_t mdEvents_ = 0;  //!< multiplicative decreases
    uint64_t aiSteps_ = 0;   //!< additive-increase steps applied
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
