/**
 * @file
 * The window policy: a static credit window per destination.
 *
 * At most cfg.window messages may be in flight from this node to any
 * one destination; a send attempt beyond that holds (the architectural
 * SEND stall) until the destination's interface accepts an earlier
 * message and the CreditFabric returns the credit.  This is the
 * classic RDMA-style sender-side flow control (cf. the send-credit
 * windows of MPICH2-over-InfiniBand): in-flight state is bounded per
 * flow, so an incast cannot pile every client's full output queue into
 * the server's mesh neighborhood.
 *
 * Stall accounting is time-weighted: exhaustedDstTicks integrates the
 * number of destinations sitting at the window limit over time (a
 * destination that stays exhausted for 1000 ticks weighs 1000x one
 * that blips), which is the number the serving harness correlates
 * against tail latency.
 *
 * Determinism: the per-destination map is ordered, all folds are
 * commutative sums, and every mutation happens on the owning node's
 * event queue.
 */

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace transport
{

namespace
{

class WindowPolicy : public Policy
{
  public:
    explicit WindowPolicy(const TransportConfig &cfg) : Policy(cfg) {}

    // The metrics lambdas below read members of THIS class; retire
    // them before those members are destroyed.
    ~WindowPolicy() override { retireMetrics(); }

    const char *name() const override { return "window"; }

    Verdict
    gate(NodeId dst, Tick) override
    {
        if (exhausted(dst)) {
            countHold();
            return Verdict::hold;
        }
        return Verdict::proceed;
    }

    void
    onAdmit(NodeId dst, Tick now) override
    {
        Policy::onAdmit(dst, now);
        uint32_t &n = inFlight_[dst];
        ++n;
        if (n == cfg_.window)
            setExhausted(+1, now);
    }

    void
    onCredit(NodeId dst, uint32_t count, Tick now) override
    {
        Policy::onCredit(dst, count, now);
        auto it = inFlight_.find(dst);
        tcpni_assert(it != inFlight_.end() && it->second >= count);
        bool was_exhausted = it->second >= cfg_.window;
        it->second -= count;
        if (was_exhausted && it->second < cfg_.window)
            setExhausted(-1, now);
    }

  protected:
    void
    addMetrics(metrics::Group &g, EventQueue &) override
    {
        g.addCounter("exhausted_dst_ticks",
                     [this] { return exhaustedDstTicks_; },
                     "destination-ticks spent at the window limit");
        g.addGauge("exhausted_dsts",
                   [this] { return exhausted_; },
                   "destinations currently at the window limit");
        g.addGauge("peak_exhausted_dsts",
                   [this] { return peakExhausted_; },
                   "most destinations simultaneously at the limit");
    }

    // The verdict does not change with time, only on a credit: a
    // blocked sender's deemed gates all hold or all proceed.
    uint64_t
    heldInSpan(NodeId dst, Tick from, Tick to) const override
    {
        return to > from && exhausted(dst) ? to - from : 0;
    }

    Tick
    firstProceedAfter(NodeId dst, Tick from) const override
    {
        return exhausted(dst) ? maxTick : from + 1;
    }

  private:
    bool
    exhausted(NodeId dst) const
    {
        auto it = inFlight_.find(dst);
        return it != inFlight_.end() && it->second >= cfg_.window;
    }

    void
    setExhausted(int delta, Tick now)
    {
        if (now > lastLevelTick_) {
            exhaustedDstTicks_ += exhausted_ * (now - lastLevelTick_);
            lastLevelTick_ = now;
        }
        exhausted_ += delta;
        peakExhausted_ = std::max(peakExhausted_, exhausted_);
    }

    std::map<NodeId, uint32_t> inFlight_;
    uint64_t exhausted_ = 0;   //!< destinations at the window limit
    Tick lastLevelTick_ = 0;
    uint64_t exhaustedDstTicks_ = 0;  //!< time integral of exhausted_
    uint64_t peakExhausted_ = 0;      //!< most destinations at the limit
};

} // namespace

std::unique_ptr<Policy>
makeWindowPolicy(const TransportConfig &cfg)
{
    return std::make_unique<WindowPolicy>(cfg);
}

} // namespace transport
} // namespace tcpni
