#include "transport/transport.hh"

#include "common/logging.hh"

namespace tcpni
{
namespace transport
{

Policy::~Policy()
{
    retireMetrics();
}

void
Policy::retireMetrics()
{
    if (mgroup_)
        mgroup_->retire();
}

void
Policy::onAdmit(NodeId, Tick)
{
    ++admits_;
}

void
Policy::onOafull(bool, Tick)
{
    ++oafullEdges_;
}

void
Policy::onCredit(NodeId, uint32_t count, Tick)
{
    creditsReturned_ += count;
}

void
Policy::block(NodeId dst, Tick at)
{
    blocked_ = true;
    blockedDst_ = dst;
    blockedFrom_ = at;
}

uint64_t
Policy::catchUp(Tick to)
{
    tcpni_assert(blocked_);
    if (to <= blockedFrom_)
        return 0;
    const uint64_t held = settleSpan(blockedDst_, blockedFrom_, to);
    holds_ += static_cast<int64_t>(held);
    const uint64_t proceeded = (to - blockedFrom_) - held;
    blockedFrom_ = to;
    return proceeded;
}

Tick
Policy::firstProceed() const
{
    tcpni_assert(blocked_);
    return firstProceedAfter(blockedDst_, blockedFrom_);
}

uint64_t
Policy::heldInSpan(NodeId dst, Tick from, Tick to) const
{
    return to > from && wouldHold(dst, to) ? to - from : 0;
}

uint64_t
Policy::settleSpan(NodeId dst, Tick from, Tick to)
{
    return heldInSpan(dst, from, to);
}

Tick
Policy::firstProceedAfter(NodeId dst, Tick from) const
{
    return wouldHold(dst, from + 1) ? maxTick : from + 1;
}

uint64_t
Policy::pendingHolds(Tick now) const
{
    NodeId dst;
    Tick from;
    return blockedSpan(now, dst, from) ? heldInSpan(dst, from, now) : 0;
}

void
Policy::attachMetrics(const std::string &name, EventQueue &eq)
{
    auto *r = metrics::registry();
    if (!r)
        return;
    mgroup_ = r->addGroup(name, eq);
    mgroup_->addCounter("holds",
                        [this, &eq] {
                            return holds_ + static_cast<int64_t>(
                                                pendingHolds(eq.curTick()));
                        },
                        "send attempts held by the policy");
    mgroup_->addCounter("admits", [this] { return admits_; },
                        "messages admitted to the output queue");
    mgroup_->addCounter("credits",
                        [this] { return creditsReturned_; },
                        "delivery credits folded in");
    mgroup_->addCounter("oafull_edges",
                        [this] { return oafullEdges_; },
                        "oafull edges observed");
    addMetrics(*mgroup_, eq);
}

namespace
{

/** The paper's behavior: never hold.  Selecting "naive" explicitly
 *  behaves identically to the System's fast path of installing no
 *  policy at all; the class exists so the table is total and unit
 *  tests can exercise the interface uniformly. */
class NaivePolicy : public Policy
{
  public:
    using Policy::Policy;

    const char *name() const override { return "naive"; }

    Verdict
    gate(NodeId, Tick) override
    {
        return Verdict::proceed;
    }

    bool wouldHold(NodeId, Tick) const override { return false; }
};

std::unique_ptr<Policy>
makeNaivePolicy(const TransportConfig &cfg)
{
    return std::make_unique<NaivePolicy>(cfg);
}

} // namespace

std::unique_ptr<Policy> makeWindowPolicy(const TransportConfig &cfg);
std::unique_ptr<Policy> makePacedPolicy(const TransportConfig &cfg);

const std::array<PolicyInfo, 3> &
registeredPolicies()
{
    static constexpr std::array<PolicyInfo, 3> policies = {{
        {"naive", "the paper's interface: no output-side flow control",
         makeNaivePolicy},
        {"window",
         "static per-destination credit window, credits returned on "
         "delivery",
         makeWindowPolicy},
        {"paced",
         "token-bucket pacing with AIMD rate adaptation on oafull "
         "feedback",
         makePacedPolicy},
    }};
    return policies;
}

const PolicyInfo *
findPolicy(const std::string &name)
{
    for (const PolicyInfo &p : registeredPolicies()) {
        if (name == p.name)
            return &p;
    }
    return nullptr;
}

std::string
policyNames()
{
    std::string out;
    for (const PolicyInfo &p : registeredPolicies()) {
        if (!out.empty())
            out += ", ";
        out += p.name;
    }
    return out;
}

std::unique_ptr<Policy>
makePolicy(const TransportConfig &cfg)
{
    const PolicyInfo *info = findPolicy(cfg.policy);
    if (!info) {
        fatal("transport: unknown policy '%s' (registered: %s)",
              cfg.policy.c_str(), policyNames().c_str());
    }
    return info->make(cfg);
}

} // namespace transport
} // namespace tcpni
