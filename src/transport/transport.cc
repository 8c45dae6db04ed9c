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
Policy::settleSpan(NodeId dst, Tick from, Tick to)
{
    return heldInSpan(dst, from, to);
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

std::unique_ptr<Policy> makeWindowPolicy(const TransportConfig &cfg);
std::unique_ptr<Policy> makePacedPolicy(const TransportConfig &cfg);

const std::array<PolicyInfo, 3> &
registeredPolicies()
{
    static constexpr std::array<PolicyInfo, 3> policies = {{
        {"naive", "the paper's interface: no output-side flow control",
         nullptr},
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
    return info->make ? info->make(cfg) : nullptr;
}

} // namespace transport
} // namespace tcpni
