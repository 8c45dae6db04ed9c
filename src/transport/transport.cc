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
Policy::attachMetrics(const std::string &name, EventQueue &eq)
{
    auto *r = metrics::registry();
    if (!r)
        return;
    mgroup_ = r->addGroup(name, eq);
    mgroup_->addCounter("holds", [this] { return holds_; },
                        "send attempts held by the policy");
    mgroup_->addCounter("admits", [this] { return admits_; },
                        "messages admitted to the output queue");
    mgroup_->addCounter("credits",
                        [this] { return creditsReturned_; },
                        "delivery credits folded in");
    mgroup_->addCounter("oafull_edges",
                        [this] { return oafullEdges_; },
                        "oafull edges observed");
    addMetrics(*mgroup_);
}

namespace
{

/** The paper's behavior: never hold.  Selecting "naive" explicitly
 *  behaves identically to the System's fast path of installing no
 *  policy at all; the class exists so the registry is total and unit
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

} // namespace

std::unique_ptr<Policy> makeWindowPolicy(const TransportConfig &cfg);
std::unique_ptr<Policy> makePacedPolicy(const TransportConfig &cfg);

PolicyRegistry::PolicyRegistry()
{
    add({"naive",
         "the paper's interface: no output-side flow control",
         "transport.cc (built-in)",
         [](const TransportConfig &cfg) {
             return std::make_unique<NaivePolicy>(cfg);
         }});
    add({"window",
         "static per-destination credit window, credits returned on "
         "delivery",
         "window.cc (built-in)",
         makeWindowPolicy});
    add({"paced",
         "token-bucket pacing with AIMD rate adaptation on oafull "
         "feedback",
         "paced.cc (built-in)",
         makePacedPolicy});
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry reg;
    return reg;
}

void
PolicyRegistry::add(PolicyInfo info)
{
    if (info.name.empty())
        fatal("transport::PolicyRegistry: empty policy name");
    if (!info.make)
        fatal("transport::PolicyRegistry: policy '%s' has no factory",
              info.name.c_str());
    for (const PolicyInfo &e : entries_) {
        if (e.name == info.name) {
            fatal("transport::PolicyRegistry: duplicate policy '%s' "
                  "(held by %s, re-registered by %s)",
                  info.name.c_str(),
                  e.origin.empty() ? "<unknown>" : e.origin.c_str(),
                  info.origin.empty() ? "<unknown>"
                                      : info.origin.c_str());
        }
    }
    entries_.push_back(std::move(info));
}

const PolicyInfo *
PolicyRegistry::find(const std::string &name) const
{
    for (const PolicyInfo &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

std::string
PolicyRegistry::names() const
{
    std::string out;
    for (const PolicyInfo &e : entries_) {
        if (!out.empty())
            out += ", ";
        out += e.name;
    }
    return out;
}

std::unique_ptr<Policy>
makePolicy(const TransportConfig &cfg)
{
    const PolicyInfo *info = PolicyRegistry::instance().find(cfg.policy);
    if (!info) {
        fatal("transport: unknown policy '%s' (registered: %s)",
              cfg.policy.c_str(),
              PolicyRegistry::instance().names().c_str());
    }
    return info->make(cfg);
}

} // namespace transport
} // namespace tcpni
