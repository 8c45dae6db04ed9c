/**
 * @file
 * Pluggable output-side transport policies.
 *
 * The paper's interface has exactly one output-side flow-control
 * mechanism: the oafull threshold pair (Section 2.2.4), which tells
 * the *handler* that the output queue is filling.  Nothing governs how
 * fast a node may push messages toward one destination, so an incast
 * (N clients converging on one server) degenerates into mesh-wide
 * tree saturation and unbounded tail latency.
 *
 * This layer adds the sender-side half of a modern NIC transport as a
 * constant table of policies, the same shape as the model table
 * (ni/model_registry.hh) and, in spirit, FreeBSD's pluggable TCP
 * stacks: named implementations behind one virtual interface,
 * selected per configuration by TransportConfig::policy.  A policy
 * gates the serving harness's senders (sys::TrafficGen) only: a node
 * that boots a program rejects one (sys::Node::boot), so a
 * processor's SEND stalls on a full output queue and nothing else.
 * The NetworkInterface consults its policy instance
 *
 *  - on every send attempt (gate(): proceed or hold, where hold
 *    surfaces as the architectural SEND stall, exactly like a full
 *    output queue), and
 *  - on every oafull edge (onOafull(): the only congestion signal the
 *    paper's hardware already has).
 *
 * A stalled harness sender does not retry every tick: it sleeps, and
 * the NI wakes it when a retry could first succeed (DESIGN.md, "Park
 * and wake").  While it sleeps, gate(dst, t) is deemed to run at every
 * tick t; the NI applies those deemed gates in closed form through
 * block() / catchUp() / firstProceed(), which reproduce the holds and
 * the policy state of tick-by-tick gate() calls exactly.
 *
 * Three policies ship:
 *
 *  - naive: the paper's behavior, bit-for-bit.  The default, and no
 *    policy object: the NI carries a null policy pointer and every
 *    hook reduces to one null test, so the paper goldens cannot move.
 *  - window: a static credit window per destination.  At most
 *    `window` messages may be in flight to any one destination;
 *    credits return when the destination's interface accepts the
 *    message (see CreditFabric).  Exhaustion is accounted
 *    time-weighted (destination-ticks spent at the limit).
 *  - paced: token-bucket rate pacing with additive-increase /
 *    multiplicative-decrease adaptation driven by the local oafull
 *    signal -- the output queue crossing its threshold is the local
 *    evidence of downstream congestion -- plus a delay-based detector
 *    on the credit fabric's delivery notifications (deliveries far
 *    above the minimum observed baseline also halve the rate), since
 *    the local level goes quiet exactly when pacing binds.
 *
 * Determinism: every policy is per-NI state mutated only by events of
 * its machine's queue (gate/onAdmit/onOafull from the NI itself,
 * onCredit from a CreditFabric drain event), and all arithmetic is
 * integer, so a run is bit-reproducible (see tests/transport/).
 */

#ifndef TCPNI_TRANSPORT_TRANSPORT_HH
#define TCPNI_TRANSPORT_TRANSPORT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tcpni
{
namespace transport
{

/** One message in token-bucket fixed point (10 fractional bits). */
constexpr uint32_t rateOne = 1024;

/** Transport knobs carried by NiConfig; validated with it. */
struct TransportConfig
{
    /** Policy name; must name a row of registeredPolicies(). */
    std::string policy = "naive";

    /** window: max messages in flight per destination (>= 1). */
    unsigned window = 4;

    /** @{ paced: token-bucket knobs.  Rates are in rateOne fixed
     *     point per tick, so rateOne == one message per tick (the
     *     pump's line rate) and 1 == one message per 1024 ticks; AIMD
     *     keeps the rate within [1, rateOne]. */
    unsigned paceRate = 256;       //!< initial fill rate
    unsigned paceBurst = 2;        //!< bucket depth, messages
    unsigned paceAiStep = 4;       //!< additive increase per interval
    unsigned paceAiInterval = 256; //!< ticks of clear running per step
    //! Intervals of clear running after a multiplicative decrease
    //! before additive increase resumes.  The local oafull level
    //! clears as soon as pacing starts working, so without this
    //! post-decrease conservatism AI immediately re-inflates the rate
    //! back into congestion (the TCP analog is staying out of
    //! congestion avoidance right after a loss).
    unsigned paceAiHoldoff = 8;
    /** @} */

    bool operator==(const TransportConfig &) const = default;
};

/** Outcome of gating one send attempt. */
enum class Verdict : uint8_t
{
    proceed,  //!< admit the message to the output queue
    hold,     //!< surface as a SEND stall; the sender retries
};

/**
 * One node's transport policy instance.  Construct through
 * makePolicy(); the NetworkInterface consults it through the hooks
 * below.  All hooks run on the owning node's event queue.
 */
class Policy
{
  public:
    explicit Policy(const TransportConfig &cfg) : cfg_(cfg) {}
    virtual ~Policy();

    /** Table name of this policy. */
    virtual const char *name() const = 0;

    /** Gate a send attempt to @p dst at @p now.  May mutate policy
     *  state (token refill, hold accounting). */
    virtual Verdict gate(NodeId dst, Tick now) = 0;

    /** A message to @p dst was admitted to the output queue. */
    virtual void onAdmit(NodeId dst, Tick now);

    /** The output queue crossed its oafull threshold (@p asserted
     *  rising, else falling). */
    virtual void onOafull(bool asserted, Tick now);

    /** @p count messages to @p dst were accepted by the destination
     *  interface (delivered via the CreditFabric). */
    virtual void onCredit(NodeId dst, uint32_t count, Tick now);

    /** @{ Base accounting, maintained by the hook default impls
     *     (overriders must call the base). */
    int64_t holds() const { return holds_; }
    int64_t admits() const { return admits_; }
    int64_t creditsReturned() const { return creditsReturned_; }
    int64_t oafullEdges() const { return oafullEdges_; }
    /** @} */

    /** Count one hold verdict; policies call this from gate(). */
    void countHold() { ++holds_; }

    /** @{ Sleeping sender.  block(): a send to @p dst stalled at tick
     *     @p at and its sender sleeps; gate(dst, t) is deemed to run
     *     at every later tick until unblock().  catchUp() applies the
     *     deemed gates of every tick up to @p to, exactly as
     *     tick-by-tick gate() calls would (holds, and the policy's
     *     state), and returns how many of them proceeded.
     *     firstProceed() is the first tick after the last applied one
     *     whose deemed gate proceeds if no hook fires before it;
     *     maxTick when only a hook (a credit, an oafull edge) can open
     *     the gate.  Hooks do not catch up by themselves: the caller
     *     catches up to the tick before a hook, then calls it. */
    void block(NodeId dst, Tick at);
    uint64_t catchUp(Tick to);
    Tick firstProceed() const;
    void unblock() { blocked_ = false; }
    /** Deemed gates after the last applied one, up to @p now, that
     *  hold; pure (lazy counters read it mid-run). */
    uint64_t pendingHolds(Tick now) const;
    /** @} */

    /** Register a metrics group when a registry is installed (inert
     *  otherwise), mirroring the NI's telemetry pattern. */
    void attachMetrics(const std::string &name, EventQueue &eq);

  protected:
    /** Policy-specific metrics series; @p eq is the owning queue,
     *  whose clock lazily read series need. */
    virtual void addMetrics(metrics::Group &, EventQueue &) {}

    /** @{ Closed-form replay of the deemed gates of ticks
     *     (@p from, @p to] for a sender blocked on @p dst. */
    /** How many of the deemed gates hold; pure. */
    virtual uint64_t heldInSpan(NodeId dst, Tick from, Tick to) const = 0;
    /** Apply the deemed gates' effects other than counting holds;
     *  @return how many of them hold.  The default suits a policy
     *  whose gate() has no side effect besides countHold(). */
    virtual uint64_t settleSpan(NodeId dst, Tick from, Tick to);
    /** First t > @p from whose deemed gate proceeds, or maxTick. */
    virtual Tick firstProceedAfter(NodeId dst, Tick from) const = 0;
    /** @} */

    /** The blocked sender's destination and last applied tick, for
     *  policies that read their own state lazily. */
    bool blockedSpan(Tick now, NodeId &dst, Tick &from) const
    {
        dst = blockedDst_;
        from = blockedFrom_;
        return blocked_ && now > blockedFrom_;
    }

    /**
     * Snapshot and detach this policy's metrics series.  A policy
     * whose addMetrics() lambdas capture members of the DERIVED
     * class must call this from its own destructor: the base
     * destructor also retires (covering policies with base-only
     * series), but by then the derived members the lambdas read are
     * already gone.  Idempotent.
     */
    void retireMetrics();

    TransportConfig cfg_;

    int64_t holds_ = 0;           //!< gate() hold verdicts
    int64_t admits_ = 0;          //!< messages admitted
    int64_t creditsReturned_ = 0; //!< delivery credits folded in
    int64_t oafullEdges_ = 0;     //!< oafull edges observed

  private:
    bool blocked_ = false;
    NodeId blockedDst_ = 0;
    Tick blockedFrom_ = 0;  //!< last tick whose deemed gate is applied

    std::shared_ptr<metrics::Group> mgroup_;
};

/** One row of the policy table. */
struct PolicyInfo
{
    const char *name;
    const char *description;
    /** Null for naive, which installs no policy object. */
    std::unique_ptr<Policy> (*make)(const TransportConfig &);
};

/** The three policies: naive, window, paced. */
const std::array<PolicyInfo, 3> &registeredPolicies();

/** Look up by name; nullptr when absent. */
const PolicyInfo *findPolicy(const std::string &name);

/** "naive, window, paced" -- for diagnostics. */
std::string policyNames();

/** Instantiate @p cfg.policy from the table: null for naive.
 *  fatal()s on an unknown name, listing the table's. */
std::unique_ptr<Policy> makePolicy(const TransportConfig &cfg);

} // namespace transport
} // namespace tcpni

#endif // TCPNI_TRANSPORT_TRANSPORT_HH
