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
 * registry of policies, mirroring the PlacementPolicy / ModelRegistry
 * pattern (and, in spirit, FreeBSD's pluggable TCP stacks: named
 * implementations behind one function-table interface, selected per
 * configuration).  The NetworkInterface consults its policy instance
 *
 *  - on every send attempt (gate(): proceed or hold, where hold
 *    surfaces as the architectural SEND stall, so the retry loop is
 *    the same one a full output queue drives), and
 *  - on every oafull edge (onOafull(): the only congestion signal the
 *    paper's hardware already has).
 *
 * Three policies ship:
 *
 *  - naive: the paper's behavior, bit-for-bit.  The default; when it
 *    is selected the NI carries a null policy pointer and every hook
 *    reduces to one null test, so the paper goldens cannot move.
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
 * Determinism: every policy is per-NI state mutated only from its own
 * shard's event queue (gate/onAdmit/onOafull from the NI itself,
 * onCredit from a CreditFabric drain event scheduled on the sender's
 * queue), and all arithmetic is integer, so sharded runs reproduce
 * single-queue runs exactly (see tests/transport/).
 */

#ifndef TCPNI_TRANSPORT_TRANSPORT_HH
#define TCPNI_TRANSPORT_TRANSPORT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

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
    /** Policy name; must resolve in the PolicyRegistry. */
    std::string policy = "naive";

    /** window: max messages in flight per destination (>= 1). */
    unsigned window = 4;

    /** @{ paced: token-bucket knobs.  Rates are in rateOne fixed
     *     point per tick, so rateOne == one message per tick (the
     *     pump's line rate) and 1 == one message per 1024 ticks. */
    unsigned paceRate = 256;       //!< initial fill rate
    unsigned paceMinRate = 1;      //!< AIMD floor
    unsigned paceMaxRate = rateOne;//!< AIMD ceiling
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

    /** Registry name of this policy. */
    virtual const char *name() const = 0;

    /** Gate a send attempt to @p dst at @p now.  May mutate policy
     *  state (token refill, hold accounting). */
    virtual Verdict gate(NodeId dst, Tick now) = 0;

    /**
     * Side-effect-free preview of gate(): true iff gate() would hold.
     * The CPU's SEND pre-check uses this so a stalled instruction
     * retries without double side effects; wouldHold(d, t) == false
     * must imply gate(d, t) == proceed.
     */
    virtual bool wouldHold(NodeId dst, Tick now) const = 0;

    /** A message to @p dst was admitted to the output queue. */
    virtual void onAdmit(NodeId dst, Tick now);

    /** The output queue crossed its oafull threshold (@p asserted
     *  rising, else falling). */
    virtual void onOafull(bool asserted, Tick now);

    /** @p count messages to @p dst were accepted by the destination
     *  interface (delivered via the CreditFabric). */
    virtual void onCredit(NodeId dst, uint32_t count, Tick now);

    /** Does this policy need delivery notifications?  When false the
     *  System wires no CreditFabric slot for the node. */
    virtual bool wantsCredits() const { return false; }

    /** @{ Base accounting, maintained by the hook default impls
     *     (overriders must call the base). */
    int64_t holds() const { return holds_; }
    int64_t admits() const { return admits_; }
    int64_t creditsReturned() const { return creditsReturned_; }
    int64_t oafullEdges() const { return oafullEdges_; }
    /** @} */

    /** Count one hold verdict; policies call this from gate(). */
    void countHold() { ++holds_; }

    /** Register a metrics group when a registry is installed (inert
     *  otherwise), mirroring the NI's telemetry pattern. */
    void attachMetrics(const std::string &name, EventQueue &eq);

  protected:
    /** Policy-specific metrics series. */
    virtual void addMetrics(metrics::Group &) {}

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
    std::shared_ptr<metrics::Group> mgroup_;
};

/** A registered policy: name, origin (for duplicate diagnostics, as
 *  in ModelRegistry), and factory. */
struct PolicyInfo
{
    std::string name;
    std::string description;
    std::string origin;
    std::function<std::unique_ptr<Policy>(const TransportConfig &)>
        make;
};

/**
 * The process-wide policy registry, seeded with naive / window /
 * paced.  Extensions register at static-init time or from main();
 * a duplicate name is fatal and names both origins.
 */
class PolicyRegistry
{
  public:
    static PolicyRegistry &instance();

    void add(PolicyInfo info);

    /** Look up by name; nullptr when absent. */
    const PolicyInfo *find(const std::string &name) const;

    const std::vector<PolicyInfo> &all() const { return entries_; }

    /** "naive, window, paced" -- for diagnostics. */
    std::string names() const;

  private:
    PolicyRegistry();

    std::vector<PolicyInfo> entries_;
};

/** Instantiate @p cfg.policy from the registry; fatal()s on an
 *  unknown name, listing the registered ones. */
std::unique_ptr<Policy> makePolicy(const TransportConfig &cfg);

} // namespace transport
} // namespace tcpni

#endif // TCPNI_TRANSPORT_TRANSPORT_HH
