/**
 * @file
 * Configuration of a network interface instance: its placement
 * (Section 3's three implementations) and which of the Section-2.2
 * hardware optimizations are present.
 *
 * The paper's six evaluation models are the cross product of
 * { off-chip cache, on-chip cache, register-file } placement with
 * { basic, optimized } feature sets.  For the ablation benchmarks the
 * individual optimizations can also be toggled independently.
 *
 * Everything that *differs by placement* (access latency, addressing
 * mode, folded NI commands, kernel sequence selection) lives behind
 * the PlacementPolicy interface (placement_policy.hh); the model set
 * itself is extensible through the registry (model_registry.hh).
 */

#ifndef TCPNI_NI_CONFIG_HH
#define TCPNI_NI_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace ni
{

class PlacementPolicy;

/** Where the interface sits relative to the processor (Section 3). */
enum class Placement : uint8_t
{
    offChipCache,   //!< Sec 3.1: on the external cache bus (the NIC chip)
    onChipCache,    //!< Sec 3.2: on the internal cache bus
    registerFile,   //!< Sec 3.3: mapped into the register file
    onNi,           //!< handlers execute on the interface itself (HPU)
};

/** Which Section-2.2 hardware optimizations are implemented. */
struct Features
{
    bool encodedTypes = true;       //!< Sec 2.2.1: 4-bit type in SEND
    bool fastReplyForward = true;   //!< Sec 2.2.2: REPLY / FORWARD modes
    bool hwDispatch = true;         //!< Sec 2.2.3: MsgIp / NextMsgIp
    bool hwBoundaryChecks = true;   //!< Sec 2.2.4: iafull/oafull in MsgIp

    static Features basic()
    {
        return {false, false, false, false};
    }
    static Features optimized() { return {}; }

    bool
    anyOptimization() const
    {
        return encodedTypes || fastReplyForward || hwDispatch ||
               hwBoundaryChecks;
    }

    bool operator==(const Features &) const = default;
};

/** Full configuration of one network interface. */
struct NiConfig
{
    Placement placement = Placement::registerFile;
    Features features = Features::optimized();

    unsigned inputQueueDepth = 16;
    unsigned outputQueueDepth = 16;

    /** Default queue thresholds loaded into CONTROL at reset. */
    unsigned inputThreshold = 12;
    unsigned outputThreshold = 12;

    /** Capacity of the privileged escrow queue (Section 2.1.3).
     *  Overflow is fatal -- in hardware the OS must drain it.  The
     *  backing store is allocated lazily on first use. */
    unsigned privQueueDepth = 1024;

    /**
     * Extra load-use delay cycles the processor sees on a load from
     * this interface; placement-dependent (see PlacementPolicy).
     */
    Cycles loadUseDelay() const;

    /** Off-chip read latency knob for the Section 4.2.3 sensitivity. */
    Cycles offChipLoadUseDelay = 2;

    /** Emit an inform() line for every message sent and received
     *  (suppressed when logging::quiet is set). */
    bool traceMessages = false;

    /** Output-side transport policy and its knobs (src/transport).
     *  The default "naive" policy is the paper's interface verbatim:
     *  the System installs no policy object and the NI output path is
     *  untouched. */
    transport::TransportConfig transport;

    /** The placement-policy implementation for this configuration. */
    const PlacementPolicy &policy() const;

    /**
     * Check the configuration's internal consistency: queue depths
     * must be nonzero and thresholds must not exceed the depths (a
     * threshold above its queue depth silently produces an interface
     * that never raises iafull/oafull).  fatal()s on violation;
     * called at System construction.
     */
    void validate() const;
};

/** One evaluation model: a placement plus a feature set.  The paper's
 *  six models use the default off-chip latency; the registry's
 *  Section 4.2.3 "far off-chip" variant raises it. */
struct Model
{
    Placement placement;
    bool optimized;

    /** Off-chip load-use delay this model's config carries (2 is the
     *  paper's 88100 value; Section 4.2.3 studies up to 8). */
    Cycles offchipLoadUseDelay = 2;

    NiConfig
    config() const
    {
        NiConfig c;
        c.placement = placement;
        c.features = optimized ? Features::optimized() : Features::basic();
        c.offChipLoadUseDelay = offchipLoadUseDelay;
        return c;
    }

    /** A copy of this model with a different off-chip latency (the
     *  Section 4.2.3 parameterization). */
    Model
    withOffchipDelay(Cycles d) const
    {
        Model m = *this;
        m.offchipLoadUseDelay = d;
        return m;
    }

    /** The placement-policy implementation for this model. */
    const PlacementPolicy &policy() const;

    std::string name() const;
    std::string shortName() const;

    bool operator==(const Model &) const = default;
};

/** Canonical placement name, from the placement policy. */
std::string placementName(Placement p);

} // namespace ni
} // namespace tcpni

#endif // TCPNI_NI_CONFIG_HH
