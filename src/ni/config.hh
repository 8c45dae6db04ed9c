/**
 * @file
 * Configuration of a network interface instance: its placement
 * (Section 3's three implementations, plus On-NI) and whether it
 * carries the Section-2.2 hardware optimizations.
 *
 * The paper's six evaluation models are the cross product of
 * { off-chip cache, on-chip cache, register-file } placement with
 * { basic, optimized }.  The optimizations are all-or-nothing: the
 * kernel library has handler and sender sequences only for the basic
 * and the optimized interface, so `optimized` is one bit.
 *
 * Everything that *differs by placement* (access latency, register
 * mapping, kernel sequence selection) is a column of the placement
 * table (placement_policy.hh); the model set is the constant table in
 * model_registry.hh.
 */

#ifndef TCPNI_NI_CONFIG_HH
#define TCPNI_NI_CONFIG_HH

#include <string>

#include "ni/placement_policy.hh"
#include "sim/types.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace ni
{

/** Full configuration of one network interface. */
struct NiConfig
{
    Placement placement = Placement::registerFile;

    /** All four Section-2.2 optimizations (false: the basic
     *  interface): 2.2.1 encoded 4-bit types in SEND, 2.2.2 the
     *  REPLY / FORWARD modes, 2.2.3 MsgIp / NextMsgIp dispatch and
     *  2.2.4 the iafull/oafull boundary checks folded into MsgIp. */
    bool optimized = true;

    unsigned inputQueueDepth = 16;
    unsigned outputQueueDepth = 16;

    /** Default queue thresholds loaded into CONTROL at reset. */
    unsigned inputThreshold = 12;
    unsigned outputThreshold = 12;

    /** Off-chip read latency knob for the Section 4.2.3 sensitivity. */
    Cycles offChipLoadUseDelay = 2;

    /** Output-side transport policy and its knobs (src/transport).
     *  The default "naive" policy is the paper's interface verbatim:
     *  the System installs no policy object and the NI output path is
     *  untouched.  Any other policy gates harness senders only; a
     *  node that boots a program rejects it. */
    transport::TransportConfig transport;

    /** Capacity of the privileged escrow queue (Section 2.1.3).
     *  Overflow is fatal -- in hardware the OS must drain it.  The
     *  backing store is allocated lazily on first use. */
    static constexpr unsigned privQueueDepth = 1024;

    /** This configuration's row of the placement table. */
    const PlacementPolicy &
    policy() const
    {
        return placementPolicy(placement);
    }

    /** Extra load-use delay cycles the processor sees on a load from
     *  this interface: the off-chip knob on an off-chip row, else 0. */
    Cycles
    loadUseDelay() const
    {
        return policy().offChip ? offChipLoadUseDelay : 0;
    }

    /**
     * Check the configuration's internal consistency: queue depths
     * must be nonzero and thresholds must not exceed the depths (a
     * threshold above its queue depth silently produces an interface
     * that never raises iafull/oafull).  fatal()s on violation;
     * called at System construction.
     */
    void validate() const;
};

/** One evaluation model: a placement, basic or optimized.  The
 *  paper's six models use the default off-chip latency; the
 *  registry's Section 4.2.3 "far off-chip" variant raises it. */
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
        c.optimized = optimized;
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

    /** This model's row of the placement table. */
    const PlacementPolicy &
    policy() const
    {
        return placementPolicy(placement);
    }

    std::string name() const;
    std::string shortName() const;

    bool operator==(const Model &) const = default;
};

/** Canonical placement name, from the placement table. */
inline std::string
placementName(Placement p)
{
    return placementPolicy(p).name;
}

} // namespace ni
} // namespace tcpni

#endif // TCPNI_NI_CONFIG_HH
