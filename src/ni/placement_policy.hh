/**
 * @file
 * The placement table: everything that differs between the paper's
 * three NI placements (Section 3), plus the On-NI extension, as one
 * constant row per Placement.  The CPU coupling, the kernel library,
 * the Table-1 cost model and the static verifier read these columns
 * and never branch on the raw Placement enum.
 *
 * A row answers four questions about its placement:
 *
 *  - registerMapped: are the NI registers aliased into the processor's
 *    register file (Section 3.3), or reached through a memory-mapped
 *    command window?  Register mapping also folds SEND / NEXT /
 *    REPLY / FORWARD into instruction bits (`!send`, `!next`).  With
 *    the optimized bit it selects every kernel spelling in one place:
 *    msg/kernels.cc's hand-scheduled Table-1 sets, and the lowering of
 *    the shared sources' NI pseudo-ops (msg::lowerNiAccess).
 *  - offChip: does a load from the interface cross the chip boundary
 *    and pay NiConfig::offChipLoadUseDelay (Section 3.1)?
 *  - escapeTable: does the optimized handler set dispatch >4-bit
 *    identifiers through an escape table (Section 2.2.1)?
 *  - handlersOnNi / handlerTimeBudget: do the handlers run on a
 *    handler processing unit inside the interface (sPIN-style), and
 *    how many cycles may one activation take?
 *
 * Adding a placement means adding an enum value, its row here and a
 * model in model_registry.cc; no other layer changes.
 */

#ifndef TCPNI_NI_PLACEMENT_POLICY_HH
#define TCPNI_NI_PLACEMENT_POLICY_HH

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace tcpni
{
namespace ni
{

/** Where the interface sits relative to the processor (Section 3). */
enum class Placement : uint8_t
{
    offChipCache,   //!< Sec 3.1: on the external cache bus (the NIC chip)
    onChipCache,    //!< Sec 3.2: on the internal cache bus
    registerFile,   //!< Sec 3.3: mapped into the register file
    onNi,           //!< handlers execute on the interface itself (HPU)
};

/** One placement's row of the table. */
struct PlacementPolicy
{
    const char *name;         //!< "Register Mapped", "On-chip Cache", ...
    const char *shortName;    //!< CLI tag: "reg", "on", "off", "onni"
    const char *columnLabel;  //!< table column: "Reg", "On-chip", ...

    /** NI registers live in the register file; otherwise loads and
     *  stores reach them through the command window. */
    bool registerMapped;

    /** Loads from the interface pay NiConfig::offChipLoadUseDelay. */
    bool offChip;

    /** The optimized handler set has an escape dispatch table. */
    bool escapeTable;

    /**
     * The handlers run on the interface's HPU, compiled against
     * HPU-local register access with no NI load-use delay however the
     * *host* addresses the interface; CPU-only work escapes through
     * the host proxy.
     */
    bool handlersOnNi;

    /** Cycles one handler activation may occupy the HPU (sPIN's
     *  handler contract); 0 without an HPU. */
    Cycles handlerTimeBudget;

    /** Can a compiler compute message values straight into the output
     *  registers (the lower bound of the paper's sending ranges)?
     *  Only GPR output registers can be computed into (Section 3.3). */
    constexpr bool directCompose() const { return registerMapped; }
};

/** The rows, indexed by Placement. */
inline constexpr PlacementPolicy placementTable[] = {
    // Section 3.1: the interface on the external cache bus.
    {"Off-chip Cache", "off", "Off-chip", false, true, false, false, 0},
    // Section 3.2: the internal cache bus; reads at cache speed.
    {"On-chip Cache", "on", "On-chip", false, false, false, false, 0},
    // Section 3.3: interface registers aliased into the register file.
    {"Register Mapped", "reg", "Reg", true, false, true, false, 0},
    // On-NI: the host reaches the interface through an off-chip
    // NIC's command window (senders and the proxy kernel pay the
    // off-chip delay), but the handlers run on the HPU.
    {"On-NI", "onni", "On-NI", false, true, true, true, 64},
};

/** The row for @p p. */
constexpr const PlacementPolicy &
placementPolicy(Placement p)
{
    return placementTable[static_cast<size_t>(p)];
}

} // namespace ni
} // namespace tcpni

#endif // TCPNI_NI_PLACEMENT_POLICY_HH
