/**
 * @file
 * Expansion of a TAM run into 88100 RISC cycles under each network
 * interface model -- the Figure-12 methodology.
 *
 * The paper "computed [total cycles] by simulating each program and
 * replacing the dynamic instruction count of each TAM intermediate
 * instruction by the appropriate number of RISC instructions"
 * (Section 4.2.3).  Work instructions expand through a fixed per-class
 * cost table; message events expand through the *measured* Table-1
 * costs of the chosen interface model, split into the figure's three
 * stacked components: non-message work, dispatching, and all other
 * communication (sending plus receiving message values).
 */

#ifndef TCPNI_TAM_EXPAND_HH
#define TCPNI_TAM_EXPAND_HH

#include <array>

#include "ni/config.hh"
#include "tam/tam.hh"

namespace tcpni
{
namespace tam
{

/** RISC cycles per TAM instruction class.  The 88100 issues one
 *  instruction per cycle; multi-step abstractions (scheduling, frame
 *  management) cost several. */
struct WorkCostModel
{
    std::array<double, static_cast<size_t>(Op::numOps)> cost;

    double
    of(Op op) const
    {
        return cost[static_cast<size_t>(op)];
    }

    /** Default expansion used throughout the reproduction. */
    static WorkCostModel default88100();
};

/** Per-message-event costs of one interface model (from Table 1). */
struct CommCosts
{
    ni::Model model;

    /** Sending cost per request kind (Kind order of msg::Kind). */
    double sendSend0, sendSend1, sendSend2;
    double sendRead, sendWrite, sendPRead, sendPWrite;

    /**
     * Dispatch cost per received message, per case.  At the paper's
     * 2-cycle off-chip latency these are all equal (Table 1 has a
     * single DISPATCHING row), but at higher latencies unhidden
     * load-use stalls surface in the dispatch of short handlers, so
     * the expansion keeps them separate.
     */
    double dispatch;        //!< the canonical (Read-case) value
    double dispSend0, dispSend1, dispSend2;
    double dispRead, dispWrite;
    double dispPReadFull, dispPReadEmpty, dispPReadDeferred;
    double dispPWrite;

    /** Processing costs. */
    double procSend0, procSend1, procSend2;
    double procRead, procWrite;
    double procPReadFull, procPReadEmpty, procPReadDeferred;
    double procPWriteEmpty, procPWriteDefBase, procPWriteDefSlope;
};

/**
 * Measure CommCosts for @p model by running the Table-1 kernel
 * harness.  Register-mapped sending costs use the midpoint of the
 * paper's range ("typically in the low to middle part of this range",
 * Section 4.1).  Basic models' dispatch always includes the software
 * queue-threshold checks a deployed basic interface performs
 * (Section 2.2.4); the raw Table-1 dispatch costs come from
 * cost::Table1Harness directly.  The off-chip load-use delay comes
 * from the model itself (Model::withOffchipDelay for the Section 4.2.3
 * sweep).
 */
CommCosts measureCommCosts(const ni::Model &model);

/** One bar of Figure 12, in cycles. */
struct Figure12Bar
{
    double work = 0;        //!< non-message-passing cycles
    double dispatch = 0;    //!< message-dispatch cycles
    double otherComm = 0;   //!< sending + receiving message values

    /** Sending-only cycles (a subset of otherComm), kept separately
     *  for the paper's "sending and dispatching" five-fold claim. */
    double sending = 0;

    double total() const { return work + dispatch + otherComm; }

    /** Fraction of all cycles spent on message passing. */
    double
    commFraction() const
    {
        return total() > 0 ? (dispatch + otherComm) / total() : 0;
    }
};

/** Expand a TAM run under one interface model. */
Figure12Bar expand(const TamStats &stats, const CommCosts &comm,
                   const WorkCostModel &work =
                       WorkCostModel::default88100());

} // namespace tam
} // namespace tcpni

#endif // TCPNI_TAM_EXPAND_HH
