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

#include "cost/table1.hh"
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

    /** Sending cost per request kind (sendCost). */
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

    /** Processing costs (commRows, then the deferred PWrite). */
    double procSend0, procSend1, procSend2;
    double procRead, procWrite;
    double procPReadFull, procPReadEmpty, procPReadDeferred;
    double procPWriteEmpty, procPWriteDefBase, procPWriteDefSlope;
};

/** The sending field of each Table-1 kind, in msg::Kind order. */
inline constexpr double CommCosts::*sendCost[] = {
    &CommCosts::sendSend0, &CommCosts::sendSend1, &CommCosts::sendSend2,
    &CommCosts::sendRead,  &CommCosts::sendWrite, &CommCosts::sendPRead,
    &CommCosts::sendPWrite,
};
static_assert(std::size(sendCost) == std::size(msg::kinds));

/**
 * One TAM message event and the columns of its costs: the Table-1
 * case that measures it (whose kind gives the sending cost) and the
 * CommCosts fields its dispatch and processing land in.  The deferred
 * PWrite's base and slope have no event of their own; expand() and
 * its callers handle them after the rows.
 */
struct CommRow
{
    const char *name;           //!< msgKindName()
    cost::ProcCase proc;
    double CommCosts::*dispatch;
    double CommCosts::*process;
    const char *processKey;     //!< figure12.json "process" key
};

/** The rows, in MsgKind order. */
inline constexpr CommRow commRows[] = {
    {"send0", cost::ProcCase::send0, &CommCosts::dispSend0,
     &CommCosts::procSend0, "send0"},
    {"send1", cost::ProcCase::send1, &CommCosts::dispSend1,
     &CommCosts::procSend1, "send1"},
    {"send2", cost::ProcCase::send2, &CommCosts::dispSend2,
     &CommCosts::procSend2, "send2"},
    {"read", cost::ProcCase::read, &CommCosts::dispRead,
     &CommCosts::procRead, "read"},
    {"write", cost::ProcCase::write, &CommCosts::dispWrite,
     &CommCosts::procWrite, "write"},
    {"pread_full", cost::ProcCase::preadFull, &CommCosts::dispPReadFull,
     &CommCosts::procPReadFull, "preadFull"},
    {"pread_empty", cost::ProcCase::preadEmpty,
     &CommCosts::dispPReadEmpty, &CommCosts::procPReadEmpty,
     "preadEmpty"},
    {"pread_deferred", cost::ProcCase::preadDeferred,
     &CommCosts::dispPReadDeferred, &CommCosts::procPReadDeferred,
     "preadDeferred"},
    // Processing: a PWrite that finds the element empty; the deferred
    // ones are the rest.
    {"pwrite", cost::ProcCase::pwriteEmpty, &CommCosts::dispPWrite,
     &CommCosts::procPWriteEmpty, "pwriteEmpty"},
};
static_assert(std::size(commRows) ==
              static_cast<size_t>(MsgKind::numKinds));

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
