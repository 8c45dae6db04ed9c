#include "tam/expand.hh"

#include "cost/table1.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{
namespace tam
{

WorkCostModel
WorkCostModel::default88100()
{
    WorkCostModel m{};
    auto set = [&](Op op, double v) {
        m.cost[static_cast<size_t>(op)] = v;
    };
    set(Op::iop, 1);
    set(Op::fop, 2);            // 88100 FP latency on dependent chains
    set(Op::move, 1);
    set(Op::frameLoad, 2);      // fp-relative load incl. address arith
    set(Op::frameStore, 2);
    set(Op::ctlFork, 3);        // post a thread to the quantum
    set(Op::ctlSwitch, 10);     // TL0 quantum swap: cv restore + jump
    set(Op::syncDec, 5);        // load-decrement-branch-store on entry
    set(Op::falloc, 30);        // free-list allocation + cv init
    set(Op::ffree, 10);
    return m;
}

CommCosts
measureCommCosts(const ni::Model &model)
{
    // Basic models pay the software queue-threshold checks.
    cost::Table1Harness h(model, /*basic_sw_checks=*/true);

    CommCosts c;
    c.model = model;
    for (size_t k = 0; k < std::size(sendCost); ++k) {
        const msg::Kind kind = static_cast<msg::Kind>(k);
        double copy = h.sendingCost(kind);
        if (model.policy().directCompose()) {
            // Midpoint of the paper's range: some values are computed
            // directly into the output registers.
            copy -= msg::directlyComputableWords(kind) / 2.0;
        }
        c.*sendCost[k] = copy;
    }
    for (const CommRow &r : commRows) {
        cost::ProcCost pc = h.processingCost(r.proc);
        c.*r.dispatch = pc.dispatching;
        c.*r.process = pc.processing;
    }
    c.dispatch = c.dispRead;

    cost::LinearCost lin = h.pwriteDeferredCost();
    c.procPWriteDefBase = lin.base;
    c.procPWriteDefSlope = lin.slope;
    return c;
}

Figure12Bar
expand(const TamStats &s, const CommCosts &c, const WorkCostModel &w)
{
    Figure12Bar bar;

    for (size_t i = 0; i < static_cast<size_t>(Op::numOps); ++i)
        bar.work += static_cast<double>(s.ops[i]) * w.cost[i];

    auto n = [&](size_t row) { return static_cast<double>(s.msgs[row]); };
    const double replies = static_cast<double>(s.replies);

    // Every message reception pays one dispatch (per-case: unhidden
    // load-use stalls surface in short handlers' dispatch at high
    // off-chip latencies); replies are 1-word Send receptions.
    for (size_t i = 0; i < std::size(commRows); ++i)
        bar.dispatch += n(i) * c.*commRows[i].dispatch;
    bar.dispatch += replies * c.dispSend1;

    // Sending costs (request composition at the source).  Reply
    // composition is already inside the serving handler's processing
    // cost (Table 1's Read/PRead rows include the SEND-reply).
    for (size_t i = 0; i < std::size(commRows); ++i) {
        const msg::Kind kind = cost::procCaseInfo(commRows[i].proc).kind;
        bar.sending += n(i) * c.*sendCost[static_cast<size_t>(kind)];
    }
    bar.otherComm += bar.sending;

    // Processing costs at the receiver.  A PWrite that released
    // deferred readers costs base + slope * readers instead.
    const double pw_deferred = static_cast<double>(s.pwriteWithDeferred);
    for (size_t i = 0; i < std::size(commRows); ++i) {
        double count = n(i);
        if (i == static_cast<size_t>(MsgKind::pwrite))
            count -= pw_deferred;
        bar.otherComm += count * c.*commRows[i].process;
    }
    bar.otherComm += pw_deferred * c.procPWriteDefBase;
    bar.otherComm += static_cast<double>(s.pwriteReleases) *
                     c.procPWriteDefSlope;

    // Reply receptions process as 1-word Sends.
    bar.otherComm += replies * c.procSend1;

    return bar;
}

} // namespace tam
} // namespace tcpni
