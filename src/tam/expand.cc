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
    using cost::ProcCase;
    using msg::Kind;

    // Basic models pay the software queue-threshold checks.
    cost::Table1Harness h(model, /*basic_sw_checks=*/true);

    auto send_cost = [&](Kind k) {
        double copy = h.sendingCost(k);
        if (model.policy().directCompose()) {
            // Midpoint of the paper's range: some values are computed
            // directly into the output registers.
            copy -= msg::directlyComputableWords(k) / 2.0;
        }
        return copy;
    };

    CommCosts c;
    c.model = model;
    c.sendSend0 = send_cost(Kind::send0);
    c.sendSend1 = send_cost(Kind::send1);
    c.sendSend2 = send_cost(Kind::send2);
    c.sendRead = send_cost(Kind::read);
    c.sendWrite = send_cost(Kind::write);
    c.sendPRead = send_cost(Kind::pread);
    c.sendPWrite = send_cost(Kind::pwrite);

    auto send0 = h.processingCost(ProcCase::send0);
    auto send1 = h.processingCost(ProcCase::send1);
    auto send2 = h.processingCost(ProcCase::send2);
    auto read = h.processingCost(ProcCase::read);
    auto write = h.processingCost(ProcCase::write);
    auto pr_full = h.processingCost(ProcCase::preadFull);
    auto pr_empty = h.processingCost(ProcCase::preadEmpty);
    auto pr_def = h.processingCost(ProcCase::preadDeferred);
    auto pw_empty = h.processingCost(ProcCase::pwriteEmpty);

    c.dispatch = read.dispatching;
    c.dispSend0 = send0.dispatching;
    c.dispSend1 = send1.dispatching;
    c.dispSend2 = send2.dispatching;
    c.dispRead = read.dispatching;
    c.dispWrite = write.dispatching;
    c.dispPReadFull = pr_full.dispatching;
    c.dispPReadEmpty = pr_empty.dispatching;
    c.dispPReadDeferred = pr_def.dispatching;
    c.dispPWrite = pw_empty.dispatching;

    c.procSend0 = send0.processing;
    c.procSend1 = send1.processing;
    c.procSend2 = send2.processing;
    c.procRead = read.processing;
    c.procWrite = write.processing;
    c.procPReadFull = pr_full.processing;
    c.procPReadEmpty = pr_empty.processing;
    c.procPReadDeferred = pr_def.processing;
    c.procPWriteEmpty = pw_empty.processing;

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

    auto n = [&](MsgKind k) {
        return static_cast<double>(s.msg(k));
    };

    // Every message reception pays one dispatch (per-case: unhidden
    // load-use stalls surface in short handlers' dispatch at high
    // off-chip latencies); replies are 1-word Send receptions.
    bar.dispatch += n(MsgKind::send0) * c.dispSend0;
    bar.dispatch += n(MsgKind::send1) * c.dispSend1;
    bar.dispatch += n(MsgKind::send2) * c.dispSend2;
    bar.dispatch += n(MsgKind::read) * c.dispRead;
    bar.dispatch += n(MsgKind::write) * c.dispWrite;
    bar.dispatch += n(MsgKind::preadFull) * c.dispPReadFull;
    bar.dispatch += n(MsgKind::preadEmpty) * c.dispPReadEmpty;
    bar.dispatch += n(MsgKind::preadDeferred) * c.dispPReadDeferred;
    bar.dispatch += n(MsgKind::pwrite) * c.dispPWrite;
    bar.dispatch += static_cast<double>(s.replies) * c.dispSend1;

    // Sending costs (request composition at the source).  Reply
    // composition is already inside the serving handler's processing
    // cost (Table 1's Read/PRead rows include the SEND-reply).
    bar.sending += n(MsgKind::send0) * c.sendSend0;
    bar.sending += n(MsgKind::send1) * c.sendSend1;
    bar.sending += n(MsgKind::send2) * c.sendSend2;
    bar.sending += n(MsgKind::read) * c.sendRead;
    bar.sending += n(MsgKind::write) * c.sendWrite;
    bar.sending += (n(MsgKind::preadFull) + n(MsgKind::preadEmpty) +
                    n(MsgKind::preadDeferred)) *
                   c.sendPRead;
    bar.sending += n(MsgKind::pwrite) * c.sendPWrite;
    bar.otherComm += bar.sending;

    // Processing costs at the receiver.
    bar.otherComm += n(MsgKind::send0) * c.procSend0;
    bar.otherComm += n(MsgKind::send1) * c.procSend1;
    bar.otherComm += n(MsgKind::send2) * c.procSend2;
    bar.otherComm += n(MsgKind::read) * c.procRead;
    bar.otherComm += n(MsgKind::write) * c.procWrite;
    bar.otherComm += n(MsgKind::preadFull) * c.procPReadFull;
    bar.otherComm += n(MsgKind::preadEmpty) * c.procPReadEmpty;
    bar.otherComm += n(MsgKind::preadDeferred) * c.procPReadDeferred;

    double pwrites = n(MsgKind::pwrite);
    double pw_deferred = static_cast<double>(s.pwriteWithDeferred);
    double pw_empty = pwrites - pw_deferred;
    bar.otherComm += pw_empty * c.procPWriteEmpty;
    bar.otherComm += pw_deferred * c.procPWriteDefBase;
    bar.otherComm += static_cast<double>(s.pwriteReleases) *
                     c.procPWriteDefSlope;

    // Reply receptions process as 1-word Sends.
    bar.otherComm += static_cast<double>(s.replies) * c.procSend1;

    return bar;
}

} // namespace tam
} // namespace tcpni
