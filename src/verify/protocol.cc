#include "verify/protocol.hh"

#include "msg/protocol.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{
namespace verify
{

namespace
{

/** Fold a root/site type onto its graph node. */
unsigned
normType(const ni::Model &model, unsigned type)
{
    unsigned t = model.optimized ? type : msg::normalizeBasicId(type);
    return t & 0xf;
}

bool
messageRoot(const RootSummary &r)
{
    return r.kind == RootKind::handler || r.kind == RootKind::inlet;
}

} // namespace

MessageFlowGraph
buildFlowGraph(const ni::Model &model,
               const std::vector<ProtoKernel> &kernels)
{
    MessageFlowGraph g;
    bool escapes = false;

    for (const ProtoKernel &k : kernels) {
        for (const RootSummary &r : k.summary.roots) {
            bool in_handler = k.handlers && messageRoot(r);
            if (in_handler)
                g.handled[normType(model, r.type)] = true;

            for (const EmitSite &s : r.emits) {
                if (!s.typeKnown)
                    continue;   // the per-kernel send check warns
                unsigned to = normType(model, s.type);
                g.emitted[to] = true;
                if (!in_handler)
                    continue;   // sender demand creates no edge
                FlowEdge e;
                e.from = normType(model, r.type);
                e.to = to;
                e.kind = s.mode == isa::SendMode::reply
                             ? EdgeKind::reply
                             : s.mode == isa::SendMode::forward
                                   ? EdgeKind::forward
                                   : EdgeKind::send;
                e.beforeNext = s.beforeNext && r.iafull;
                e.decremented = s.decremented;
                e.words = s.words;
                e.kernel = k.name;
                e.where = r.name;
                e.addr = s.addr;
                e.line = s.line;
                g.edges.push_back(e);
            }

            if (in_handler && r.escapes) {
                escapes = true;
                FlowEdge e;
                e.from = normType(model, r.type);
                e.to = hostProxyNode;
                e.kind = EdgeKind::escape;
                e.kernel = k.name;
                e.where = r.name;
                g.edges.push_back(e);
            }
        }
    }

    if (escapes) {
        // The host proxy replays escaped messages through the
        // ordinary handlers and replies with plain SENDs / ACKs
        // (axiomatic: it is host code, not a verified kernel).
        g.handled[hostProxyNode] = true;
        for (unsigned to : {unsigned{msg::typeSend},
                            unsigned{msg::typeAck}}) {
            g.emitted[to] = true;
            FlowEdge e;
            e.from = hostProxyNode;
            e.to = to;
            e.kind = EdgeKind::send;
            e.kernel = "host-proxy";
            e.where = "host-proxy";
            g.edges.push_back(e);
        }
    }
    return g;
}

Report
analyzeProtocol(const ni::Model &model,
                const std::vector<ProtoKernel> &kernels)
{
    Report rep;
    MessageFlowGraph g = buildFlowGraph(model, kernels);

    // proto-reply (a): every emitted protocol type reaches a handler.
    for (unsigned t = 0; t < graphTypeNodes; ++t) {
        if (!g.emitted[t] || g.handled[t] || msg::isControlType(t))
            continue;
        rep.add(Severity::error, "proto-reply", 0, 0, "",
                nodeName(t) +
                    " is emitted but no handler in the corpus "
                    "implements it");
    }

    // proto-reply (b): handlers of obliged request types emit the
    // reply on some path, directly or via the host-proxy escape.
    for (unsigned t = 0; t < graphTypeNodes; ++t) {
        if (!g.handled[t])
            continue;
        auto obliged = msg::replyObligation(t);
        if (!obliged)
            continue;
        bool ok = false;
        for (const FlowEdge &e : g.edges) {
            if (e.from == t &&
                (e.to == *obliged || e.kind == EdgeKind::escape))
                ok = true;
        }
        if (!ok) {
            rep.add(Severity::error, "proto-reply", 0, 0, "",
                    "handler for " + nodeName(t) +
                        " never emits its obliged reply " +
                        nodeName(*obliged) +
                        " on any path, and never escapes to the host "
                        "proxy");
        }
    }

    // proto-forward: propagation must terminate.  Edges carrying a
    // statically-decremented hop bound break cycles; escapes cannot
    // extend a chain (the proxy's replies are modelled separately).
    {
        auto cyc = g.findCycle([](const FlowEdge &e) {
            return e.kind != EdgeKind::escape && !e.decremented;
        });
        if (!cyc.empty()) {
            rep.add(Severity::error, "proto-forward", cyc[0]->addr,
                    cyc[0]->line, cyc[0]->where,
                    "message propagation can cycle without a "
                    "statically-decremented hop bound: " +
                        describeCycle(cyc));
        }
    }

    // proto-deadlock: a cycle of handlers that emit while they may
    // still hold an input slot above the iafull threshold is the
    // cyclic-credit buffer deadlock.
    {
        auto cyc = g.findCycle([](const FlowEdge &e) {
            return e.kind != EdgeKind::escape && e.beforeNext;
        });
        if (!cyc.empty()) {
            rep.add(Severity::error, "proto-deadlock", cyc[0]->addr,
                    cyc[0]->line, cyc[0]->where,
                    "handler cycle sends with its input queue possibly "
                    "above iafull and no NEXT before the send "
                    "(consume-before-send): " +
                        describeCycle(cyc));
        }
    }

    // proto-escape: On-NI models (handlers run on the HPU) must keep
    // the single-writer I-structure rule.
    if (model.policy().handlersOnNi) {
        for (const ProtoKernel &k : kernels) {
            if (!k.handlers)
                continue;
            for (const RootSummary &r : k.summary.roots) {
                if (!messageRoot(r))
                    continue;
                unsigned t = normType(model, r.type);
                if (t == msg::typePWrite) {
                    if (!r.escapesAlways()) {
                        rep.add(Severity::error, "proto-escape", 0, 0,
                                r.name,
                                "a PWRITE handler path completes on "
                                "the HPU without escaping through the "
                                "host ring (single-writer I-structure "
                                "rule)");
                    }
                    if (r.plainStores) {
                        rep.add(Severity::error, "proto-escape", 0, 0,
                                r.name,
                                "PWRITE handler stores to memory from "
                                "the HPU; I-structure mutation must "
                                "escape to the host proxy");
                    }
                } else if (t == msg::typePRead && r.plainStores) {
                    rep.add(Severity::error, "proto-escape", 0, 0,
                            r.name,
                            "PREAD handler stores to memory from the "
                            "HPU; only the read-only FULL path may "
                            "stay resident");
                }
            }
        }
    }

    // proto-dead: handled protocol types nothing emits.
    for (unsigned t = 0; t < graphTypeNodes; ++t) {
        if (!g.handled[t] || g.emitted[t] || msg::isControlType(t))
            continue;
        rep.add(Severity::warning, "proto-dead", 0, 0, "",
                "handler for " + nodeName(t) +
                    " is dead code: nothing in the corpus emits it");
    }

    rep.dedupe();
    return rep;
}

} // namespace verify
} // namespace tcpni
