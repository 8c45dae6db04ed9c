/**
 * @file
 * Tests for the whole-system protocol analyzer (verify/protocol.hh).
 *
 * Three layers:
 *
 *  - the shipped corpus of every model (paper six, far off-chip, and
 *    both On-NI variants) must analyze clean under --Werror semantics;
 *  - the kernel-summary export must capture emit sites faithfully
 *    (type, length, substitution, before-NEXT, decremented hop);
 *  - each proto-* diagnostic must provably fire on a minimal corpus
 *    built to violate it, and each must be suppressible through the
 *    -Wno-* / --only machinery (Report::suppress / select).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/config.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "verify/protocol.hh"
#include "verify/verifier.hh"

using namespace tcpni;
namespace v = tcpni::verify;

namespace
{

std::vector<ni::Model>
allModels()
{
    std::vector<ni::Model> models;
    for (const ni::Model &m : ni::paperModels())
        models.push_back(m);
    models.push_back(
        ni::Model{ni::Placement::offChipCache, true}.withOffchipDelay(8));
    models.push_back({ni::Placement::onNi, false});
    models.push_back({ni::Placement::onNi, true});
    return models;
}

ni::Model
regOpt()
{
    return {ni::Placement::registerFile, true};
}

ni::Model
onniOpt()
{
    return {ni::Placement::onNi, true};
}

isa::Program
asmProg(const std::string &src)
{
    isa::AsmResult res = isa::assembleAll(src, msg::kernelSymbols());
    EXPECT_TRUE(res.ok()) << (res.errors.empty()
                                  ? "?"
                                  : res.errors.front().message);
    return res.program;
}

/** Verify one program under a hand-built single-root contract and
 *  return the exported summary. */
v::KernelSummary
summarize(const isa::Program &prog, const ni::Model &model,
          const std::string &label, v::RootKind kind, unsigned type,
          unsigned min_words, unsigned max_words, bool iafull = true)
{
    v::Contract c;
    c.kernelRegMapped = model.policy().registerMapped ||
                        model.policy().handlersOnNi;
    v::Root r;
    r.entry = static_cast<Addr>(prog.symbols.at(label));
    r.name = label;
    r.kind = kind;
    r.type = type;
    r.minWords = min_words;
    r.maxWords = max_words;
    r.iafull = iafull;
    c.roots.push_back(r);

    v::KernelSummary ks;
    v::VerifyOptions opts;
    opts.summary = &ks;
    v::verify(prog, model, c, opts);
    return ks;
}

/** Build a synthetic handler summary: one root of @p type emitting
 *  the given sites. */
v::ProtoKernel
handlerOf(unsigned type, std::vector<v::EmitSite> sites,
          bool iafull = true)
{
    v::ProtoKernel pk;
    pk.name = "h" + std::to_string(type);
    pk.handlers = true;
    v::RootSummary r;
    r.name = "h_" + std::to_string(type);
    r.kind = v::RootKind::handler;
    r.type = type;
    r.iafull = iafull;
    r.emits = std::move(sites);
    r.exits = 1;
    pk.summary.roots.push_back(std::move(r));
    return pk;
}

/** A synthetic sender marking demand for @p type. */
v::ProtoKernel
senderOf(unsigned type, unsigned words)
{
    v::ProtoKernel pk;
    pk.name = "send" + std::to_string(type);
    v::RootSummary r;
    r.name = "sender";
    r.kind = v::RootKind::setup;
    v::EmitSite s;
    s.mode = isa::SendMode::send;
    s.typeKnown = true;
    s.type = type;
    s.words = words;
    r.emits.push_back(s);
    pk.summary.roots.push_back(std::move(r));
    return pk;
}

v::EmitSite
emit(unsigned type, unsigned words, bool before_next = false,
     bool decremented = false,
     isa::SendMode mode = isa::SendMode::send)
{
    v::EmitSite s;
    s.mode = mode;
    s.typeKnown = true;
    s.type = type;
    s.words = words;
    s.beforeNext = before_next;
    s.decremented = decremented;
    return s;
}

bool
has(const v::Report &rep, v::Severity sev, const std::string &check,
    const std::string &substr)
{
    for (const v::Diag &d : rep.diags) {
        if (d.severity == sev && d.check == check &&
            d.message.find(substr) != std::string::npos)
            return true;
    }
    return false;
}

/** The standard live-handler marking so single-check corpora don't
 *  trip the unrelated proto-reply/proto-dead checks: every protocol
 *  type gets a no-op handler, every handled type a sender. */
std::vector<v::ProtoKernel>
quietCorpus()
{
    std::vector<v::ProtoKernel> corpus;
    for (unsigned t : {msg::typeSend, msg::typeRead, msg::typeWrite,
                       msg::typePRead, msg::typePWrite, msg::typeAck}) {
        std::vector<v::EmitSite> sites;
        if (auto r = msg::replyObligation(t))
            sites.push_back(emit(*r, msg::typeContract(*r).minWords));
        corpus.push_back(handlerOf(t, std::move(sites)));
        corpus.push_back(senderOf(t, msg::typeContract(t).minWords));
    }
    return corpus;
}

/** quietCorpus() extended with quiet handlers and senders for the
 *  collective types, so the collective negative tests can swap in one
 *  deliberately-broken kernel against an otherwise-clean tree
 *  protocol. */
std::vector<v::ProtoKernel>
collectiveQuietCorpus()
{
    auto corpus = quietCorpus();
    for (unsigned t : {msg::typeBarUp, msg::typeBarDn, msg::typeMcast,
                       msg::typeReduce}) {
        std::vector<v::EmitSite> sites;
        if (auto r = msg::replyObligation(t))
            sites.push_back(emit(*r, msg::typeContract(*r).minWords));
        corpus.push_back(handlerOf(t, std::move(sites)));
        corpus.push_back(senderOf(t, msg::typeContract(t).minWords));
    }
    return corpus;
}

/** Replace the synthetic handler for @p type with a summary distilled
 *  from real kernel assembly (the collective negative corpus uses
 *  actual programs, not hand-built emit lists). */
void
swapHandler(std::vector<v::ProtoKernel> &corpus, unsigned type,
            v::KernelSummary summary)
{
    for (v::ProtoKernel &pk : corpus) {
        if (pk.handlers && pk.name == "h" + std::to_string(type)) {
            pk.summary = std::move(summary);
            return;
        }
    }
    FAIL() << "no handler for type " << type << " in the corpus";
}

} // namespace

// ---------------------------------------------------------------------
// Positive corpus: every model's shipped kernels analyze clean.
// ---------------------------------------------------------------------

TEST(ProtoShipped, AllModelsAnalyzeCleanUnderWerror)
{
    for (const ni::Model &m : allModels()) {
        // Pairing groups mirror tcpni_lint: a handler variant is
        // analyzed with the senders of its own group plus the
        // ungrouped Table-1 senders.
        std::vector<std::pair<std::string, v::ProtoKernel>> senders;
        std::vector<std::pair<std::string, v::ProtoKernel>> handlers;
        for (const msg::CorpusJob &cj : msg::kernelCorpus(m)) {
            isa::Program prog = asmProg(cj.source);
            v::ProtoKernel pk;
            pk.name = cj.name;
            pk.handlers = cj.handlers;
            v::VerifyOptions opts;
            opts.summary = &pk.summary;
            v::Report rep =
                cj.handlers ? v::verifyHandlers(prog, m, opts)
                            : v::verifySender(prog, m, opts);
            EXPECT_TRUE(rep.clean(true))
                << m.shortName() << "/" << cj.name << ":\n"
                << rep.format();
            (cj.handlers ? handlers : senders)
                .push_back({cj.group, std::move(pk)});
        }
        for (const auto &[hgroup, h] : handlers) {
            std::vector<v::ProtoKernel> corpus{h};
            for (const auto &[sgroup, s] : senders) {
                if (sgroup.empty() || sgroup == hgroup)
                    corpus.push_back(s);
            }
            v::Report rep = v::analyzeProtocol(m, corpus);
            EXPECT_TRUE(rep.clean(true))
                << m.shortName() << "/" << h.name << ":\n"
                << rep.format();
        }
    }
}

TEST(ProtoShipped, RegOptGraphShape)
{
    ni::Model m = regOpt();
    std::vector<v::ProtoKernel> corpus;
    for (const msg::CorpusJob &cj : msg::kernelCorpus(m)) {
        isa::Program prog = asmProg(cj.source);
        v::ProtoKernel pk;
        pk.name = cj.name;
        pk.handlers = cj.handlers;
        v::VerifyOptions opts;
        opts.summary = &pk.summary;
        if (cj.handlers)
            v::verifyHandlers(prog, m, opts);
        else
            v::verifySender(prog, m, opts);
        corpus.push_back(std::move(pk));
    }
    v::MessageFlowGraph g = v::buildFlowGraph(m, corpus);

    // Every protocol type is both handled and demanded.
    for (unsigned t : {msg::typeSend, msg::typeRead, msg::typeWrite,
                       msg::typePRead, msg::typePWrite, msg::typeAck}) {
        EXPECT_TRUE(g.handled[t]) << v::nodeName(t);
        EXPECT_TRUE(g.emitted[t]) << v::nodeName(t);
    }

    // The request/reply edges the kernels implement.
    auto edge = [&](unsigned from, unsigned to) {
        for (const v::FlowEdge &e : g.edges) {
            if (e.from == from && e.to == to)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(edge(msg::typeRead, msg::typeSend));    // READ reply
    EXPECT_TRUE(edge(msg::typePRead, msg::typeSend));   // PREAD reply
    EXPECT_TRUE(edge(msg::typePWrite, msg::typeAck));   // PWRITE ack
    EXPECT_FALSE(edge(msg::typeWrite, msg::typeSend));  // fire-and-forget
}

// ---------------------------------------------------------------------
// Summary export: emit sites carry the facts the graph needs.
// ---------------------------------------------------------------------

TEST(ProtoSummary, EmitSiteCapturesTypeWordsAndConsumeDiscipline)
{
    // A WRITE handler that sends a 1-word ACK folded with !next: the
    // send retires the input slot, so beforeNext must be false.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    st   i1, i0, r0
    addi o0, r0, 7
    send T_ACK !next
    jmp  nextmsgip
    nop
)");
    v::KernelSummary ks = summarize(p, regOpt(), "h",
                                    v::RootKind::handler, msg::typeWrite,
                                    2, 2);
    ASSERT_EQ(ks.roots.size(), 1u);
    ASSERT_EQ(ks.roots[0].emits.size(), 1u);
    const v::EmitSite &s = ks.roots[0].emits[0];
    EXPECT_TRUE(s.typeKnown);
    EXPECT_EQ(s.type, unsigned{msg::typeAck});
    EXPECT_EQ(s.words, 1u);
    EXPECT_FALSE(s.beforeNext);
    EXPECT_FALSE(s.decremented);
}

TEST(ProtoSummary, SendBeforeNextIsFlagged)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    addi o0, r0, 7
    send T_ACK
    st   i1, i0, r0 !next
    jmp  nextmsgip
    nop
)");
    v::KernelSummary ks = summarize(p, regOpt(), "h",
                                    v::RootKind::handler, msg::typeWrite,
                                    2, 2);
    ASSERT_EQ(ks.roots[0].emits.size(), 1u);
    EXPECT_TRUE(ks.roots[0].emits[0].beforeNext);
}

TEST(ProtoSummary, DecrementedHopBoundIsRecognized)
{
    // o1 carries i1 - 1: a statically-decremented hop bound.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    addi r6, i1, -1
    add  o0, i0, r0
    add  o1, r6, r0
    send T_SEND !next
    jmp  nextmsgip
    nop
)");
    v::KernelSummary ks = summarize(p, regOpt(), "h",
                                    v::RootKind::handler, msg::typeSend,
                                    2, 4);
    ASSERT_EQ(ks.roots[0].emits.size(), 1u);
    const v::EmitSite &s = ks.roots[0].emits[0];
    EXPECT_EQ(s.words, 2u);
    EXPECT_TRUE(s.decremented);
}

TEST(ProtoSummary, HpuEscapePostIsRecordedPerExit)
{
    // The shipped On-NI optimized kernel: every PWRITE exit escapes;
    // PREAD has a non-escaping (read-only FULL) exit too.
    ni::Model m = onniOpt();
    isa::Program p = asmProg(msg::handlerProgram(m));
    v::KernelSummary ks;
    v::VerifyOptions opts;
    opts.summary = &ks;
    v::verifyHandlers(p, m, opts);

    bool saw_pwrite = false, saw_pread = false;
    for (const v::RootSummary &r : ks.roots) {
        if (r.kind != v::RootKind::handler)
            continue;
        if (r.type == msg::typePWrite) {
            saw_pwrite = true;
            EXPECT_TRUE(r.escapes) << r.name;
            EXPECT_TRUE(r.escapesAlways()) << r.name;
            EXPECT_FALSE(r.plainStores) << r.name;
        } else if (r.type == msg::typePRead) {
            saw_pread = true;
            EXPECT_TRUE(r.escapes) << r.name;
            EXPECT_FALSE(r.escapesAlways()) << r.name;
            EXPECT_FALSE(r.plainStores) << r.name;
        }
    }
    EXPECT_TRUE(saw_pwrite);
    EXPECT_TRUE(saw_pread);
}

// ---------------------------------------------------------------------
// Negative corpus: every proto-* diagnostic fires on a minimal
// violation, and the quiet corpus stays quiet.
// ---------------------------------------------------------------------

TEST(ProtoNegative, QuietCorpusIsClean)
{
    v::Report rep = v::analyzeProtocol(regOpt(), quietCorpus());
    EXPECT_TRUE(rep.clean(true)) << rep.format();
}

TEST(ProtoNegative, MissingReplyObligation)
{
    // The READ handler consumes the request but never sends the value
    // back (and never escapes): the requester blocks forever.
    auto corpus = quietCorpus();
    for (v::ProtoKernel &pk : corpus) {
        if (pk.name == "h2")
            pk.summary.roots[0].emits.clear();
    }
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-reply",
                    "never emits its obliged reply SEND(0)"))
        << rep.format();
}

TEST(ProtoNegative, EmittedTypeWithoutHandler)
{
    auto corpus = quietCorpus();
    corpus.push_back(senderOf(9, 1));   // nothing handles type 9
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-reply",
                    "no handler in the corpus implements it"))
        << rep.format();
}

TEST(ProtoNegative, ForwardCycleWithoutHopBound)
{
    // SEND handler forwards a SEND: unbounded fan-out.
    auto corpus = quietCorpus();
    for (v::ProtoKernel &pk : corpus) {
        if (pk.name == "h0") {
            pk.summary.roots[0].emits.push_back(
                emit(msg::typeSend, 2, false, false,
                     isa::SendMode::forward));
        }
    }
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-forward",
                    "cycle without a statically-decremented hop bound"))
        << rep.format();
}

TEST(ProtoNegative, DecrementedHopBoundBreaksForwardCycle)
{
    // The same cycle with a decremented hop word terminates.
    auto corpus = quietCorpus();
    for (v::ProtoKernel &pk : corpus) {
        if (pk.name == "h0") {
            pk.summary.roots[0].emits.push_back(
                emit(msg::typeSend, 2, false, /*decremented=*/true,
                     isa::SendMode::forward));
        }
    }
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_FALSE(has(rep, v::Severity::error, "proto-forward", ""))
        << rep.format();
}

TEST(ProtoNegative, SendAboveIafullDeadlockCycle)
{
    // READ handler sends to WRITE before NEXT, WRITE back to READ:
    // both hold input slots while demanding downstream space.
    auto corpus = quietCorpus();
    for (v::ProtoKernel &pk : corpus) {
        if (pk.name == "h2") {
            pk.summary.roots[0].emits.push_back(
                emit(msg::typeWrite, 2, /*before_next=*/true));
        } else if (pk.name == "h3") {
            pk.summary.roots[0].emits.push_back(
                emit(msg::typeRead, 3, /*before_next=*/true));
        }
    }
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-deadlock",
                    "consume-before-send"))
        << rep.format();
}

TEST(ProtoNegative, ConsumeBeforeSendBreaksDeadlockCycle)
{
    // The same cycle is fine when each handler retires NEXT first.
    auto corpus = quietCorpus();
    for (v::ProtoKernel &pk : corpus) {
        if (pk.name == "h2")
            pk.summary.roots[0].emits.push_back(emit(msg::typeWrite, 2));
        else if (pk.name == "h3")
            pk.summary.roots[0].emits.push_back(emit(msg::typeRead, 3));
    }
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_FALSE(has(rep, v::Severity::error, "proto-deadlock", ""))
        << rep.format();

    // ...or when the root is never entered above the iafull threshold.
    auto low = quietCorpus();
    for (v::ProtoKernel &pk : low) {
        if (pk.name == "h2" || pk.name == "h3") {
            pk.summary.roots[0].iafull = false;
            pk.summary.roots[0].emits.push_back(
                emit(pk.name == "h2" ? msg::typeWrite : msg::typeRead,
                     2, /*before_next=*/true));
        }
    }
    v::Report low_rep = v::analyzeProtocol(regOpt(), low);
    EXPECT_FALSE(has(low_rep, v::Severity::error, "proto-deadlock", ""))
        << low_rep.format();
}

TEST(ProtoNegative, CollectiveQuietCorpusIsClean)
{
    v::Report rep =
        v::analyzeProtocol(regOpt(), collectiveQuietCorpus());
    EXPECT_TRUE(rep.clean(true)) << rep.format();
}

TEST(ProtoNegative, CollectiveForwardWithoutHopDecrement)
{
    // A BARUP combiner that forwards the join up the tree with the
    // hop word copied verbatim: the BARUP -> BARUP propagation cycle
    // has no statically-decremented bound, so a mis-built tree (or a
    // frame whose parent points back down) fans out forever.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    add  o0, i0, r0
    add  o1, i1, r0
    send T_BARUP !next
    add  o0, r0, r0
    addi o1, r0, 1
    send T_BARDN
    jmp  nextmsgip
    nop
)");
    auto corpus = collectiveQuietCorpus();
    swapHandler(corpus, msg::typeBarUp,
                summarize(p, regOpt(), "h", v::RootKind::handler,
                          msg::typeBarUp, 2, 2));
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-forward",
                    "cycle without a statically-decremented hop bound"))
        << rep.format();
}

TEST(ProtoNegative, CollectiveCombinerSendsBeforeConsume)
{
    // A combiner with correct hop discipline that emits the upward
    // join while still holding its own input slot: under iafull
    // arrival the BARUP -> BARUP cycle holds queue space on every
    // level at once -- the consume-before-send violation the shipped
    // kernels avoid by folding NEXT into (or before) the fan-out.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    addi r6, i1, -1
    add  o0, i0, r0
    add  o1, r6, r0
    send T_BARUP
    st   i1, i0, r0 !next
    add  o0, r0, r0
    addi o1, r0, 1
    send T_BARDN
    jmp  nextmsgip
    nop
)");
    auto corpus = collectiveQuietCorpus();
    swapHandler(corpus, msg::typeBarUp,
                summarize(p, regOpt(), "h", v::RootKind::handler,
                          msg::typeBarUp, 2, 2));
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_FALSE(has(rep, v::Severity::error, "proto-forward", ""))
        << rep.format();
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-deadlock",
                    "consume-before-send"))
        << rep.format();
}

TEST(ProtoNegative, HpuPWriteWithoutEscape)
{
    // An On-NI PWRITE handler that completes the write on the HPU:
    // breaks the single-writer I-structure rule both ways (a
    // non-escaping exit and a plain store).
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    ld   r5, i1, r0
    st   r5, i0, r0 !next
    jmp  nextmsgip
    nop
)");
    v::KernelSummary ks = summarize(p, onniOpt(), "h",
                                    v::RootKind::handler,
                                    msg::typePWrite, 3, 3);
    v::ProtoKernel pk;
    pk.name = "handlers";
    pk.handlers = true;
    pk.summary = ks;
    v::Report rep = v::analyzeProtocol(onniOpt(), {pk});
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-escape",
                    "without escaping through the host ring"))
        << rep.format();
    EXPECT_TRUE(has(rep, v::Severity::error, "proto-escape",
                    "stores to memory from the HPU"))
        << rep.format();

    // The same kernel is legal on a host placement: the rule only
    // binds HPU-resident handlers.
    v::KernelSummary host = summarize(p, regOpt(), "h",
                                      v::RootKind::handler,
                                      msg::typePWrite, 3, 3);
    v::ProtoKernel hpk;
    hpk.name = "handlers";
    hpk.handlers = true;
    hpk.summary = host;
    v::Report host_rep = v::analyzeProtocol(regOpt(), {hpk});
    EXPECT_FALSE(has(host_rep, v::Severity::error, "proto-escape", ""))
        << host_rep.format();
}

TEST(ProtoNegative, DeadHandlerType)
{
    auto corpus = quietCorpus();
    // Nothing demands WRITE any more.
    std::erase_if(corpus, [](const v::ProtoKernel &pk) {
        return pk.name == "send3";
    });
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    EXPECT_TRUE(has(rep, v::Severity::warning, "proto-dead",
                    "nothing in the corpus emits it"))
        << rep.format();

    // Control types (EXC / ESCAPE / STOP) are exempt.
    auto ctl = quietCorpus();
    ctl.push_back(handlerOf(msg::typeStop, {}));
    v::Report ctl_rep = v::analyzeProtocol(regOpt(), ctl);
    EXPECT_FALSE(has(ctl_rep, v::Severity::warning, "proto-dead", ""))
        << ctl_rep.format();
}

// ---------------------------------------------------------------------
// Suppression: the -Wno-* / --only machinery.
// ---------------------------------------------------------------------

TEST(ProtoSuppress, CheckMatchesExactAndGroupPrefix)
{
    EXPECT_TRUE(v::checkMatches("proto-reply", "proto-reply"));
    EXPECT_TRUE(v::checkMatches("proto-reply", "proto"));
    EXPECT_FALSE(v::checkMatches("proto-reply", "proto-re"));
    EXPECT_FALSE(v::checkMatches("protocol", "proto"));
    EXPECT_FALSE(v::checkMatches("send", "proto"));
}

TEST(ProtoSuppress, EveryProtoCheckIsSuppressible)
{
    // A corpus that trips reply, forward, deadlock and dead at once.
    auto corpus = quietCorpus();
    corpus.push_back(senderOf(9, 1));                     // proto-reply
    std::erase_if(corpus, [](const v::ProtoKernel &pk) {
        return pk.name == "send3";                        // proto-dead
    });
    for (v::ProtoKernel &pk : corpus) {
        if (pk.name == "h0") {
            pk.summary.roots[0].emits.push_back(
                emit(msg::typeSend, 2, /*before_next=*/true, false,
                     isa::SendMode::forward));   // forward + deadlock
        }
    }
    v::Report rep = v::analyzeProtocol(regOpt(), corpus);
    ASSERT_FALSE(rep.clean(true));

    for (const std::string check :
         {"proto-reply", "proto-forward", "proto-deadlock",
          "proto-dead"}) {
        EXPECT_TRUE(has(rep, rep.diags[0].severity, check, "") ||
                    std::any_of(rep.diags.begin(), rep.diags.end(),
                                [&](const v::Diag &d) {
                                    return d.check == check;
                                }))
            << check << " did not fire:\n" << rep.format();
        v::Report one = rep;
        one.suppress({check});
        for (const v::Diag &d : one.diags)
            EXPECT_NE(d.check, check);
        EXPECT_LT(one.diags.size(), rep.diags.size()) << check;
    }

    // The group suffices for all of them.
    v::Report group = rep;
    group.suppress({"proto"});
    EXPECT_TRUE(group.diags.empty()) << group.format();

    // --only keeps exactly the group.
    v::Report only = rep;
    only.select({"proto"});
    EXPECT_EQ(only.diags.size(), rep.diags.size());
    only.select({"proto-forward"});
    for (const v::Diag &d : only.diags)
        EXPECT_EQ(d.check, "proto-forward");
}
