/**
 * @file
 * Tests for the static kernel verifier.
 *
 * Two halves: the shipped kernels must verify clean under every model
 * (the positive corpus, mirroring the `lint_kernels` ctest), and each
 * diagnostic must provably fire on a kernel built to violate it (the
 * negative corpus).  The hazard analysis is additionally cross-checked
 * against the Table-1 timing harness: the statically-predicted load-use
 * stalls in the READ handler must equal the measured off-chip-minus-
 * on-chip processing-cycle delta.
 */

#include <gtest/gtest.h>

#include <string>

#include "cost/table1.hh"
#include "isa/assembler.hh"
#include "msg/kernels.hh"
#include "ni/config.hh"
#include "ni/model_registry.hh"
#include "ni/ni_regs.hh"
#include "verify/verifier.hh"

using namespace tcpni;
namespace v = tcpni::verify;

namespace
{

ni::Model
model(const std::string &short_name)
{
    for (const ni::Model &m : ni::paperModels()) {
        if (m.shortName() == short_name)
            return m;
    }
    ADD_FAILURE() << "no model " << short_name;
    return {};
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

/** A contract with a single hand-built root (isolates one check). */
v::Contract
oneRoot(const isa::Program &prog, const std::string &label,
        v::RootKind kind, unsigned type = 0, unsigned min_words = 0,
        unsigned max_words = 0)
{
    v::Contract c;
    v::Root r;
    r.entry = static_cast<Addr>(prog.symbols.at(label));
    r.name = label;
    r.kind = kind;
    r.type = type;
    r.minWords = min_words;
    r.maxWords = max_words;
    c.roots.push_back(r);
    return c;
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

std::string
dump(const v::Report &rep)
{
    return rep.format();
}

} // namespace

// ---------------------------------------------------------------------
// Positive corpus: every shipped kernel is clean under its model.
// ---------------------------------------------------------------------

TEST(LintShipped, AllKernelsCleanUnderWerror)
{
    for (const ni::Model &m : ni::paperModels()) {
        std::vector<std::pair<std::string, std::string>> handlers;
        if (m.optimized) {
            handlers.emplace_back("handlers", msg::handlerProgram(m));
            if (m.placement != ni::Placement::registerFile) {
                handlers.emplace_back(
                    "handlers-no-overlap",
                    msg::handlerProgram(m, false, true));
            }
        } else {
            handlers.emplace_back("handlers",
                                  msg::handlerProgram(m, false));
            handlers.emplace_back("handlers-sw-checks",
                                  msg::handlerProgram(m, true));
        }
        for (const auto &[name, src] : handlers) {
            isa::Program prog = asmProg(src);
            v::Report rep = v::verifyHandlers(prog, m);
            EXPECT_TRUE(rep.clean(true))
                << m.shortName() << "/" << name << ":\n" << dump(rep);
        }

        static const msg::Kind kinds[] = {
            msg::Kind::send0, msg::Kind::send1, msg::Kind::send2,
            msg::Kind::read, msg::Kind::write, msg::Kind::pread,
            msg::Kind::pwrite,
        };
        for (msg::Kind k : kinds) {
            isa::Program prog = asmProg(msg::senderProgram(m, k, 4));
            v::Report rep = v::verifySender(prog, m);
            EXPECT_TRUE(rep.clean(true))
                << m.shortName() << "/send-" << msg::kindInfo(k).name
                << ":\n" << dump(rep);
        }
    }
}

// ---------------------------------------------------------------------
// def-use
// ---------------------------------------------------------------------

TEST(DefUse, UndefinedGprRead)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    add  r6, r5, r0
    next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      0, 0));
    EXPECT_TRUE(has(rep, v::Severity::error, "def-use", "r5"))
        << dump(rep);
}

TEST(DefUse, NiAliasReadsAreNotUndefined)
{
    // i0..i4 / status etc. are interface registers, not GPRs: reading
    // them without a prior write is the whole point.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    st   i1, i0, r0 !next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      2, 2));
    EXPECT_FALSE(has(rep, v::Severity::error, "def-use", ""))
        << dump(rep);
}

// ---------------------------------------------------------------------
// consume
// ---------------------------------------------------------------------

TEST(Consume, ReadPastMessageLength)
{
    // WRITE messages carry two words; i2 is past the end.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    st   i2, i0, r0 !next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      2, 2));
    EXPECT_TRUE(has(rep, v::Severity::error, "consume",
                    "reads message word 2"))
        << dump(rep);
}

TEST(Consume, DispatchWithoutNext)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      0, 2));
    EXPECT_TRUE(has(rep, v::Severity::error, "consume",
                    "without issuing NEXT"))
        << dump(rep);
}

TEST(Consume, DoubleNext)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    next
    next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      0, 2));
    EXPECT_TRUE(has(rep, v::Severity::warning, "consume",
                    "NEXT may execute twice"))
        << dump(rep);
}

TEST(Consume, WordNeverConsumed)
{
    // A two-word message whose handler touches neither word.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      2, 2));
    EXPECT_TRUE(has(rep, v::Severity::warning, "consume",
                    "message word 0 is never consumed"))
        << dump(rep);
    EXPECT_TRUE(has(rep, v::Severity::warning, "consume",
                    "message word 1 is never consumed"))
        << dump(rep);
}

// ---------------------------------------------------------------------
// send
// ---------------------------------------------------------------------

TEST(Send, WrongWordCountForType)
{
    // READ messages are exactly three words; this sends one.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    addi o0, r0, 1
    send T_READ
    halt
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::error, "send",
                    "sends 1 message words"))
        << dump(rep);
}

TEST(Send, GapInOutputWords)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    addi o0, r0, 1
    addi o2, r0, 3
    send T_READ
    halt
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::error, "send", "gap"))
        << dump(rep);
}

TEST(Send, ReplyAfterWritingSubstitutedRegs)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    addi o0, r0, 7
    reply 0 !next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 2,
                                      3, 3));
    EXPECT_TRUE(has(rep, v::Severity::error, "send",
                    "REPLY substitutes"))
        << dump(rep);
}

TEST(Send, ForwardAfterWritingSubstitutedRegs)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    addi o2, r0, 7
    forward 0 !next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 2,
                                      3, 3));
    EXPECT_TRUE(has(rep, v::Severity::error, "send",
                    "FORWARD substitutes"))
        << dump(rep);
}

TEST(Send, BasicModelWithoutIdWord)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    addi o0, r0, 1
    addi o1, r0, 2
    send 0
    halt
)");
    v::Report rep = v::verify(p, model("reg-basic"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::error, "send",
                    "without a defined o4"))
        << dump(rep);
}

TEST(Send, BasicModelUnknownId)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    addi o0, r0, 1
    addi o1, r0, 2
    addi o4, r0, 13
    send 0
    halt
)");
    v::Report rep = v::verify(p, model("reg-basic"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::error, "send",
                    "unknown message id 13"))
        << dump(rep);
}

TEST(Send, UnresolvableCommandOffsetWarns)
{
    // Cache-mapped NI access whose command offset is a run-time value:
    // the verifier cannot know which Figure-9 command fires.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    li   r10, NI_BASE
    ld   r7, r0, r0
    ld   r6, r10, r7
    halt
)");
    v::Report rep = v::verify(p, model("on-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::warning, "send",
                    "cannot be resolved statically"))
        << dump(rep);
}

// ---------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------

TEST(Dispatch, JumpThroughNonDispatchValue)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    ldi  r6, r0, ALLOC_PTR
    next
    jmp  r6
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      0, 2));
    EXPECT_TRUE(has(rep, v::Severity::error, "dispatch",
                    "not derived from a dispatch source"))
        << dump(rep);
}

TEST(Dispatch, JumpThroughWrongMessageWord)
{
    // Only word 1 of a type-0 message is a dispatch address (Fig. 7).
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    next
    jmp  i2
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 0,
                                      0, 4));
    EXPECT_TRUE(has(rep, v::Severity::error, "dispatch",
                    "only word 1"))
        << dump(rep);
}

TEST(Dispatch, MissingInletLabel)
{
    ni::Model m = model("reg-opt");
    std::string src = msg::handlerProgram(m);
    size_t pos = src.find("h_send1:");
    ASSERT_NE(pos, std::string::npos);
    src.replace(pos, 8, "h_sendX:");

    isa::Program p = asmProg(src);
    v::Report rep = v::verifyHandlers(p, m);
    EXPECT_TRUE(has(rep, v::Severity::error, "dispatch",
                    "inlet label missing"))
        << dump(rep);
}

TEST(Dispatch, MissingIpBaseInstall)
{
    ni::Model m = model("on-opt");
    std::string src = msg::handlerProgram(m);
    size_t pos = src.find("sti  r5, r10, NI_IPBASE");
    ASSERT_NE(pos, std::string::npos);
    src.replace(pos, 23, "add  r3, r5, r0        ");

    isa::Program p = asmProg(src);
    v::Report rep = v::verifyHandlers(p, m);
    EXPECT_TRUE(has(rep, v::Severity::error, "dispatch",
                    "never installs IpBase"))
        << dump(rep);
}

TEST(Dispatch, MissingSoftwareTableEntry)
{
    ni::Model m = model("reg-basic");
    std::string src = msg::handlerProgram(m, false);
    // Drop the READ entry (id 2) from the setup's table stores.
    size_t pos = src.find("    li   r2, hb_read\n"
                          "    sti  r2, r13, 8\n");
    ASSERT_NE(pos, std::string::npos);
    src.erase(pos, std::string("    li   r2, hb_read\n"
                               "    sti  r2, r13, 8\n").size());

    isa::Program p = asmProg(src);
    v::Report rep = v::verifyHandlers(p, m);
    EXPECT_TRUE(has(rep, v::Severity::error, "dispatch",
                    "software dispatch table has no entry"))
        << dump(rep);
}

TEST(Dispatch, KernelWithoutEntryLabel)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
start:
    halt
)");
    v::Report rep = v::verifySender(p, model("reg-opt"));
    EXPECT_TRUE(has(rep, v::Severity::error, "structure",
                    "no 'entry' label"))
        << dump(rep);
}

// ---------------------------------------------------------------------
// structure / region
// ---------------------------------------------------------------------

TEST(Structure, FallThroughIntoPad)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    addi r5, r0, 1
    .align HANDLER_STRIDE
x:
    halt
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::error, "structure",
                    "falls through into non-code"))
        << dump(rep);
}

TEST(Structure, JumpLeavesImage)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    li   r6, 0x9000
    jmp  r6
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::error, "structure",
                    "outside the program's code"))
        << dump(rep);
}

TEST(Structure, UnreachableCode)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
s:
    halt
    addi r5, r0, 1
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::warning, "structure",
                    "unreachable"))
        << dump(rep);
}

TEST(Region, ReachableCodeWithoutCostTag)
{
    isa::Program p = asmProg(R"(
    .org 0x4000
s:
    addi r5, r0, 1
    halt
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::warning, "region",
                    "no .region cost tag"))
        << dump(rep);
}

// ---------------------------------------------------------------------
// hazard
// ---------------------------------------------------------------------

TEST(Hazard, OffChipLoadUseStallNoted)
{
    const std::string src = R"(
    .org 0x4000
    .region processing
s:
    li   r10, NI_BASE
    ldi  r5, r10, NI_I0
    add  r6, r5, r0
    halt
)";
    isa::Program p = asmProg(src);
    v::Report off = v::verify(p, model("off-opt"),
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(off, v::Severity::note, "hazard",
                    "2-cycle load-use stall on r5"))
        << dump(off);

    // The identical kernel on the on-chip interface has no stall: the
    // 2-cycle penalty is the off-chip placement's, not the code's.
    v::Report on = v::verify(p, model("on-opt"),
                             oneRoot(p, "s", v::RootKind::setup));
    EXPECT_EQ(on.count(v::Severity::note), 0u) << dump(on);
}

TEST(Hazard, StallDepthFollowsPlacementPolicy)
{
    // The note's cycle count comes from NiConfig::loadUseDelay(),
    // not a hard-wired constant: the far off-chip variant (delay 8)
    // must report an 8-cycle stall for the very same kernel that
    // stalls 2 cycles on the paper's off-chip model.
    const std::string src = R"(
    .org 0x4000
    .region processing
s:
    li   r10, NI_BASE
    ldi  r5, r10, NI_I0
    add  r6, r5, r0
    halt
)";
    isa::Program p = asmProg(src);
    ni::Model far =
        ni::Model{ni::Placement::offChipCache, true}.withOffchipDelay(8);
    v::Report rep = v::verify(p, far,
                              oneRoot(p, "s", v::RootKind::setup));
    EXPECT_TRUE(has(rep, v::Severity::note, "hazard",
                    "8-cycle load-use stall on r5"))
        << dump(rep);
    EXPECT_FALSE(has(rep, v::Severity::note, "hazard", "2-cycle"))
        << dump(rep);
}

TEST(Hazard, OnNiHandlersNeverInterlock)
{
    // HPU-resident handlers address the queues as registers, so the
    // NI load-use delay is zero regardless of the memory hierarchy.
    for (bool optimized : {false, true}) {
        ni::Model onni{ni::Placement::onNi, optimized};
        isa::Program p = asmProg(msg::handlerProgram(onni, false));
        v::Report rep = v::verifyHandlers(p, onni);
        EXPECT_EQ(rep.count(v::Severity::note), 0u)
            << onni.shortName() << ":\n" << dump(rep);
    }
}

TEST(Hazard, RegisterMappedNeverInterlocks)
{
    for (const ni::Model &m : {model("reg-opt"), model("reg-basic")}) {
        isa::Program p = asmProg(msg::handlerProgram(m, false));
        v::Report rep = v::verifyHandlers(p, m);
        EXPECT_EQ(rep.count(v::Severity::note), 0u)
            << m.shortName() << ":\n" << dump(rep);
    }
}

// ---------------------------------------------------------------------
// budget (On-NI handler-time contract)
// ---------------------------------------------------------------------

TEST(Budget, LoopingHandlerWarnsUnbounded)
{
    // A loop on the path to NEXT makes the worst-case occupancy
    // unbounded: the sPIN-style contract says that work belongs on
    // the host, reached through the proxy ring.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    addi r5, r0, 8
spin:
    addi r5, r5, -1
    bnez r5, spin
    nop
    st   i1, i0, r0 !next
    jmp  nextmsgip
    nop
)");
    ni::Model onni{ni::Placement::onNi, true};
    v::Report rep = v::verify(p, onni,
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      2, 2));
    EXPECT_TRUE(has(rep, v::Severity::warning, "budget", "unbounded"))
        << dump(rep);
}

TEST(Budget, StraightLineOverrunWarnsWithCycleCount)
{
    // 100 straight-line instructions against the On-NI policy's
    // 64-cycle budget: bounded, but over.
    std::string src = ".org 0x4000\n.region processing\nh:\n";
    for (int i = 0; i < 100; ++i)
        src += "    addi r5, r0, 1\n";
    src += "    st   i1, i0, r0 !next\n"
           "    jmp  nextmsgip\n"
           "    nop\n";
    isa::Program p = asmProg(src);
    ni::Model onni{ni::Placement::onNi, true};
    v::Report rep = v::verify(p, onni,
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      2, 2));
    EXPECT_TRUE(has(rep, v::Severity::warning, "budget",
                    "exceeds the handler-time budget"))
        << dump(rep);
}

TEST(Budget, HostPlacementsHaveNoBudget)
{
    // The same looping kernel is fine on a host placement: only the
    // On-NI policy publishes a handler-time budget.
    isa::Program p = asmProg(R"(
    .org 0x4000
    .region processing
h:
    addi r5, r0, 8
spin:
    addi r5, r5, -1
    bnez r5, spin
    nop
    st   i1, i0, r0 !next
    jmp  nextmsgip
    nop
)");
    v::Report rep = v::verify(p, model("reg-opt"),
                              oneRoot(p, "h", v::RootKind::handler, 3,
                                      2, 2));
    EXPECT_FALSE(has(rep, v::Severity::warning, "budget", ""))
        << dump(rep);
}

TEST(Budget, ShippedHpuKernelsStayWithinBudget)
{
    // The shipped On-NI kernels must honor their own contract: no
    // budget diagnostics on either variant.
    for (bool optimized : {false, true}) {
        ni::Model onni{ni::Placement::onNi, optimized};
        isa::Program p = asmProg(msg::handlerProgram(onni));
        v::Report rep = v::verifyHandlers(p, onni);
        EXPECT_FALSE(has(rep, v::Severity::warning, "budget", ""))
            << onni.shortName() << ":\n" << dump(rep);
    }
}

TEST(Hazard, ReadHandlerStallsMatchTable1Delta)
{
    // The statically-predicted stall cycles in the READ handler's slot
    // must equal the measured off-chip minus on-chip processing delta:
    // the only difference between those two models is the 2-cycle
    // load-use penalty the hazard analysis charges.
    ni::Model on = model("on-opt");
    ni::Model off = model("off-opt");

    cost::Table1Harness hon(on);
    cost::Table1Harness hoff(off);
    double d_on = hon.processingCost(cost::ProcCase::read).processing;
    double d_off = hoff.processingCost(cost::ProcCase::read).processing;

    isa::Program p = asmProg(msg::handlerProgram(off));
    v::Report rep = v::verifyHandlers(p, off);

    Addr h_read = static_cast<Addr>(p.symbols.at("h_read"));
    Addr stride = 1u << ni::dispatch::handlerShift;
    int static_stalls = 0;
    for (const v::Diag &d : rep.diags) {
        if (d.severity == v::Severity::note && d.check == "hazard" &&
            d.addr >= h_read && d.addr < h_read + stride)
            static_stalls += std::stoi(d.message);
    }
    EXPECT_DOUBLE_EQ(d_off - d_on, static_stalls) << dump(rep);
}
