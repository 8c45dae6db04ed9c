#include "verify/verifier.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "msg/protocol.hh"
#include "ni/ni_regs.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{
namespace verify
{
namespace
{

using isa::Instruction;
using isa::Opcode;
using isa::SendMode;

constexpr uint32_t
bitOf(unsigned r)
{
    return 1u << r;
}

/** Dataflow state at one program point of one verification root. */
struct State
{
    bool live = false;          //!< reachable from the root
    uint32_t mustDef = 0;       //!< regs written on every path
    uint32_t mayWritten = 0;    //!< regs written on some path
    uint8_t oDef = 0;           //!< o-words written on every path
    uint8_t oMay = 0;           //!< o-words written on some path
    std::array<AbsVal, 5> oVals;    //!< values in o0..o4 (o4 = basic id)
    bool mayNext = false;       //!< NEXT issued on some path
    bool mustNext = false;      //!< NEXT issued on every path
    bool mayEscape = false;     //!< host-proxy post on some path
    bool mustEscape = false;    //!< host-proxy post on every path
    RegEnv env;                 //!< abstract register values
};

/** Join @p src into @p dst; true if @p dst changed. */
bool
mergeInto(State &dst, const State &src)
{
    if (!dst.live) {
        dst = src;
        dst.live = true;
        return true;
    }
    bool changed = false;
    auto join = [&](auto &d, auto v) {
        if (d != v) {
            d = v;
            changed = true;
        }
    };
    join(dst.mustDef, dst.mustDef & src.mustDef);
    join(dst.mayWritten, dst.mayWritten | src.mayWritten);
    join(dst.oDef, static_cast<uint8_t>(dst.oDef & src.oDef));
    join(dst.oMay, static_cast<uint8_t>(dst.oMay | src.oMay));
    join(dst.mayNext, dst.mayNext || src.mayNext);
    join(dst.mustNext, dst.mustNext && src.mustNext);
    join(dst.mayEscape, dst.mayEscape || src.mayEscape);
    join(dst.mustEscape, dst.mustEscape && src.mustEscape);
    for (unsigned k = 0; k < 5; ++k) {
        AbsVal v = mergeVal(dst.oVals[k], src.oVals[k]);
        if (!(v == dst.oVals[k])) {
            dst.oVals[k] = v;
            changed = true;
        }
    }
    for (unsigned r = 0; r < isa::numRegs; ++r) {
        AbsVal m = mergeVal(dst.env[r], src.env[r]);
        if (!(m == dst.env[r])) {
            dst.env[r] = m;
            changed = true;
        }
    }
    return changed;
}

/** A decoded Figure-9 command access (cache-mapped models). */
struct NiAccess
{
    bool isNi = false;
    unsigned reg = 0;
    SendMode mode = SendMode::none;
    unsigned type = 0;
    bool next = false;
};

NiAccess
decodeNiAddr(Word addr)
{
    NiAccess a;
    if ((addr & ni::cmdaddr::niAddrBase) != ni::cmdaddr::niAddrBase)
        return a;
    Word off = addr & ~ni::cmdaddr::niAddrBase;
    a.isNi = true;
    a.reg = (off >> ni::cmdaddr::regShift) & 0xf;
    a.mode = static_cast<SendMode>((off >> ni::cmdaddr::modeShift) & 3);
    a.type = (off >> ni::cmdaddr::typeShift) & 0xf;
    a.next = (off >> ni::cmdaddr::nextBit) & 1;
    return a;
}

/**
 * Abstract arithmetic on an input word: i<k> plus/minus a compile-time
 * constant stays classified as that input word, with the constant
 * folded into AbsVal::delta.  This is what lets the protocol analyzer
 * recognize a statically-decremented hop bound in a forwarded message.
 */
std::optional<AbsVal>
inputWordDelta(Opcode op, const AbsVal &a, const AbsVal &b)
{
    bool add = op == Opcode::add || op == Opcode::addi;
    bool sub = op == Opcode::sub;
    if (!add && !sub)
        return std::nullopt;
    auto shifted = [](AbsVal w, int32_t d) {
        w.delta += d;
        return w;
    };
    if (a.kind == VKind::inputWord && b.kind == VKind::constant) {
        int32_t d = static_cast<int32_t>(b.value);
        return shifted(a, add ? d : -d);
    }
    if (add && b.kind == VKind::inputWord && a.kind == VKind::constant)
        return shifted(b, static_cast<int32_t>(a.value));
    return std::nullopt;
}

/** Software dispatch-table base containing @p addr, if any. */
std::optional<Word>
tableBaseOf(Word addr)
{
    if (addr >= msg::basicDispatchTable &&
        addr < msg::basicDispatchTable + 64)
        return msg::basicDispatchTable;
    if (addr >= msg::escapeTableAddr && addr < msg::escapeTableAddr + 64)
        return msg::escapeTableAddr;
    return std::nullopt;
}

/** Verification of one root of one program. */
struct RootRun
{
    const isa::Program &prog;
    const ni::Model &model;
    const Contract &contract;
    const Root &root;
    bool regMapped;

    std::map<size_t, State> in;     //!< converged IN state per unit
    std::set<size_t> &visited;      //!< global (all roots)
    std::set<size_t> &niLoads;      //!< NI-window loads (for hazards)
    Report *rep = nullptr;          //!< null during the fixpoint pass
    RootSummary *summary = nullptr; //!< set (with rep) in the report pass
    std::set<unsigned> consumed;    //!< message words this root reads

    unsigned
    lineAt(size_t idx) const
    {
        return idx < prog.lineOf.size() ? prog.lineOf[idx] : 0;
    }

    void
    diag(Severity sev, const char *check, size_t idx,
         const std::string &message)
    {
        if (rep) {
            rep->add(sev, check, prog.base + static_cast<Addr>(idx) * 4,
                     lineAt(idx), root.name, message);
        }
    }

    void processUnit(size_t idx, std::vector<size_t> &succs);
    void applyInst(size_t idx, const Instruction &inst, State &st);
    void noteIRead(size_t idx, unsigned k, const State &st);
    void doSend(size_t idx, State &st, SendMode mode, unsigned stype,
                bool with_next);
    void classifyJmp(size_t idx, const Instruction &inst,
                     const AbsVal &target, const State &st,
                     std::vector<size_t> &succs);
    void joinTo(size_t to, const State &st, std::vector<size_t> &succs);
    void fallTo(size_t from, size_t to, const State &st,
                std::vector<size_t> &succs);

    /** The activation leaves this root (dispatch onward or halt). */
    void
    recordExit(const State &st)
    {
        if (!summary)
            return;
        ++summary->exits;
        if (st.mustEscape)
            ++summary->exitsEscaped;
    }
};

void
RootRun::noteIRead(size_t idx, unsigned k, const State &st)
{
    // Input-register reads after NEXT belong to the following message;
    // only pre-NEXT reads consume this root's message.
    if (!root.expectsMessage() || st.mayNext)
        return;
    if (!rep)
        return;
    consumed.insert(k);
    if (k >= root.maxWords) {
        diag(Severity::error, "consume", idx,
             "reads message word " + std::to_string(k) + " but type " +
                 std::to_string(root.type) + " messages carry at most " +
                 std::to_string(root.maxWords) + " words");
    }
}

void
RootRun::doSend(size_t idx, State &st, SendMode mode, unsigned stype,
                bool with_next)
{
    uint8_t filled = st.oDef;
    uint8_t substituted = 0;

    if (mode == SendMode::reply) {
        if (rep && (st.oMay & 0b00011)) {
            diag(Severity::error, "send", idx,
                 "REPLY substitutes i1,i2 for o0,o1 but this handler "
                 "wrote o0/o1");
        }
        // i1,i2 head the outgoing message when the incoming one
        // carries them (Section 2.2.2).
        for (unsigned k : {1u, 2u}) {
            if (root.expectsMessage() && k < root.minWords) {
                filled |= bitOf(k - 1);
                substituted |= bitOf(k - 1);
                noteIRead(idx, k, st);
            }
        }
    } else if (mode == SendMode::forward) {
        if (rep && (st.oMay & 0b11100)) {
            diag(Severity::error, "send", idx,
                 "FORWARD substitutes i2..i4 for o2..o4 but this "
                 "handler wrote o2/o3/o4");
        }
        for (unsigned k : {2u, 3u, 4u}) {
            if (root.expectsMessage() && k < root.minWords) {
                filled |= bitOf(k);
                substituted |= bitOf(k);
                noteIRead(idx, k, st);
            }
        }
    }

    if (!rep)
        return;

    // The message is the contiguous run of defined words from o0.  On
    // basic models o4 is the out-of-band id, not payload.
    bool basic = !model.optimized;
    uint8_t payload = basic ? (filled & 0xf) : filled;
    unsigned limit = basic ? 4 : 5;
    unsigned prefix = 0;
    while (prefix < limit && (payload & bitOf(prefix)))
        ++prefix;

    if (summary) {
        EmitSite site;
        site.mode = mode;
        site.words = prefix;
        site.substituted = substituted;
        // A send folded with !next on the same instruction retires the
        // input slot with the send; it is consume-disciplined.
        site.beforeNext = !(st.mustNext || with_next);
        site.addr = prog.base + static_cast<Addr>(idx) * 4;
        site.line = idx < prog.lineOf.size() ? prog.lineOf[idx] : 0;
        if (basic) {
            if (st.oVals[4].kind == VKind::constant) {
                site.typeKnown = true;
                site.type = st.oVals[4].value & 0xffff;
            }
        } else {
            site.typeKnown = true;
            site.type = stype;
        }
        for (unsigned k = 0; k < prefix && k < 5; ++k) {
            if (substituted & bitOf(k))
                continue;
            const AbsVal &v = st.oVals[k];
            if (v.kind == VKind::inputWord && v.delta < 0)
                site.decremented = true;
        }
        summary->emits.push_back(site);
    }

    if (payload >> prefix) {
        diag(Severity::error, "send", idx,
             "outgoing message has a gap: words above o" +
                 std::to_string(prefix) + " are written but o" +
                 std::to_string(prefix) + " is not");
        return;
    }

    unsigned minw = 0, maxw = 0;
    std::string what;
    if (basic) {
        if (!(st.oDef & bitOf(4))) {
            diag(Severity::error, "send", idx,
                 "basic-model SEND without a defined o4 id word");
            return;
        }
        if (st.oVals[4].kind != VKind::constant) {
            diag(Severity::warning, "send", idx,
                 "cannot determine the o4 message id statically");
            return;
        }
        unsigned id = st.oVals[4].value;
        bool send_family = msg::normalizeBasicId(id) == msg::typeSend;
        if (!send_family && !(id < 16 && msg::typeContract(id).live)) {
            diag(Severity::error, "send", idx,
                 "sends unknown message id " + std::to_string(id));
            return;
        }
        basicIdContract(id, minw, maxw);
        what = "id " + std::to_string(id);
    } else {
        msg::TypeContract tc = msg::typeContract(stype);
        if (!tc.live) {
            diag(Severity::error, "send", idx,
                 "sends non-protocol type " + std::to_string(stype));
            return;
        }
        minw = tc.minWords;
        maxw = tc.maxWords;
        what = "type " + std::to_string(stype);
    }
    if (prefix < minw || prefix > maxw) {
        diag(Severity::error, "send", idx,
             "sends " + std::to_string(prefix) + " message words but " +
                 what + " requires " + std::to_string(minw) + ".." +
                 std::to_string(maxw));
    }
}

void
RootRun::applyInst(size_t idx, const Instruction &inst, State &st)
{
    // Resolve the memory operand, if there is one.
    bool mem = isa::isLoad(inst.op) || isa::isStore(inst.op);
    AbsVal base, off;
    bool addrKnown = false;
    Word addr = 0;
    NiAccess acc;
    if (mem) {
        base = readReg(st.env, inst.rs1);
        off = (inst.op == Opcode::ld || inst.op == Opcode::st)
                  ? readReg(st.env, inst.rs2)
                  : AbsVal{VKind::constant, static_cast<Word>(inst.imm)};
        if (base.kind == VKind::constant && off.kind == VKind::constant) {
            addrKnown = true;
            addr = base.value + off.value;
        }
        if (!regMapped) {
            if (addrKnown) {
                acc = decodeNiAddr(addr);
            } else if (base.kind == VKind::constant &&
                       decodeNiAddr(base.value).isNi) {
                // NI base plus a run-time offset: the command bits are
                // unknowable, so nothing below can be checked.
                diag(Severity::warning, "send", idx,
                     "network-interface access with a command offset "
                     "that cannot be resolved statically");
            }
        }
    }
    if (acc.isNi && isa::isLoad(inst.op))
        niLoads.insert(idx);

    // 1. Reads (with the pre-instruction state).
    for (unsigned r : isa::regsRead(inst)) {
        bool alias = regMapped && r >= isa::niRegBase &&
                     r < isa::niRegBase + ni::numNiRegs;
        if (!alias && !(st.mustDef & bitOf(r))) {
            diag(Severity::error, "def-use", idx,
                 "reads " + isa::regName(r) +
                     " which may be undefined here");
        }
        if (regMapped && r >= isa::niRegBase + ni::regI0 &&
            r <= isa::niRegBase + ni::regI4)
            noteIRead(idx, r - (isa::niRegBase + ni::regI0), st);
    }
    if (acc.isNi && isa::isLoad(inst.op) && acc.reg >= ni::regI0 &&
        acc.reg <= ni::regI4)
        noteIRead(idx, acc.reg - ni::regI0, st);

    // A store to the host-proxy doorbell (On-NI models) ships the
    // whole message -- effective id plus input words -- to the host
    // service loop, consuming every word the message carries.
    if (isa::isStore(inst.op) && addrKnown &&
        addr == msg::hpuProxyAddr) {
        for (unsigned k = 0; k < root.maxWords; ++k)
            noteIRead(idx, k, st);
        st.mayEscape = true;
        st.mustEscape = true;
        if (summary)
            summary->escapes = true;
    } else if (isa::isStore(inst.op) && !acc.isNi && summary) {
        summary->plainStores = true;
    }

    // 2. The instruction's own write (visible to a folded SEND: the
    //    paper's fused "ld o2, (i0) !reply !next").
    if (auto rd = isa::regWritten(inst)) {
        AbsVal result;
        if (inst.op == Opcode::lui) {
            result = {VKind::constant, static_cast<Word>(inst.imm) << 16};
        } else if (isa::isLoad(inst.op)) {
            if (acc.isNi) {
                if (acc.reg >= ni::regI0 && acc.reg <= ni::regI4)
                    result = {VKind::inputWord,
                              static_cast<Word>(acc.reg - ni::regI0)};
                else if (acc.reg == ni::regMsgIp ||
                         acc.reg == ni::regNextMsgIp)
                    result = {VKind::dispatchPtr, 0};
            } else {
                std::optional<Word> tb;
                if (base.kind == VKind::constant)
                    tb = tableBaseOf(base.value);
                if (!tb && off.kind == VKind::constant)
                    tb = tableBaseOf(off.value);
                if (!tb && addrKnown)
                    tb = tableBaseOf(addr);
                if (tb)
                    result = {VKind::tableEntry, *tb};
            }
        } else if (inst.op == Opcode::jmp || isa::isBranch(inst.op)) {
            // Link register: pc + 8.
            result = {VKind::constant,
                      prog.base + static_cast<Word>(idx) * 4 + 8};
        } else if (isa::isTriadic(inst.op)) {
            AbsVal a = readReg(st.env, inst.rs1);
            AbsVal b = readReg(st.env, inst.rs2);
            if (a.kind == VKind::constant && b.kind == VKind::constant) {
                if (auto v = evalAlu(inst.op, a.value, b.value))
                    result = {VKind::constant, *v};
            } else if (auto w = inputWordDelta(inst.op, a, b)) {
                result = *w;
            }
        } else {
            AbsVal a = readReg(st.env, inst.rs1);
            AbsVal b{VKind::constant, static_cast<Word>(inst.imm)};
            if (a.kind == VKind::constant) {
                if (auto v = evalAlu(inst.op, a.value, b.value))
                    result = {VKind::constant, *v};
            } else if (auto w = inputWordDelta(inst.op, a, b)) {
                result = *w;
            }
        }
        st.env[*rd] = result;
        st.mustDef |= bitOf(*rd);
        st.mayWritten |= bitOf(*rd);
        if (regMapped && *rd >= isa::niRegBase + ni::regO0 &&
            *rd <= isa::niRegBase + ni::regO4) {
            unsigned k = *rd - (isa::niRegBase + ni::regO0);
            st.oDef |= bitOf(k);
            st.oMay |= bitOf(k);
            st.oVals[k] = result;
        }
    }
    if (acc.isNi && isa::isStore(inst.op) && acc.reg <= ni::regO4) {
        st.oDef |= bitOf(acc.reg);
        st.oMay |= bitOf(acc.reg);
        st.oVals[acc.reg] = readReg(st.env, inst.rd);
    }

    // 3. NI commands: folded into the instruction word, or carried by
    //    the command address (Figure 9).
    SendMode mode = SendMode::none;
    unsigned stype = 0;
    bool donext = false;
    if (inst.ni.any()) {
        mode = inst.ni.mode;
        stype = inst.ni.type;
        donext = inst.ni.next;
    }
    if (acc.isNi) {
        if (acc.mode != SendMode::none) {
            mode = acc.mode;
            stype = acc.type;
        }
        donext = donext || acc.next;
    }
    if (mode != SendMode::none)
        doSend(idx, st, mode, stype, donext);
    if (donext) {
        if (rep && st.mayNext && root.expectsMessage()) {
            diag(Severity::warning, "consume", idx,
                 "NEXT may execute twice on a path through this "
                 "handler");
        }
        st.mayNext = true;
        st.mustNext = true;
    }
}

void
RootRun::joinTo(size_t to, const State &st, std::vector<size_t> &succs)
{
    if (rep)
        return;     // states are converged in the report pass
    if (mergeInto(in[to], st))
        succs.push_back(to);
}

void
RootRun::fallTo(size_t from, size_t to, const State &st,
                std::vector<size_t> &succs)
{
    if (to >= prog.words.size() ||
        prog.kindOf[to] != isa::WordKind::code) {
        diag(Severity::error, "structure", from,
             "control falls through into non-code (off the end of the "
             "handler?)");
        return;
    }
    joinTo(to, st, succs);
}

void
RootRun::classifyJmp(size_t idx, const Instruction &inst,
                     const AbsVal &target, const State &st,
                     std::vector<size_t> &succs)
{
    unsigned rs1 = inst.rs1;

    // Register-mapped code names its dispatch source directly.
    if (regMapped && (rs1 == isa::niRegBase + ni::regMsgIp ||
                      rs1 == isa::niRegBase + ni::regNextMsgIp)) {
        if (root.expectsMessage() && !st.mustNext) {
            diag(Severity::error, "consume", idx,
                 "dispatches to the next message without issuing NEXT "
                 "for the current one");
        }
        recordExit(st);
        return;
    }
    if (regMapped && rs1 >= isa::niRegBase + ni::regI0 &&
        rs1 <= isa::niRegBase + ni::regI4) {
        unsigned k = rs1 - (isa::niRegBase + ni::regI0);
        if (k != 1) {
            diag(Severity::error, "dispatch", idx,
                 "dispatches through message word " + std::to_string(k) +
                     "; only word 1 is a dispatch address (Figure 7)");
        }
        recordExit(st);
        return;
    }

    switch (target.kind) {
      case VKind::dispatchPtr:
        if (root.expectsMessage() && !st.mustNext) {
            diag(Severity::error, "consume", idx,
                 "dispatches to the next message without issuing NEXT "
                 "for the current one");
        }
        recordExit(st);
        return;
      case VKind::inputWord:
        if (target.value != 1 || target.delta != 0) {
            diag(Severity::error, "dispatch", idx,
                 "dispatches through message word " +
                     std::to_string(target.value) +
                     "; only word 1 is a dispatch address (Figure 7)");
        }
        recordExit(st);
        return;
      case VKind::tableEntry:
        // A jump through the basic dispatch table starts the next
        // message (NEXT must precede it); a jump through the escape
        // table continues the current one.
        if (target.value == msg::basicDispatchTable &&
            root.expectsMessage() && !st.mustNext) {
            diag(Severity::error, "consume", idx,
                 "dispatches to the next message without issuing NEXT "
                 "for the current one");
        }
        recordExit(st);
        return;
      case VKind::constant: {
        Addr t = target.value;
        if (!prog.contains(t) ||
            prog.kindOf[prog.indexOf(t)] != isa::WordKind::code) {
            diag(Severity::error, "structure", idx,
                 "jumps to an address outside the program's code");
            return;
        }
        joinTo(prog.indexOf(t), st, succs);
        return;
      }
      case VKind::unknown:
        diag(Severity::error, "dispatch", idx,
             "indirect jump target is not derived from a dispatch "
             "source (MsgIp/NextMsgIp, message word 1, or a dispatch "
             "table)");
        recordExit(st);
        return;
    }
}

void
RootRun::processUnit(size_t idx, std::vector<size_t> &succs)
{
    State st = in.at(idx);
    visited.insert(idx);
    Instruction inst = isa::decode(prog.words[idx]);

    if (inst.op == Opcode::halt) {
        if (rep)
            recordExit(st);
        return;
    }

    if (!isa::isBranch(inst.op)) {
        applyInst(idx, inst, st);
        fallTo(idx, idx + 1, st, succs);
        return;
    }

    // A branch and its delay slot form one unit: the delay slot's
    // effects are visible at the branch target (Section 2.2.3 leans on
    // this for the dispatch overlap).
    AbsVal jtarget = readReg(st.env, inst.rs1);
    applyInst(idx, inst, st);

    size_t d = idx + 1;
    if (d >= prog.words.size() || prog.kindOf[d] != isa::WordKind::code) {
        diag(Severity::error, "structure", idx,
             "branch delay slot is not an instruction");
    } else {
        visited.insert(d);
        Instruction dinst = isa::decode(prog.words[d]);
        if (isa::isBranch(dinst.op) || dinst.op == Opcode::halt) {
            diag(Severity::warning, "structure", d,
                 "control transfer in a branch delay slot");
        } else {
            applyInst(d, dinst, st);
        }
    }

    if (inst.op == Opcode::jmp) {
        classifyJmp(idx, inst, jtarget, st, succs);
        return;
    }

    Addr pc = prog.base + static_cast<Addr>(idx) * 4;
    Addr target = pc + 4 + static_cast<Word>(inst.imm) * 4;
    if (!prog.contains(target) ||
        prog.kindOf[prog.indexOf(target)] != isa::WordKind::code) {
        diag(Severity::error, "structure", idx,
             "branch target is outside the program's code");
    } else {
        joinTo(prog.indexOf(target), st, succs);
    }
    if (isa::isCondBranch(inst.op))
        fallTo(idx, idx + 2, st, succs);
}

/** Initial state for a root, from the contract's pinned constants. */
State
rootEntryState(const Contract &contract, const Root &root,
               bool reg_mapped)
{
    State init;
    init.live = true;
    init.mustDef = bitOf(0);
    if (reg_mapped) {
        for (unsigned r = isa::niRegBase;
             r < isa::niRegBase + ni::numNiRegs; ++r)
            init.mustDef |= bitOf(r);
    }
    if (root.kind != RootKind::setup) {
        init.env = contract.pinned;
        for (unsigned r = 1; r < isa::numRegs; ++r) {
            if (init.env[r].kind == VKind::constant)
                init.mustDef |= bitOf(r);
        }
    }
    // Register-mapped message roots see the message in the i-register
    // aliases; name them so copies and arithmetic on input words stay
    // classified (delta tracking for forwarded hop bounds).
    if (reg_mapped && root.expectsMessage()) {
        for (unsigned k = 0; k < 5; ++k) {
            init.env[isa::niRegBase + ni::regI0 + k] =
                AbsVal{VKind::inputWord, k};
        }
    }
    return init;
}

/**
 * Statically estimate load-use stalls (notes).  Models the CPU's
 * interlock: a load's result is ready 1 + d cycles after issue, where
 * d is the interface's load-use delay for NI-window accesses (2 for
 * the off-chip placement) and 0 for plain memory.  Register-mapped
 * interface reads never interlock.
 */
void
hazardScan(const isa::Program &prog, const ni::Model &model,
           const Contract &contract, const std::set<size_t> &visited,
           const std::set<size_t> &ni_loads, Report &rep)
{
    // Kernels compiled register-mapped (including the On-NI models'
    // HPU handler kernels) never interlock on the interface.
    unsigned ni_delay = contract.kernelRegMapped
                            ? 0
                            : model.config().loadUseDelay();
    bool reg_mapped = contract.kernelRegMapped ||
                      model.policy().registerMapped;

    // Pessimistic block boundaries: every root entry and branch target
    // resets the pipeline model.
    std::set<size_t> resets;
    for (const Root &r : contract.roots) {
        if (prog.contains(r.entry))
            resets.insert(prog.indexOf(r.entry));
    }
    for (size_t i : visited) {
        Instruction inst = isa::decode(prog.words[i]);
        if (!isa::isBranch(inst.op) || inst.op == Opcode::jmp)
            continue;
        Addr pc = prog.base + static_cast<Addr>(i) * 4;
        Addr target = pc + 4 + static_cast<Word>(inst.imm) * 4;
        if (prog.contains(target))
            resets.insert(prog.indexOf(target));
    }

    std::array<int, isa::numRegs> pend{};
    auto reset = [&] { pend.fill(0); };
    size_t barrier = SIZE_MAX;
    for (size_t i = 0; i < prog.words.size(); ++i) {
        if (prog.kindOf[i] != isa::WordKind::code || !visited.count(i)) {
            reset();
            continue;
        }
        if (i == barrier || resets.count(i))
            reset();
        Instruction inst = isa::decode(prog.words[i]);
        for (int &p : pend) {
            if (p > 0)
                --p;
        }
        int stall = 0;
        unsigned stall_reg = 0;
        for (unsigned r : isa::regsRead(inst)) {
            if (reg_mapped && r >= isa::niRegBase)
                continue;   // interface registers never interlock
            if (pend[r] > stall) {
                stall = pend[r];
                stall_reg = r;
            }
        }
        if (stall > 0) {
            rep.add(Severity::note, "hazard",
                    prog.base + static_cast<Addr>(i) * 4,
                    i < prog.lineOf.size() ? prog.lineOf[i] : 0,
                    model.shortName(),
                    std::to_string(stall) + "-cycle load-use stall on " +
                        isa::regName(stall_reg));
            for (int &p : pend)
                p = std::max(0, p - stall);
        }
        if (isa::isLoad(inst.op)) {
            if (auto rd = isa::regWritten(inst)) {
                unsigned d = ni_loads.count(i) ? ni_delay : 0;
                bool alias = reg_mapped && *rd >= isa::niRegBase;
                if (!alias)
                    pend[*rd] = static_cast<int>(1 + d);
            }
        }
        if (inst.op == Opcode::br || inst.op == Opcode::jmp)
            barrier = i + 2;
        else if (inst.op == Opcode::halt)
            barrier = i + 1;
    }
}

/**
 * Handler-time budget scan (On-NI models).  sPIN's contract bounds how
 * long a handler may occupy its HPU; the kernels guarantee the bound
 * statically by keeping every handler loop-free up to its NEXT and
 * escaping unbounded work (deferred-list walks) to the host.  The scan
 * walks every path from each message-handling root, counting one cycle
 * per instruction, and terminates a path at the instruction that
 * retires NEXT, at a halt, or at an indirect jmp (dispatch: by then
 * the activation is over).  A cycle reached before NEXT is unbounded
 * occupancy; a worst-case path longer than the budget is an overrun.
 * Both are warnings, so `tcpni_lint --Werror` rejects such kernels.
 */
struct BudgetWalker
{
    const isa::Program &prog;
    std::map<size_t, uint64_t> memo;
    std::set<size_t> onpath;
    bool cyclic = false;

    uint64_t
    walk(size_t idx)
    {
        if (cyclic)
            return 0;
        auto it = memo.find(idx);
        if (it != memo.end())
            return it->second;
        if (onpath.count(idx)) {
            cyclic = true;
            return 0;
        }
        if (idx >= prog.words.size() ||
            prog.kindOf[idx] != isa::WordKind::code)
            return 0;   // structure checks report fall-offs

        onpath.insert(idx);
        Instruction inst = isa::decode(prog.words[idx]);
        uint64_t cost;
        if (inst.op == Opcode::halt) {
            cost = 1;
        } else if (!isa::isBranch(inst.op)) {
            cost = 1;
            if (!inst.ni.next)
                cost += walk(idx + 1);
        } else {
            cost = 2;   // the branch and its delay slot
            bool ends = inst.ni.next;
            if (idx + 1 < prog.words.size() &&
                prog.kindOf[idx + 1] == isa::WordKind::code)
                ends = ends || isa::decode(prog.words[idx + 1]).ni.next;
            // Indirect jumps are dispatch; the activation is over.
            if (!ends && inst.op != Opcode::jmp) {
                Addr pc = prog.base + static_cast<Addr>(idx) * 4;
                Addr target =
                    pc + 4 + static_cast<Word>(inst.imm) * 4;
                uint64_t worst = 0;
                if (prog.contains(target))
                    worst = walk(prog.indexOf(target));
                if (isa::isCondBranch(inst.op))
                    worst = std::max(worst, walk(idx + 2));
                cost += worst;
            }
        }
        onpath.erase(idx);
        memo[idx] = cost;
        return cost;
    }
};

void
budgetScan(const isa::Program &prog, const ni::Model &model,
           const Contract &contract, Report &rep)
{
    Cycles budget = model.policy().handlerTimeBudget;
    if (budget == 0)
        return;

    for (const Root &root : contract.roots) {
        if (!root.expectsMessage() || !prog.contains(root.entry))
            continue;
        size_t entry = prog.indexOf(root.entry);
        unsigned line =
            entry < prog.lineOf.size() ? prog.lineOf[entry] : 0;

        BudgetWalker bw{prog, {}, {}, false};
        uint64_t worst = bw.walk(entry);
        if (bw.cyclic) {
            rep.add(Severity::warning, "budget", root.entry, line,
                    root.name,
                    "handler occupancy is unbounded: a loop precedes "
                    "NEXT (escape this work to the host proxy)");
        } else if (worst > budget) {
            rep.add(Severity::warning, "budget", root.entry, line,
                    root.name,
                    "worst-case handler occupancy of " +
                        std::to_string(worst) +
                        " cycles exceeds the handler-time budget of " +
                        std::to_string(budget));
        }
    }
}

} // namespace

Report
verify(const isa::Program &prog, const ni::Model &model,
       const Contract &contract, const VerifyOptions &opts)
{
    Report rep = contract.diags;
    bool reg_mapped = contract.kernelRegMapped ||
                      model.policy().registerMapped;
    std::set<size_t> visited;
    std::set<size_t> ni_loads;

    for (const Root &root : contract.roots) {
        RootRun rr{prog, model, contract, root, reg_mapped,
                   {}, visited, ni_loads, nullptr, nullptr, {}};
        size_t entry = prog.indexOf(root.entry);
        mergeInto(rr.in[entry], rootEntryState(contract, root,
                                               reg_mapped));

        // Pass 1: propagate to a fixpoint.
        std::deque<size_t> work{entry};
        while (!work.empty()) {
            size_t i = work.front();
            work.pop_front();
            std::vector<size_t> succs;
            rr.processUnit(i, succs);
            for (size_t s : succs)
                work.push_back(s);
        }

        // Pass 2: report against the converged states.
        rr.rep = &rep;
        RootSummary rsum;
        if (opts.summary) {
            rsum.name = root.name;
            rsum.kind = root.kind;
            rsum.type = root.type;
            rsum.minWords = root.minWords;
            rsum.maxWords = root.maxWords;
            rsum.iafull = root.iafull;
            rr.summary = &rsum;
        }
        for (const auto &[i, st] : rr.in) {
            (void)st;
            std::vector<size_t> ignored;
            rr.processUnit(i, ignored);
        }
        if (opts.summary)
            opts.summary->roots.push_back(std::move(rsum));

        // Message-consumption completeness.
        if (root.expectsMessage()) {
            std::set<unsigned> total = rr.consumed;
            total.insert(root.dispatchConsumed.begin(),
                         root.dispatchConsumed.end());
            for (unsigned k = 0; k < root.minWords; ++k) {
                if (!total.count(k)) {
                    rep.add(Severity::warning, "consume", root.entry,
                            rr.lineAt(entry), root.name,
                            "message word " + std::to_string(k) +
                                " is never consumed by this handler");
                }
            }
        }
    }

    // Whole-program structure: unreachable code and cost-region gaps.
    for (size_t i = 0; i < prog.words.size(); ++i) {
        if (prog.kindOf[i] != isa::WordKind::code)
            continue;
        Addr addr = prog.base + static_cast<Addr>(i) * 4;
        unsigned line = i < prog.lineOf.size() ? prog.lineOf[i] : 0;
        if (!visited.count(i)) {
            rep.add(Severity::warning, "structure", addr, line, "",
                    "code is unreachable from every entry point");
        } else if (i < prog.regionOf.size() && prog.regionOf[i] == 0) {
            rep.add(Severity::warning, "region", addr, line, "",
                    "reachable code carries no .region cost tag");
        }
    }

    hazardScan(prog, model, contract, visited, ni_loads, rep);

    budgetScan(prog, model, contract, rep);

    rep.dedupe();
    return rep;
}

Report
verifyHandlers(const isa::Program &prog, const ni::Model &model,
               const VerifyOptions &opts)
{
    return verify(prog, model, deriveHandlerContract(prog, model), opts);
}

Report
verifySender(const isa::Program &prog, const ni::Model &model,
             const VerifyOptions &opts)
{
    return verify(prog, model, deriveSenderContract(prog, model), opts);
}

} // namespace verify
} // namespace tcpni
