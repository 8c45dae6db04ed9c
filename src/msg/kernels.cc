#include "msg/kernels.hh"

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"
#include "msg/protocol.hh"
#include "ni/ni_regs.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{
namespace msg
{

const std::map<std::string, uint64_t> &
kernelSymbols()
{
    // Built once (thread-safe static init) and never mutated, so
    // concurrent sweep workers share it without locking.
    static const std::map<std::string, uint64_t> syms = [] {
        auto s = ni::asmSymbols();
        for (const auto &[k, v] : protoSymbols())
            s[k] = v;
        return s;
    }();
    return syms;
}

isa::Program
assembleKernel(const std::string &src)
{
    return isa::assemble(src, kernelSymbols());
}

const isa::Program &
cachedKernel(const std::string &src)
{
    // Node-based, so a returned reference survives later insertions.
    static std::mutex mutex;
    static std::unordered_map<std::string, const isa::Program> cache;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(src);
        if (it != cache.end())
            return it->second;
    }
    // Assemble outside the lock so workers fetching other kernels do
    // not wait; a thread that loses the race to insert the same text
    // drops its (identical) copy.
    isa::Program prog = assembleKernel(src);
    std::lock_guard<std::mutex> lock(mutex);
    return cache.try_emplace(src, std::move(prog)).first->second;
}

namespace
{

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

/** The N of an operand `<bank>N` (`i2`, `o4`, `r10`), capped at 99;
 *  -1 for any other operand. */
int
operandIndex(const std::string &op, char bank)
{
    if (op.size() < 2 || op[0] != bank ||
        op.find_first_not_of("0123456789", 1) != std::string::npos)
        return -1;
    return op.size() > 3 ? 99 : std::stoi(op.substr(1));
}

bool
isNiReg(const std::string &op)
{
    return operandIndex(op, 'i') >= 0 || operandIndex(op, 'o') >= 0 ||
           op == "status" || op == "control" || op == "msgip" ||
           op == "nextmsgip" || op == "ipbase";
}

/** "mn a, b, c" -> {"mn", "a", "b", "c"}. */
std::vector<std::string>
splitInsn(const std::string &code)
{
    std::istringstream is(code);
    std::vector<std::string> v(1);
    is >> v[0];
    for (std::string op; std::getline(is, op, ',');)
        v.push_back(trim(op));
    return v;
}

/**
 * One NI access form and its spelling, per line, in each of the four
 * (register|cache) x (optimized|basic) spellings; nullptr keeps the
 * source line.  Placeholders: {d}/{s} a register r0..r15, {n} a word
 * index, {x}/{t} any non-NI operand, {z} a type whose id is 0; $s is
 * the spelling's scratch register and $z its zero-id register.
 */
struct NiRule
{
    const char *form;
    const char *spell[4];   //!< reg-opt, reg-basic, cache-opt, cache-basic
};

const NiRule niRules[] = {
    {"add {d}, i{n}, r0",
     {nullptr, nullptr, "ldi  {d}, r10, NI_I{n}", "ldi  {d}, r10, NI_I{n}"}},
    {"addi {d}, i{n}, {x}",
     {nullptr, nullptr, "ldi  {d}, r10, NI_I{n}\naddi {d}, {d}, {x}",
      "ldi  {d}, r10, NI_I{n}\naddi {d}, {d}, {x}"}},
    {"add o{n}, {s}, r0",
     {nullptr, nullptr, "sti  {s}, r10, NI_O{n}", "sti  {s}, r10, NI_O{n}"}},
    {"addi o{n}, r0, 0",
     {nullptr, nullptr, "sti  r0, r10, NI_O{n}", "sti  r0, r10, NI_O{n}"}},
    {"ld o{n}, {s}, {x}",
     {nullptr, nullptr, "ld   $s, {s}, {x}\nsti  $s, r10, NI_O{n}",
      "ld   $s, {s}, {x}\nsti  $s, r10, NI_O{n}"}},
    {"ldi o{n}, {s}, {x}",
     {nullptr, nullptr, "ldi  $s, {s}, {x}\nsti  $s, r10, NI_O{n}",
      "ldi  $s, {s}, {x}\nsti  $s, r10, NI_O{n}"}},
    {"next",
     {nullptr, nullptr, "ldi  r0, r10, NI_NEXT", "ldi  r0, r10, NI_NEXT"}},
    {"send {z}",
     {"send {z}", "addi o4, r0, {z}\nsend",
      "ldi  r0, r10, NI_SEND | NI_TYPE*{z}", "sti  $z, r10, NI_O4 | NI_SEND"}},
    {"send {t}",
     {"send {t}", "addi o4, r0, {t}\nsend",
      "ldi  r0, r10, NI_SEND | NI_TYPE*{t}",
      "addi $s, r0, {t}\nsti  $s, r10, NI_O4 | NI_SEND"}},
    {"send {t}, held",
     {"send {t}", "send", "ldi  r0, r10, NI_SEND | NI_TYPE*{t}",
      "ldi  r0, r10, NI_SEND"}},
    {"msgid {z}", {"", "addi o4, r0, {z}", "", "sti  $z, r10, NI_O4"}},
    {"msgid {t}",
     {"", "addi o4, r0, {t}", "", "addi $s, r0, {t}\nsti  $s, r10, NI_O4"}},
    {"jmp msgip",
     {nullptr, "br   disp_coll",
      ".region dispatching\nldi  r15, r10, NI_MSGIP\njmp  r15",
      "br   disp_coll"}},
};

/** Match @p insn against the split form @p pat, binding placeholders. */
bool
matchForm(const std::vector<std::string> &insn,
          const std::vector<std::string> &pat,
          std::map<std::string, std::string> &bind)
{
    if (pat.size() != insn.size() || pat[0] != insn[0])
        return false;
    bind.clear();
    for (size_t i = 1; i < pat.size(); ++i) {
        const std::string &p = pat[i], &o = insn[i];
        size_t open = p.find('{');
        if (open == std::string::npos) {
            if (p != o)
                return false;
            continue;
        }
        char key = p[open + 1];
        bool ok = false;
        if (key == 'n') {
            ok = operandIndex(o, p[0]) >= 0;
        } else if (key == 'd' || key == 's') {
            ok = operandIndex(o, 'r') >= 0 && operandIndex(o, 'r') < 16;
        } else if (key == 'z') {
            auto sym = kernelSymbols().find(o);
            ok = o == "0" ||
                 (sym != kernelSymbols().end() && sym->second == 0);
        } else {
            ok = !isNiReg(o);
        }
        if (!ok)
            return false;
        bind[p.substr(open, 3)] = o.substr(open);
    }
    return true;
}

} // namespace

std::string
lowerNiAccess(const std::string &src, const NiSpelling &sp)
{
    const int column = (sp.registerMapped ? 0 : 2) + (sp.optimized ? 0 : 1);
    const std::map<std::string, bool> facts = {
        {"reg", sp.registerMapped}, {"cache", !sp.registerMapped},
        {"opt", sp.optimized}, {"hpu", sp.hpu}, {"host", !sp.hpu}};
    std::istringstream in(src);
    std::ostringstream out;
    unsigned lineno = 0;
    for (std::string raw; std::getline(in, raw);) {
        ++lineno;
        auto reject = [&](const char *why) {
            fatal("kernel source line %u: %s: '%s'", lineno, why,
                  trim(raw).c_str());
        };

        // A leading [tags] guard keeps the line only in the spellings
        // that match every tag.
        std::string line = raw;
        if (std::string head = trim(raw); !head.empty() && head[0] == '[') {
            size_t close = head.find(']');
            if (close == std::string::npos)
                reject("unterminated spelling guard");
            bool keep = true;
            std::istringstream tags(head.substr(1, close - 1));
            for (std::string t; tags >> t;) {
                auto fact = facts.find(t);
                if (fact == facts.end())
                    reject("unknown spelling guard");
                keep &= fact->second;
            }
            if (!keep)
                continue;
            std::string rest = trim(head.substr(close + 1));
            line = rest.empty() ? "" : "    " + rest;
        }

        size_t semi = line.find(';');
        std::string code = trim(line.substr(0, semi));
        if (code.empty() || code[0] == '.' || code.back() == ':') {
            out << line << "\n";
            continue;
        }
        if (code.find('!') != std::string::npos)
            reject("instruction-bit NI command has no portable spelling");
        std::vector<std::string> insn = splitInsn(code);
        for (size_t i = 1; i < insn.size(); ++i) {
            if (std::max(operandIndex(insn[i], 'i'), operandIndex(insn[i], 'o')) > 4)
                reject("NI word index outside 0..4");
        }

        static const auto forms = [] {
            std::vector<std::vector<std::string>> v;
            for (const NiRule &r : niRules)
                v.push_back(splitInsn(r.form));
            return v;
        }();
        const NiRule *rule = nullptr;
        std::map<std::string, std::string> bind;
        for (size_t r = 0; r < forms.size() && !rule; ++r) {
            if (matchForm(insn, forms[r], bind))
                rule = &niRules[r];
        }
        if (!rule) {
            static const std::set<std::string> ni_ops = {
                "next", "send", "msgid", "reply", "forward"};
            if (ni_ops.count(insn[0]))
                reject("unknown NI pseudo-op");
            if (std::any_of(insn.begin() + 1, insn.end(), isNiReg))
                reject("no spelling rule for this NI access");
        }
        if (!rule || !rule->spell[column]) {
            out << line << "\n";
            continue;
        }

        // Spell it; the source comment rides on the last line.
        std::string text = rule->spell[column];
        bind["$s"] = sp.scratch;
        bind["$z"] = sp.zeroIdReg;
        for (const auto &[key, val] : bind) {
            for (size_t at; (at = text.find(key)) != std::string::npos;)
                text.replace(at, key.size(), val);
        }
        std::string comment =
            semi == std::string::npos ? "" : line.substr(semi);
        std::istringstream lines(text);
        for (std::string l; std::getline(lines, l);) {
            out << "    " << l;
            if (lines.peek() == EOF && !comment.empty())
                out << std::string(l.size() < 27 ? 27 - l.size() : 1, ' ')
                    << comment;
            out << "\n";
        }
    }
    return out.str();
}

namespace
{

/** Pad to the next dispatch-table slot. */
const char *slotAlign = "    .align HANDLER_STRIDE\n";

/**
 * The three threshold-variant dispatch banks (Section 2.2.4).  When a
 * queue crosses its threshold the MsgIp composition sets the oafull /
 * iafull bits, steering dispatch into the matching bank.  A real
 * runtime would shed load here before handling the message; ours does
 * the minimal correct thing: the type-0 slot doubles as the
 * above-threshold poll handler (the hardware suppresses the word-1
 * shortcut, so a valid Send dispatches here and is forwarded through
 * word 1 by software), and every other live type defers to its base
 * handler.  The measurement harness runs with thresholds maxed so none
 * of this is ever executed; it exists so that the dispatch table is
 * complete for all four variants of every live type, which the static
 * verifier checks.
 */
std::string
optVariantBanks(bool reg_mapped, bool has_escape, bool collectives)
{
    struct Target { unsigned type; const char *label; bool coll; };
    static const Target targets[] = {
        {typeRead, "h_read", false}, {typeWrite, "h_write", false},
        {typePRead, "h_pread", false}, {typePWrite, "h_pwrite", false},
        {typeAck, "h_ack", false},
        {typeBarUp, "h_barup", true}, {typeBarDn, "h_bardn", true},
        {typeMcast, "h_mcast", true}, {typeReduce, "h_reduce", true},
        {typeEscape, "h_escape", false}, {typeStop, "h_stop", false},
    };
    static const char *banks[] = {"oa", "ia", "iaoa"};

    std::ostringstream os;
    for (const char *bank : banks) {
        os << "    ; ---- " << bank << "-full variant bank ----\n"
           << "    .region dispatching\n"
           << "v_" << bank << "_poll:\n";
        if (reg_mapped) {
            os << "    srli r5, status, ST_VALID_SHIFT\n"
                  "    andi r5, r5, 1\n"
                  "    beqz r5, poll\n"
                  "    nop\n"
                  "    jmp  i1\n"
                  "    nop\n";
        } else {
            os << "    ldi  r5, r10, NI_STATUS\n"
                  "    srli r5, r5, ST_VALID_SHIFT\n"
                  "    andi r5, r5, 1\n"
                  "    beqz r5, poll\n"
                  "    nop\n"
                  "    ldi  r15, r10, NI_I1\n"
                  "    jmp  r15\n"
                  "    nop\n";
        }
        os << slotAlign
           << "v_" << bank << "_exc:\n"
           << "    br   exc\n"
           << "    nop\n" << slotAlign;
        unsigned next_slot = 2;
        for (const auto &t : targets) {
            for (; next_slot < t.type; ++next_slot)
                os << "    halt\n" << slotAlign;
            if ((t.type == typeEscape && !has_escape) ||
                (t.coll && !collectives)) {
                os << "    halt\n" << slotAlign;
            } else {
                os << "    br   " << t.label << "\n"
                   << "    nop\n" << slotAlign;
            }
            ++next_slot;
        }
    }
    return os.str();
}

/**
 * Base-table dispatch slots 7..@p last: unassigned types halt loudly;
 * with @p collectives each collective type (9..12) branches to its
 * body, which is far larger than a 128-byte slot.  The h_* labels
 * double as the static verifier's marker that this kernel implements
 * the collective protocol (verify/contract.cc keys the extra required
 * types off `h_barup`).
 */
std::string
optMiddleSlots(bool collectives, unsigned last)
{
    static const char *coll[] = {"barup", "bardn", "mcast", "reduce"};
    std::ostringstream os;
    for (unsigned s = 7; s <= last; ++s) {
        if (collectives && s >= typeBarUp && s <= typeReduce) {
            const char *t = coll[s - typeBarUp];
            os << "    .region dispatching\nh_" << t << ":\n    br   hb_"
               << t << "\n    nop\n";
        } else {
            os << "    halt\n";
        }
        os << slotAlign;
    }
    return os.str();
}

/**
 * The collective tree handlers (BARUP/BARDN/MCAST/REDUCE), one source
 * lowered by lowerNiAccess() for every spelling.  Optimized dispatch
 * slots 9..12 branch here; the basic software table points here.  The
 * discipline the protocol analyzer certifies:
 *
 *  - consume-before-send: every path copies its input words into
 *    scalars and retires the input-queue slot (NEXT) before its first
 *    SEND, so a full input queue can always drain (proto-deadlock);
 *  - static hop decrement: every retransmitted tree message carries
 *    hop-1 in word 1, computed from i1 before NEXT (proto-forward);
 *  - the combine frame is an I-structure: CF_COUNT is armed to fan+1,
 *    these handlers are its only writers, and the join re-arms the
 *    count and accumulator before any send, so back-to-back
 *    collectives pipeline over the same frames.
 *
 * On the HPU the root completion escapes through the host-proxy ring
 * -- one store to r3 = HPU_PROXY before NEXT, while the joining
 * message is still current -- and the host proxy publishes the
 * completion SEND (hp_coll); interior hops cost zero host cycles.
 * The cache-mapped exit re-reads MsgIp after NEXT, which is correct
 * with and without the NextMsgIp overlap, so both sets share it.
 * The cache-mapped `jmp msgip` opens the dispatching region, so a
 * label it falls into reopens processing with a [cache opt] directive.
 * Those lines and the [opt] comment keep the cache-mapped listings
 * line for line with the lint golden; the [reg ...] o2
 * writes are redundant (output words persist across sends) but are
 * the register-mapped schedules' words.
 */
const char *const collectiveSource = R"(
    ; ------ collective tree handlers ------
    ; BARUP: i0 = own combine-frame FP, i1 = hop budget.
    .region processing
hb_barup:
    add  r5, i0, r0
    addi r6, i1, -1            ; hop budget, statically decremented
    ldi  r7, r5, CF_COUNT
    addi r7, r7, -1
    bnez r7, coll_out          ; still waiting on children
    sti  r7, r5, CF_COUNT      ; delay: publish the decrement
    ; joined: re-arm the count and the accumulator I-structure
    ldi  r8, r5, CF_FAN
    addi r8, r8, 1
    sti  r8, r5, CF_COUNT
    ldi  r8, r5, CF_ARMACC
    sti  r8, r5, CF_ACC
    ldi  r8, r5, CF_PARENT
    bnez r8, coll_barup_up
    nop
    ; root join: the barrier is complete
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
[hpu]       st   r0, r3, r0    ; escape: host sends completion
    next
[opt]       ; release every child
    add  o1, r6, r0
    msgid T_BARDN              ; the id persists across the sends
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_barup_fan:
    beqz r9, coll_barup_done
    nop
    ld   o0, r2, r0
    send T_BARDN, held
    addi r2, r2, 4
    br   coll_barup_fan
    addi r9, r9, -1            ; delay
coll_barup_done:
[host]      ldi  o0, r5, CF_NOTIFY
[host]      addi o1, r0, 0
[host]      send T_SEND
    jmp  msgip
    nop
[cache opt] .region processing
coll_barup_up:
    ; interior join: forward the arrival to the parent frame
    next
    add  o0, r8, r0
    add  o1, r6, r0
    send T_BARUP
    jmp  msgip
    nop
[cache opt] .region processing
coll_out:
    next
    jmp  msgip
    nop

    ; BARDN: i0 = own frame FP, i1 = hop budget.
    .region processing
hb_bardn:
    add  r5, i0, r0
    addi r6, i1, -1
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    next
    add  o1, r6, r0
    msgid T_BARDN
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_bardn_fan:
    beqz r9, coll_bardn_done
    nop
    ld   o0, r2, r0
    send T_BARDN, held
    addi r2, r2, 4
    br   coll_bardn_fan
    addi r9, r9, -1
coll_bardn_done:
    ldi  o0, r5, CF_NOTIFY
    addi o1, r0, 0
    send T_SEND
    jmp  msgip
    nop

    ; MCAST: i0 = own frame FP, i1 = hop, i2 = value.
    .region processing
hb_mcast:
    add  r5, i0, r0
    addi r6, i1, -1
    add  r8, i2, r0
    sti  r8, r5, CF_VALUE
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    next
    add  o1, r6, r0
    add  o2, r8, r0
    msgid T_MCAST
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_mcast_fan:
    beqz r9, coll_mcast_done
    nop
    ld   o0, r2, r0
    send T_MCAST, held
    addi r2, r2, 4
    br   coll_mcast_fan
    addi r9, r9, -1
coll_mcast_done:
    ldi  o0, r5, CF_NOTIFY
    addi o1, r0, 0
[reg opt]   add  o2, r8, r0
    send T_SEND
    jmp  msgip
    nop

    ; REDUCE: i0 = own frame FP, i1 = hop, i2 = value, i3 = op.
    .region processing
hb_reduce:
    add  r5, i0, r0
    addi r6, i1, -1
    add  r8, i2, r0
    add  r9, i3, r0
    ldi  r7, r5, CF_ACC
    addi r2, r9, -CO_XOR
    beqz r2, coll_red_xor
    addi r2, r9, -CO_AND       ; delay: next comparison
    beqz r2, coll_red_and
    nop
    add  r7, r7, r8            ; CO_ADD
    br   coll_red_join
    nop
coll_red_xor:
    xor  r7, r7, r8
    br   coll_red_join
    nop
coll_red_and:
    and  r7, r7, r8
coll_red_join:
    sti  r7, r5, CF_ACC
    ldi  r2, r5, CF_COUNT
    addi r2, r2, -1
    bnez r2, coll_out
    sti  r2, r5, CF_COUNT      ; delay: publish the decrement
    ; joined: re-arm count and accumulator
    ldi  r2, r5, CF_FAN
    addi r2, r2, 1
    sti  r2, r5, CF_COUNT
    ldi  r2, r5, CF_ARMACC
    sti  r2, r5, CF_ACC
    ldi  r2, r5, CF_PARENT
    bnez r2, coll_red_up
    nop
    ; root join: store the result, then broadcast it (allreduce)
    sti  r7, r5, CF_VALUE
    ldi  r2, r5, CF_DONE
    addi r2, r2, 1
    sti  r2, r5, CF_DONE
[hpu]       st   r0, r3, r0    ; escape: host sends completion
    next
    add  o1, r6, r0
    add  o2, r7, r0
    msgid T_MCAST
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_red_fan:
    beqz r9, coll_red_done
    nop
    ld   o0, r2, r0
    send T_MCAST, held
    addi r2, r2, 4
    br   coll_red_fan
    addi r9, r9, -1
coll_red_done:
[host]      ldi  o0, r5, CF_NOTIFY
[host]      addi o1, r0, 0
[reg host]  add  o2, r7, r0
[host]      send T_SEND
    jmp  msgip
    nop
[cache opt] .region processing
coll_red_up:
    ; interior join: forward the partial reduction to the parent
    next
    add  o0, r2, r0
    add  o1, r6, r0
    add  o2, r7, r0
    add  o3, r9, r0            ; the op rides along
    send T_REDUCE
    jmp  msgip
    nop
)";

/** The collective bodies in @p sp's spelling. */
std::string
collBodies(const NiSpelling &sp)
{
    return lowerNiAccess(collectiveSource, sp);
}

/**
 * Hand-scheduled (the paper's Table-1 schedule): the optimized
 * register-mapped handler set.  Handlers live in the MsgIp dispatch
 * table; every handler ends with `jmp nextmsgip` whose delay slot holds
 * the final processing instruction (the Section-2.2.3 overlap), so
 * dispatch costs a single cycle.
 *
 * With @p hpu it is the On-NI set: the register-coupled HPU runs these
 * fast paths, and the deferred-list work (parking a PREAD, every
 * PWRITE) and the STOP notice escape to the host -- one store to
 * HPU_PROXY (r3) ships the message to hostProxyProgram, keeping every
 * handler within its time budget.  The host proxy is the single writer
 * of I-structure state, so no HPU fill races a park; the ring is FIFO.
 */
std::string
regOptHandlers(bool collectives, bool hpu)
{
    const char *pread_slow = hpu ? R"(
    ; EMPTY or DEFERRED: parking this reader is host work.
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   r0, r3, r0 !next
)" : R"(
    ; EMPTY or DEFERRED: append this reader to the deferred list.
    ldi  r8, r0, ALLOC_PTR
    addi r7, r8, DN_SIZE
    sti  r7, r0, ALLOC_PTR
    st   i1, r8, r0            ; node.fp
    bnez r5, pread_defer
    sti  i2, r8, DN_IP         ; delay: node.ip
    sti  r0, r8, DN_NEXT       ; EMPTY: list ends here
    br   pread_link
    nop
pread_defer:
    sti  r6, r8, DN_NEXT       ; DEFERRED: chain the old head
pread_link:
    sti  r8, i0, IS_VALUE
    addi r7, r0, TAG_DEFERRED
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   r7, i0, r0 !next
)";
    const char *pwrite = hpu ? R"(
    ; slot 5: PWRITE escapes (the host is the I-structure's writer).
    .region dispatching
h_pwrite:
    jmp  nextmsgip
    .region processing
    st   r0, r3, r0 !next
)" : R"(
    ; slot 5: PWRITE.  i0 = element, i1 = ack word, i2 = value.
    .region processing
h_pwrite:
    ld   r5, i0, r0            ; tag
    ld   r6, i0, r4            ; deferred-list head (if any)
    st   i2, i0, r4            ; value
    addi r7, r0, TAG_FULL
    st   r7, i0, r0            ; tag = FULL
    beqz i1, pwrite_chk
    add  o0, i1, r0            ; delay: ack destination (harmless)
    send T_ACK
pwrite_chk:
    addi r7, r5, -TAG_DEFERRED
    bnez r7, pwrite_done
    nop
pwrite_loop:
    ; Forward the value to each deferred reader.  FORWARD mode takes
    ; the value straight from i2 (Section 2.2.2).
    ldi  o0, r6, DN_FP
    ldi  o1, r6, DN_IP
    forward 0
    ldi  r6, r6, DN_NEXT
    bnez r6, pwrite_loop
    nop
pwrite_done:
    .region dispatching
    jmp  nextmsgip
    .region processing
    next
)";
    const char *stop = hpu ? R"(
    ; slot 15: STOP -- tell the host service loop to halt, then stop.
    .region processing
h_stop:
    sti  r0, r3, 0
    halt
)" : R"(
    ; slot 15: STOP -- the harness halts the server.
h_stop:
    halt
)";

    std::ostringstream os;
    os << R"(
    ; ------ optimized register-mapped handler table ------
    .org 0x4000

    ; slot 0: poll/idle -- spin on MsgIp until a message dispatches.
    .region dispatching
poll:
    jmp  msgip
    nop
)" << slotAlign << R"(
    ; slot 1: exception handler.
    .region exception
exc:
    halt
)" << slotAlign << R"(
    ; slot 2: READ -- the paper's two-instruction remote read.
    .region dispatching
h_read:
    jmp  nextmsgip
    .region processing
    ld   o2, i0, r0 !reply=0 !next
)" << slotAlign << R"(
    ; slot 3: WRITE.
    .region dispatching
h_write:
    jmp  nextmsgip
    .region processing
    st   i1, i0, r0 !next
)" << slotAlign << R"(
    ; slot 4: PREAD.  i0 = element, i1 = FP, i2 = IP.
    .region processing
h_pread:
    ld   r5, i0, r0            ; tag
    ld   r6, i0, r4            ; value / deferred-list head
    addi r7, r5, -TAG_FULL
    bnez r7, pread_slow
    add  o2, r6, r0            ; delay: value into o2 (harmless if slow)
    ; FULL: reply (i1,i2 head the message via REPLY mode).
    .region dispatching
    jmp  nextmsgip
    .region processing
    reply 0 !next
pread_slow:)" << pread_slow << slotAlign << pwrite << slotAlign << R"(
    ; slot 6: ACK -- decrement the addressed completion counter.
    .region processing
h_ack:
    ld   r5, i0, r0
    addi r5, r5, -1
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   r5, i0, r0 !next
)" << slotAlign << optMiddleSlots(collectives, 13) << R"(
    ; slot 14: the ESCAPE type (Section 2.2.1): messages whose real
    ; identifier does not fit in four bits carry it in word 4; the
    ; escape handler dispatches through a software table, exactly the
    ; way the basic architecture dispatches everything.
    .region dispatching
h_escape:
    slli r5, i4, 2
    ld   r6, r13, r5           ; r13 = escape table base (setup)
    jmp  r6
    nop
)" << slotAlign << stop << slotAlign
       << optVariantBanks(true, true, collectives)
       << (collectives ? collBodies({true, true, hpu}) : "") << R"(
    ; ------ escape-dispatched handlers (identifiers >= 16) ------
    ; id 0 in the escape table: store word 2 at the address in word 1.
    .region processing
h_esc_poke:
    st   i2, i1, r0 !next
    .region dispatching
    jmp  nextmsgip
    nop

    ; ------ type-0 (Send) inlets, dispatched through word 1 ------
    .region dispatching
h_send0:
    jmp  nextmsgip
    .region processing
    add  r9, i0, r0 !next      ; frame pointer into the thread register

    .region processing
h_send1:
    add  r9, i0, r0
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   i2, r9, r0 !next      ; data word 0 into the frame

    .region processing
h_send2:
    add  r9, i0, r0
    st   i2, r9, r0
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   i3, r9, r4 !next      ; data word 1

    ; ------ entry ------
    .region setup
entry:
    li   ipbase, 0x4000
    addi r4, r0, 4
)" << (hpu ? "    li   r3, HPU_PROXY\n" : "") << R"(    ; escape dispatch table: one entry so far
    li   r13, ESC_TABLE
    li   r2, h_esc_poke
    sti  r2, r13, 0
    br   poll
    nop
)";
    return os.str();
}

/** The optimized cache-mapped sets' shared slots 0..1 and entry. */
const char *const cacheOptPoll = R"(
    .region dispatching
poll:
    ldi  r15, r10, NI_MSGIP
    jmp  r15
    nop
    .align HANDLER_STRIDE

    .region exception
exc:
    halt
    .align HANDLER_STRIDE
)";
const char *const cacheOptEntry = R"(
    ; ------ entry ------
    .region setup
entry:
    li   r10, NI_BASE
    li   r11, NI_O2 | NI_REPLY | NI_NEXT
    addi r4, r0, 4
    li   r5, 0x4000
    sti  r5, r10, NI_IPBASE
    br   poll
    nop
)";

/**
 * Hand-scheduled (the paper's Table-1 schedule, loads hoisted to hide
 * the load-use delay): the optimized cache-mapped handler set (on- and
 * off-chip share the code; only the access latency differs).  The
 * NextMsgIp load is hoisted to the top of each handler so the off-chip
 * latency overlaps with processing; NEXT is folded into the handler's
 * final NI access; the jmp delay slot holds a processing instruction.
 */
std::string
cacheOptHandlers(bool collectives)
{
    std::ostringstream os;
    os << R"(
    ; ------ optimized cache-mapped handler table ------
    ; r10 = NI_BASE, r11 = reply-store offset, r4 = 4, r15 = target
    .org 0x4000
)" << cacheOptPoll << R"(
    ; slot 2: READ.
    .region dispatching
h_read:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r5, r10, NI_I0        ; requested address
    ld   r6, r5, r0            ; value
    .region dispatching
    jmp  r15
    .region processing
    st   r6, r10, r11          ; o2 + SEND-reply + NEXT (Figure 9)
)" << slotAlign << R"(
    ; slot 3: WRITE.
    .region dispatching
h_write:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r5, r10, NI_I0        ; address
    ldi  r6, r10, NI_I1 | NI_NEXT  ; value, then advance
    .region dispatching
    jmp  r15
    .region processing
    st   r6, r5, r0
)" << slotAlign << R"(
    ; slot 4: PREAD.
    .region dispatching
h_pread:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r5, r10, NI_I0        ; element
    ldi  r7, r10, NI_I1        ; FP
    ldi  r8, r10, NI_I2        ; IP
    ld   r6, r5, r0            ; tag
    ld   r9, r5, r4            ; value / head
    addi r2, r6, -TAG_FULL
    bnez r2, cpread_slow
    nop
    .region dispatching
    jmp  r15
    .region processing
    st   r9, r10, r11          ; value -> o2 + SEND-reply + NEXT
cpread_slow:
    ldi  r2, r0, ALLOC_PTR
    addi r3, r2, DN_SIZE
    sti  r3, r0, ALLOC_PTR
    sti  r7, r2, DN_FP
    bnez r6, cpread_defer
    sti  r8, r2, DN_IP         ; delay
    sti  r0, r2, DN_NEXT
    br   cpread_link
    nop
cpread_defer:
    sti  r9, r2, DN_NEXT
cpread_link:
    sti  r2, r5, IS_VALUE
    addi r3, r0, TAG_DEFERRED
    sti  r3, r5, IS_TAG
    .region dispatching
    jmp  r15
    .region processing
    ldi  r0, r10, NI_NEXT      ; NEXT-only command access
)" << slotAlign << R"(
    ; slot 5: PWRITE.
    .region dispatching
h_pwrite:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r5, r10, NI_I0        ; element
    ldi  r7, r10, NI_I1        ; ack word
    ldi  r8, r10, NI_I2        ; value
    ld   r6, r5, r4            ; old head
    ld   r2, r5, r0            ; tag
    sti  r8, r5, IS_VALUE
    addi r3, r0, TAG_FULL
    sti  r3, r5, IS_TAG
    beqz r7, cpwrite_chk
    sti  r7, r10, NI_O0        ; delay: ack destination
    ldi  r0, r10, NI_SEND | NI_TYPE*T_ACK
cpwrite_chk:
    addi r3, r2, -TAG_DEFERRED
    bnez r3, cpwrite_done
    nop
cpwrite_loop:
    ; FORWARD mode supplies the value from i2; one explicit SEND
    ; access per forwarded reader.
    ldi  r2, r6, DN_FP
    ldi  r3, r6, DN_IP
    sti  r2, r10, NI_O0
    sti  r3, r10, NI_O1
    ldi  r0, r10, NI_FWD
    ldi  r6, r6, DN_NEXT
    bnez r6, cpwrite_loop
    nop
cpwrite_done:
    .region dispatching
    jmp  r15
    .region processing
    ldi  r0, r10, NI_NEXT
)" << slotAlign << R"(
    ; slot 6: ACK.
    .region dispatching
h_ack:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r5, r10, NI_I0
    ld   r6, r5, r0
    addi r6, r6, -1
    st   r6, r5, r0
    .region dispatching
    jmp  r15
    .region processing
    ldi  r0, r10, NI_NEXT
)" << slotAlign << optMiddleSlots(collectives, 14) << R"(
h_stop:
    halt
)" << slotAlign << optVariantBanks(false, false, collectives)
       << (collectives ? collBodies({false, true}) : "") << R"(
    ; ------ type-0 (Send) inlets ------
    .region dispatching
h_send0:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r9, r10, NI_I0 | NI_NEXT
    .region dispatching
    jmp  r15
    .region work
    add  r2, r9, r0            ; the thread's first use of its FP

    .region dispatching
h_send1:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r9, r10, NI_I0
    ldi  r6, r10, NI_I2 | NI_NEXT
    .region dispatching
    jmp  r15
    .region processing
    st   r6, r9, r0

    .region dispatching
h_send2:
    ldi  r15, r10, NI_NEXTMSGIP
    .region processing
    ldi  r9, r10, NI_I0
    ldi  r6, r10, NI_I2
    ldi  r7, r10, NI_I3 | NI_NEXT
    st   r6, r9, r0
    .region dispatching
    jmp  r15
    .region processing
    st   r7, r9, r4
)" << cacheOptEntry;
    return os.str();
}

/**
 * Hand-scheduled (the Table-1 `--no-overlap` ablation): the optimized
 * cache-mapped handlers *without* the NextMsgIp
 * overlap: every handler finishes its processing (NEXT folded into
 * the final NI access), then reads MsgIp and jumps.  The MsgIp read
 * happens after NEXT, so it reflects the new current message --
 * correct, but the load-use latency and the jump's delay slot are
 * fully exposed, which is exactly the cost the NextMsgIp register
 * exists to hide (Section 2.2.3).
 */
std::string
cacheOptHandlersNoOverlap(bool collectives)
{
    // The dispatch tail shared by every handler.
    auto tail = [] {
        return std::string(
            "    .region dispatching\n"
            "    ldi  r15, r10, NI_MSGIP\n"
            "    jmp  r15\n"
            "    nop\n");
    };

    std::ostringstream os;
    os << R"(
    ; ------ optimized cache-mapped handlers, no dispatch overlap ------
    .org 0x4000
)" << cacheOptPoll << R"(
    .region processing
h_read:
    ldi  r5, r10, NI_I0
    ld   r6, r5, r0
    st   r6, r10, r11          ; o2 + SEND-reply + NEXT
)" << tail() << slotAlign << R"(
    .region processing
h_write:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1 | NI_NEXT
    st   r6, r5, r0
)" << tail() << slotAlign << R"(
    .region processing
h_pread:
    ldi  r5, r10, NI_I0
    ldi  r7, r10, NI_I1
    ldi  r8, r10, NI_I2
    ld   r6, r5, r0
    ld   r9, r5, r4
    addi r2, r6, -TAG_FULL
    bnez r2, nopread_slow
    nop
    st   r9, r10, r11
)" << tail() << R"(
nopread_slow:
    .region processing
    ldi  r2, r0, ALLOC_PTR
    addi r3, r2, DN_SIZE
    sti  r3, r0, ALLOC_PTR
    sti  r7, r2, DN_FP
    bnez r6, nopread_defer
    sti  r8, r2, DN_IP
    sti  r0, r2, DN_NEXT
    br   nopread_link
    nop
nopread_defer:
    sti  r9, r2, DN_NEXT
nopread_link:
    sti  r2, r5, IS_VALUE
    addi r3, r0, TAG_DEFERRED
    sti  r3, r5, IS_TAG
    ldi  r0, r10, NI_NEXT
)" << tail() << slotAlign << R"(
    .region processing
h_pwrite:
    ldi  r5, r10, NI_I0
    ldi  r7, r10, NI_I1
    ldi  r8, r10, NI_I2
    ld   r6, r5, r4
    ld   r2, r5, r0
    sti  r8, r5, IS_VALUE
    addi r3, r0, TAG_FULL
    sti  r3, r5, IS_TAG
    beqz r7, nopwrite_chk
    sti  r7, r10, NI_O0
    ldi  r0, r10, NI_SEND | NI_TYPE*T_ACK
nopwrite_chk:
    addi r3, r2, -TAG_DEFERRED
    bnez r3, nopwrite_done
    nop
nopwrite_loop:
    ldi  r2, r6, DN_FP
    ldi  r3, r6, DN_IP
    sti  r2, r10, NI_O0
    sti  r3, r10, NI_O1
    ldi  r0, r10, NI_FWD
    ldi  r6, r6, DN_NEXT
    bnez r6, nopwrite_loop
    nop
nopwrite_done:
    ldi  r0, r10, NI_NEXT
)" << tail() << slotAlign << R"(
    .region processing
h_ack:
    ldi  r5, r10, NI_I0
    ld   r6, r5, r0
    addi r6, r6, -1
    st   r6, r5, r0
    ldi  r0, r10, NI_NEXT
)" << tail() << slotAlign << optMiddleSlots(collectives, 14) << R"(
h_stop:
    halt
)" << slotAlign << optVariantBanks(false, false, collectives)
       << (collectives ? collBodies({false, true}) : "") << R"(
    ; ------ type-0 (Send) inlets ------
    .region processing
h_send0:
    ldi  r9, r10, NI_I0 | NI_NEXT
)" << tail() << R"(
    .region processing
h_send1:
    ldi  r9, r10, NI_I0
    ldi  r6, r10, NI_I2 | NI_NEXT
    st   r6, r9, r0
)" << tail() << R"(
    .region processing
h_send2:
    ldi  r9, r10, NI_I0
    ldi  r6, r10, NI_I2
    ldi  r7, r10, NI_I3 | NI_NEXT
    st   r6, r9, r0
    st   r7, r9, r4
)" << tail() << cacheOptEntry;
    return os.str();
}

/** Software poll-and-dispatch tail for the basic register model
 *  (Figure 5, lines 1-6).  With @p sw_checks the tail also tests the
 *  queue-threshold bits of STATUS (Section 2.2.4). */
std::string
regBasicDispTail(const std::string &tag, bool sw_checks)
{
    std::ostringstream os;
    os << "    .region dispatching\n"
       << "disp_" << tag << ":\n"
       << "    and  r5, status, r12\n"
       << "    beqz r5, disp_" << tag << "\n"
       << "    slli r6, i4, 2\n";         // delay slot: table offset
    if (sw_checks) {
        os << "    and  r7, status, r11\n"
           << "    bnez r7, qfull\n";
        // Delay slot holds the table load (harmless when branching).
    }
    os << "    ld   r7, r13, r6\n"
       << "    jmp  r7\n"
       << "    nop\n";
    return os.str();
}

/** Software poll-and-dispatch tail for the basic cache models. */
std::string
cacheBasicDispTail(const std::string &tag, bool sw_checks)
{
    std::ostringstream os;
    os << "    .region dispatching\n"
       << "disp_" << tag << ":\n"
       << "    ldi  r5, r10, NI_STATUS\n"
       << "    ldi  r6, r10, NI_I4\n";
    if (sw_checks) {
        os << "    and  r8, r5, r11\n"
           << "    bnez r8, qfull\n";
    }
    os << "    and  r5, r5, r12\n"
       << "    beqz r5, disp_" << tag << "\n"
       << "    slli r6, r6, 2\n"          // delay slot
       << "    ld   r7, r13, r6\n"
       << "    jmp  r7\n"
       << "    nop\n";
    return os.str();
}

/** Emit code to fill the software dispatch table (basic models): the
 *  Table-1 kinds' handlers at their basic ids, then ACK, STOP and,
 *  with @p collectives, the tree types. */
std::string
basicTableInit(bool collectives)
{
    std::ostringstream os;
    auto entry = [&](unsigned id, const char *key) {
        os << "    li   r2, hb_" << key << "\n"
           << "    sti  r2, r13, " << id * 4 << "\n";
    };
    for (const KindInfo &k : kinds)
        entry(k.basicId, k.key);
    entry(typeAck, "ack");
    entry(typeStop, "stop");
    if (collectives) {
        entry(typeBarUp, "barup");
        entry(typeBarDn, "bardn");
        entry(typeMcast, "mcast");
        entry(typeReduce, "reduce");
    }
    return os.str();
}

/**
 * Hand-scheduled (the paper's Table-1 schedule): the basic
 * register-mapped handler set.  With @p hpu it is the basic On-NI set,
 * with the same host-proxy escapes as regOptHandlers(hpu).
 */
std::string
regBasicHandlers(bool sw_checks, bool collectives, bool hpu)
{
    const char *pread_slow = hpu ? R"(
    ; EMPTY or DEFERRED: parking this reader is host work.
    st   r0, r3, r0 !next
)" : R"(
    ; EMPTY or DEFERRED (same code as optimized: no reply to build).
    ldi  r8, r0, ALLOC_PTR
    addi r7, r8, DN_SIZE
    sti  r7, r0, ALLOC_PTR
    st   i1, r8, r0
    bnez r5, bpread_defer
    sti  i2, r8, DN_IP
    sti  r0, r8, DN_NEXT
    br   bpread_link
    nop
bpread_defer:
    sti  r6, r8, DN_NEXT
bpread_link:
    sti  r8, i0, IS_VALUE
    addi r7, r0, TAG_DEFERRED
    st   r7, i0, r0 !next
)";
    const char *pwrite = hpu ? R"(
    ; Every PWRITE escapes: the host is the I-structure's writer.
    st   r0, r3, r0 !next
)" : R"(
    ld   r5, i0, r0
    ld   r6, i0, r4
    st   i2, i0, r4
    addi r7, r0, TAG_FULL
    st   r7, i0, r0
    beqz i1, bpwrite_chk
    add  o0, i1, r0
    addi o4, r0, T_ACK
    send
bpwrite_chk:
    addi r7, r5, -TAG_DEFERRED
    bnez r7, bpwrite_done
    nop
    add  o2, i2, r0            ; value persists across sends
    addi o4, r0, T_SEND
bpwrite_loop:
    ldi  o0, r6, DN_FP
    ldi  o1, r6, DN_IP
    send
    ldi  r6, r6, DN_NEXT
    bnez r6, bpwrite_loop
    nop
bpwrite_done:
    next
)";
    const char *stop = hpu ? R"(
    .region processing
hb_stop:
    sti  r0, r3, 0             ; tell the host service loop to halt
    halt
)" : R"(
hb_stop:
    halt
)";

    std::ostringstream os;
    os << R"(
    ; ------ basic register-mapped handlers ------
    ; r12 = msg-valid mask, r13 = dispatch table, r4 = 4
    .org 0x4000
    .region setup
entry:
    li   r12, ST_MSGVALID
    li   r11, ST_IAFULL | ST_OAFULL
    li   r13, DISPATCH_TABLE
)" << (hpu ? "    li   r3, HPU_PROXY\n" : "") << R"(    addi r4, r0, 4
)" << basicTableInit(collectives) << R"(
    br   disp_poll
    nop
)" << regBasicDispTail("poll", sw_checks) << R"(
    ; READ: copy the continuation, set the reply id, fused load+send.
    .region processing
hb_read:
    add  o0, i1, r0
    add  o1, i2, r0
    addi o4, r0, T_SEND
    ld   o2, i0, r0 !send !next
)" << regBasicDispTail("read", sw_checks) << R"(
    .region processing
hb_write:
    st   i1, i0, r0 !next
)" << regBasicDispTail("write", sw_checks) << R"(
    .region processing
hb_send0:
    add  r9, i0, r0 !next
)" << regBasicDispTail("send0", sw_checks) << R"(
    .region processing
hb_send1:
    add  r9, i0, r0
    st   i2, r9, r0 !next
)" << regBasicDispTail("send1", sw_checks) << R"(
    .region processing
hb_send2:
    add  r9, i0, r0
    st   i2, r9, r0
    st   i3, r9, r4 !next
)" << regBasicDispTail("send2", sw_checks) << R"(
    .region processing
hb_pread:
    ld   r5, i0, r0
    ld   r6, i0, r4
    addi r7, r5, -TAG_FULL
    beqz r7, bpread_full
    nop)" << pread_slow << regBasicDispTail("pread_slow", sw_checks) << R"(
    .region processing
bpread_full:
    add  o0, i1, r0
    add  o1, i2, r0
    addi o4, r0, T_SEND
    add  o2, r6, r0 !send !next
)" << regBasicDispTail("pread_full", sw_checks) << R"(
    .region processing
hb_pwrite:)" << pwrite << regBasicDispTail("pwrite", sw_checks) << R"(
    .region processing
hb_ack:
    ld   r5, i0, r0
    addi r5, r5, -1
    st   r5, i0, r0 !next
)" << regBasicDispTail("ack", sw_checks) << stop;
    if (collectives) {
        os << collBodies({true, false, hpu})
           << regBasicDispTail("coll", sw_checks);
    }
    if (sw_checks) {
        // A queue crossed its threshold: a real runtime would shed
        // load here (Section 2.2.4); the measurement harness never
        // triggers it.  Only emitted when the dispatch tails test the
        // threshold bits, so there is no unreferenced code otherwise.
        os << "qfull:\n    halt\n";
    }
    return os.str();
}

/** Hand-scheduled (the paper's Table-1 schedule), loads hoisted to
 *  hide the load-use delay: the basic cache-mapped handler set. */
std::string
cacheBasicHandlers(bool sw_checks, bool collectives)
{
    std::ostringstream os;
    os << R"(
    ; ------ basic cache-mapped handlers ------
    ; r10 = NI_BASE, r12 = msg-valid mask, r13 = table, r4 = 4,
    ; r14 = generic reply id (T_SEND)
    .org 0x4000
    .region setup
entry:
    li   r10, NI_BASE
    li   r12, ST_MSGVALID
    li   r11, ST_IAFULL | ST_OAFULL
    li   r13, DISPATCH_TABLE
    addi r4, r0, 4
    addi r14, r0, T_SEND
)" << basicTableInit(collectives) << R"(
    br   disp_poll
    nop
)" << cacheBasicDispTail("poll", sw_checks) << R"(
    ; READ (Figure 5): copy continuation, load value, id, send, next.
    .region processing
hb_read:
    ldi  r5, r10, NI_I1        ; reply FP
    ldi  r6, r10, NI_I2        ; reply IP
    ldi  r7, r10, NI_I0        ; address
    sti  r5, r10, NI_O0
    sti  r6, r10, NI_O1
    ld   r8, r7, r0            ; value
    sti  r8, r10, NI_O2
    sti  r14, r10, NI_O4 | NI_SEND | NI_NEXT
)" << cacheBasicDispTail("read", sw_checks) << R"(
    .region processing
hb_write:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1 | NI_NEXT
    st   r6, r5, r0
)" << cacheBasicDispTail("write", sw_checks) << R"(
    .region processing
hb_send0:
    ldi  r9, r10, NI_I0 | NI_NEXT
)" << cacheBasicDispTail("send0", sw_checks) << R"(
    .region processing
hb_send1:
    ldi  r9, r10, NI_I0
    ldi  r6, r10, NI_I2 | NI_NEXT
    st   r6, r9, r0
)" << cacheBasicDispTail("send1", sw_checks) << R"(
    .region processing
hb_send2:
    ldi  r9, r10, NI_I0
    ldi  r6, r10, NI_I2
    ldi  r7, r10, NI_I3 | NI_NEXT
    st   r6, r9, r0
    st   r7, r9, r4
)" << cacheBasicDispTail("send2", sw_checks) << R"(
    .region processing
hb_pread:
    ldi  r5, r10, NI_I0        ; element
    ldi  r7, r10, NI_I1        ; FP
    ldi  r8, r10, NI_I2        ; IP
    ld   r6, r5, r0            ; tag
    ld   r9, r5, r4            ; value / head
    addi r2, r6, -TAG_FULL
    beqz r2, cbpread_full
    nop
    ldi  r2, r0, ALLOC_PTR
    addi r3, r2, DN_SIZE
    sti  r3, r0, ALLOC_PTR
    sti  r7, r2, DN_FP
    bnez r6, cbpread_defer
    sti  r8, r2, DN_IP
    sti  r0, r2, DN_NEXT
    br   cbpread_link
    nop
cbpread_defer:
    sti  r9, r2, DN_NEXT
cbpread_link:
    sti  r2, r5, IS_VALUE
    addi r3, r0, TAG_DEFERRED
    sti  r3, r5, IS_TAG
    ldi  r0, r10, NI_NEXT
)" << cacheBasicDispTail("pread_slow", sw_checks) << R"(
    .region processing
cbpread_full:
    sti  r7, r10, NI_O0
    sti  r8, r10, NI_O1
    sti  r9, r10, NI_O2
    sti  r14, r10, NI_O4 | NI_SEND | NI_NEXT
)" << cacheBasicDispTail("pread_full", sw_checks) << R"(
    .region processing
hb_pwrite:
    ldi  r5, r10, NI_I0
    ldi  r7, r10, NI_I1        ; ack word
    ldi  r8, r10, NI_I2        ; value
    ld   r6, r5, r4            ; old head
    ld   r2, r5, r0            ; tag
    sti  r8, r5, IS_VALUE
    addi r3, r0, TAG_FULL
    sti  r3, r5, IS_TAG
    beqz r7, cbpwrite_chk
    sti  r7, r10, NI_O0
    addi r3, r0, T_ACK
    sti  r3, r10, NI_O4 | NI_SEND
cbpwrite_chk:
    addi r3, r2, -TAG_DEFERRED
    bnez r3, cbpwrite_done
    nop
    sti  r8, r10, NI_O2        ; value persists across sends
    sti  r14, r10, NI_O4       ; generic reply id
cbpwrite_loop:
    ldi  r2, r6, DN_FP
    ldi  r3, r6, DN_IP
    sti  r2, r10, NI_O0
    sti  r3, r10, NI_O1
    ldi  r0, r10, NI_SEND
    ldi  r6, r6, DN_NEXT
    bnez r6, cbpwrite_loop
    nop
cbpwrite_done:
    ldi  r0, r10, NI_NEXT
)" << cacheBasicDispTail("pwrite", sw_checks) << R"(
    .region processing
hb_ack:
    ldi  r5, r10, NI_I0
    ld   r6, r5, r0
    addi r6, r6, -1
    st   r6, r5, r0
    ldi  r0, r10, NI_NEXT
)" << cacheBasicDispTail("ack", sw_checks) << R"(
hb_stop:
    halt
)";
    if (collectives) {
        // r14 holds the generic reply id T_SEND (= 0).
        os << collBodies({false, false, false, "r3", "r14"})
           << cacheBasicDispTail("coll", sw_checks);
    }
    if (sw_checks)
        os << "qfull:\n    halt\n";
    return os.str();
}

} // namespace

std::string
handlerProgram(const ni::Model &model, bool basic_sw_checks,
               bool no_overlap, bool collectives)
{
    // The placement row's registerMapped bit selects register-operand
    // or load/store kernels; the HPU is register-coupled whatever the
    // host placement, and escapes CPU-only work to the host proxy.
    bool hpu = model.policy().handlersOnNi;
    bool reg = model.policy().registerMapped || hpu;
    if (model.optimized) {
        if (reg)
            return regOptHandlers(collectives, hpu);
        return no_overlap ? cacheOptHandlersNoOverlap(collectives)
                          : cacheOptHandlers(collectives);
    }
    return reg ? regBasicHandlers(basic_sw_checks, collectives, hpu)
               : cacheBasicHandlers(basic_sw_checks, collectives);
}

std::string
hostProxyProgram(const ni::Model &model)
{
    // The messages the HPU escapes carry their effective id in slot
    // word 0 and the input registers in words 1..5.  The host touches
    // the interface only to send: reception belongs to the HPU, so
    // REPLY/FORWARD substitution (which reads the *current* input
    // registers, long since advanced) is unusable here -- every
    // outgoing message is a plain SEND with o0..o2 stored explicitly
    // through the cache-mapped command window, its id staged in r1.
    return lowerNiAccess(R"(
    ; ------ host-side proxy service loop (On-NI models) ------
    ; Drains the HPU's escape ring: each slot is one message whose
    ; handler needed CPU-only work (deferred-list manipulation), or
    ; the STOP that ends the run.
    .org 0x1000
    .region host_setup
entry:
    li   r10, NI_BASE
    li   r13, HP_RING
    li   r12, HP_PI
    addi r9, r0, 0             ; consumer index
    addi r4, r0, 4
    br   hp_poll
    nop

    .region host_dispatch
hp_poll:
    ld   r1, r12, r0           ; producer index (written by the HPU)
    sub  r1, r1, r9
    beqz r1, hp_poll
    nop
    andi r2, r9, HP_RING_MASK
    slli r2, r2, 5             ; * HP_SLOT_BYTES
    add  r2, r13, r2           ; slot address
    ld   r3, r2, r0            ; effective id
    addi r5, r3, -T_PREAD
    beqz r5, hp_pread
    addi r5, r3, -T_PWRITE     ; delay: next comparison (harmless)
    beqz r5, hp_pwrite
    addi r5, r3, -T_BARUP      ; delay: collective root completions
    beqz r5, hp_coll
    addi r5, r3, -T_REDUCE     ; delay
    beqz r5, hp_coll
    nop
    halt                       ; T_STOP: the ring is drained

    ; Collective root completion (a BARUP or REDUCE whose join closed
    ; the tree escaped at the root): slot i0 = the root's combine
    ; frame.  The HPU already re-armed the frame and released the tree
    ; downward; the host only publishes the completion SEND -- the
    ; single writer escaping the root's combine state.
    .region host_proc
hp_coll:
    ldi  r5, r2, 4             ; frame FP
    ldi  r6, r5, CF_NOTIFY
    ldi  r7, r5, CF_VALUE
    sti  r6, r10, NI_O0
    sti  r0, r10, NI_O1
    sti  r7, r10, NI_O2
    msgid T_SEND
    send T_SEND, held
    br   hp_next
    nop

    ; PREAD escape: slot i0 = element, i1 = FP, i2 = IP.
    .region host_proc
hp_pread:
    ldi  r5, r2, 4             ; element
    ldi  r6, r2, 8             ; reader FP
    ldi  r7, r2, 12            ; reader IP
    ld   r3, r5, r0            ; tag, re-read: may have filled in flight
    ld   r8, r5, r4            ; value / deferred-list head
    addi r1, r3, -TAG_FULL
    bnez r1, hp_pread_park
    nop
    ; a PWrite earlier in the ring filled the element: reply directly.
    sti  r6, r10, NI_O0
    sti  r7, r10, NI_O1
    sti  r8, r10, NI_O2
    msgid T_SEND
    send T_SEND, held
    br   hp_next
    nop
hp_pread_park:
    ldi  r1, r0, ALLOC_PTR
    addi r2, r1, DN_SIZE
    sti  r2, r0, ALLOC_PTR
    st   r6, r1, r0            ; node.fp
    sti  r7, r1, DN_IP         ; node.ip
    bnez r3, hp_pread_defer    ; EMPTY lists end here,
    nop
    sti  r0, r1, DN_NEXT
    br   hp_pread_link
    nop
hp_pread_defer:
    sti  r8, r1, DN_NEXT       ; ... DEFERRED chains the old head
hp_pread_link:
    sti  r1, r5, IS_VALUE
    addi r3, r0, TAG_DEFERRED
    sti  r3, r5, IS_TAG
    br   hp_next
    nop

    ; PWRITE escape: slot i0 = element, i1 = ack word, i2 = value.
    ; Every PWRITE escapes, so the host is the single writer of
    ; I-structure state and this tag read cannot race anything.  The
    ; ring is FIFO: a PWrite that chased a PRead through the ring is
    ; consumed after the PRead's park and sees its node on the list.
    .region host_proc
hp_pwrite:
    ldi  r5, r2, 4             ; element
    ldi  r6, r2, 8             ; ack word
    ldi  r7, r2, 12            ; value
    ld   r3, r5, r0            ; tag (the host is the only writer)
    ld   r8, r5, r4            ; deferred-list head (if any)
    sti  r7, r5, IS_VALUE
    addi r1, r0, TAG_FULL
    sti  r1, r5, IS_TAG
    beqz r6, hp_pwrite_chk
    nop
    sti  r6, r10, NI_O0
    msgid T_ACK
    send T_ACK, held
hp_pwrite_chk:
    addi r3, r3, -TAG_DEFERRED
    bnez r3, hp_next           ; EMPTY or FULL: nobody parked
    nop
    ; forward the value to every parked reader.
    sti  r7, r10, NI_O2        ; value persists across sends
hp_pwrite_loop:
    ldi  r1, r8, DN_FP
    ldi  r3, r8, DN_IP
    sti  r1, r10, NI_O0
    sti  r3, r10, NI_O1
    msgid T_SEND
    send T_SEND, held
    ldi  r8, r8, DN_NEXT
    bnez r8, hp_pwrite_loop
    nop

    .region host_dispatch
hp_next:
    addi r9, r9, 1
    sti  r9, r0, HP_CI         ; publish consumption to the HPU
    br   hp_poll
    nop
)", {false, model.optimized, false, "r1"});
}

namespace
{

/**
 * Per-message composition of kind @p k: the address computation, one
 * copy per output word, then the id and the SEND.  Register-mapped
 * basic senders write the id first and optimized ones fold `!send=T`
 * into the last copy (`!send` is ignored on basic ones); cache-mapped
 * basic senders store the Send id kept in r14, stage the others
 * through r2, and issue a separate SEND.
 */
std::string
sendBody(const KindInfo &k, bool reg, bool basic)
{
    std::ostringstream os;
    if (reg && basic)
        os << "    addi o4, r0, " << k.basicId << "\n";
    if (k.compute)
        os << "    " << k.compute << "\n";
    for (unsigned i = 0; i < k.words; ++i) {
        if (!reg) {
            os << "    sti  " << k.src[i] << ", r10, NI_O" << i << "\n";
            continue;
        }
        os << "    add  o" << i << ", " << k.src[i] << ", r0";
        if (i + 1 == k.words)
            os << " !send=" << (basic ? 0u : unsigned{k.type});
        os << "\n";
    }
    if (reg)
        return os.str();
    if (!basic) {
        os << "    ldi  r0, r10, NI_SEND | NI_TYPE*" << unsigned{k.type}
           << "\n";
    } else {
        if (k.type == typeSend) {
            os << "    sti  r14, r10, NI_O4\n";
        } else {
            os << "    addi r2, r0, " << k.basicId << "\n"
               << "    sti  r2, r10, NI_O4\n";
        }
        os << "    ldi  r0, r10, NI_SEND\n";
    }
    return os.str();
}

} // namespace

std::string
senderProgram(const ni::Model &model, Kind kind, unsigned count)
{
    bool reg = model.policy().registerMapped;
    bool basic = !model.optimized;
    const KindInfo &k = kindInfo(kind);

    std::ostringstream os;
    os << "    .org 0x1000\n"
       << "    .region setup\n"
       << "entry:\n";
    if (!reg)
        os << "    li   r10, NI_BASE\n";
    if (basic && !reg) {
        // The generic Send id stays hot in r14.
        os << "    addi r14, r0, " << kindInfo(Kind::send0).basicId
           << "\n";
    }
    for (unsigned i = 0; i < 4; ++i)
        os << "    li   r" << 5 + i << ", " << k.preload[i] << "\n";
    os << "    lis  r1, " << count << "\n"
       << "loop:\n"
       << "    .region sending\n"
       << sendBody(k, reg, basic)
       << "    .region loop\n"
       << "    addi r1, r1, -1\n"
       << "    bnez r1, loop\n"
       << "    nop\n"
       << "    halt\n";
    return os.str();
}

std::string
collectiveDriverProgram(const ni::Model &model, unsigned count)
{
    bool reg = model.policy().registerMapped;
    // A combine frame on node 1 and a conservative hop budget (the
    // experiment driver computes depth+2 for the real tree).
    const uint64_t frame = (1ull << 24) | collFrameAddr;
    const unsigned hops = 8;

    std::ostringstream os;
    os << "    .org 0x1000\n"
       << "    .region setup\n"
       << "entry:\n";
    if (!reg)
        os << "    li   r10, NI_BASE\n";
    os << "    li   r5, " << frame << "\n"
       << "    addi r6, r0, " << hops << "\n"
       << "    li   r7, 0x1111\n"       // contribution value
       << "    addi r8, r0, CO_ADD\n"
       << "    lis  r1, " << count << "\n"
       << "loop:\n"
       << "    .region sending\n";
    // A BARUP arrival, an MCAST and a REDUCE, ids staged in r2.
    os << lowerNiAccess(R"(    add  o0, r5, r0
    add  o1, r6, r0
    send T_BARUP
    add  o0, r5, r0
    add  o1, r6, r0
    add  o2, r7, r0
    send T_MCAST
    add  o0, r5, r0
    add  o1, r6, r0
    add  o2, r7, r0
    add  o3, r8, r0
    send T_REDUCE
)", {reg, model.optimized, false, "r2"});
    os << "    .region loop\n"
       << "    addi r1, r1, -1\n"
       << "    bnez r1, loop\n"
       << "    nop\n"
       << "    halt\n";
    return os.str();
}

std::vector<CorpusJob>
kernelCorpus(const ni::Model &model)
{
    std::vector<CorpusJob> jobs;

    if (model.optimized) {
        jobs.push_back({"handlers", handlerProgram(model), true, ""});
        // The no-overlap variant exists only for the cache-mapped
        // host kernels; On-NI handlers are register-coupled.
        if (!model.policy().registerMapped &&
            !model.policy().handlersOnNi) {
            jobs.push_back({"handlers-no-overlap",
                            handlerProgram(model, false, true), true,
                            ""});
        }
    } else {
        jobs.push_back(
            {"handlers", handlerProgram(model, false), true, ""});
        jobs.push_back({"handlers-sw-checks",
                        handlerProgram(model, true), true, ""});
    }

    // The collective kernel set rides in its own pairing group: the
    // tree handlers are analyzed against the driver that injects the
    // arrivals (plus the ungrouped Table-1 senders), and the base
    // kernels -- whose dispatch tables halt-fill types 9..12 -- never
    // see the collective traffic.
    jobs.push_back({"handlers-collective",
                    handlerProgram(model, false, false, true), true,
                    "collective"});
    jobs.push_back({"send-collective",
                    collectiveDriverProgram(model, 4), false,
                    "collective"});

    for (size_t k = 0; k < std::size(kinds); ++k) {
        jobs.push_back({std::string("send-") + kinds[k].name,
                        senderProgram(model, static_cast<Kind>(k), 4),
                        false, ""});
    }
    return jobs;
}

} // namespace msg
} // namespace tcpni