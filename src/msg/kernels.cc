#include "msg/kernels.hh"

#include <sstream>

#include "common/logging.hh"
#include "msg/protocol.hh"
#include "ni/ni_regs.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{
namespace msg
{

std::string
kindName(Kind k)
{
    switch (k) {
      case Kind::send0: return "Send (0 words)";
      case Kind::send1: return "Send (1 word)";
      case Kind::send2: return "Send (2 words)";
      case Kind::read: return "Read";
      case Kind::write: return "Write";
      case Kind::pread: return "PRead";
      case Kind::pwrite: return "PWrite";
    }
    return "?";
}

unsigned
basicId(Kind k)
{
    // The basic models dispatch on the 32-bit id in word 4.  Ids of
    // the shared request types coincide with the optimized 4-bit type
    // codes; the Send variants get ids of their own since the basic
    // table has no word-1 indirection.
    switch (k) {
      case Kind::send0: return 0;
      case Kind::send1: return 7;
      case Kind::send2: return 8;
      case Kind::read: return typeRead;
      case Kind::write: return typeWrite;
      case Kind::pread: return typePRead;
      case Kind::pwrite: return typePWrite;
    }
    return 0;
}

unsigned
directlyComputableWords(Kind k)
{
    // How many message values a compiler could compute straight into
    // the output registers (register-mapped models), giving the lower
    // bound of the paper's sending-cost ranges.
    switch (k) {
      case Kind::send0: return 0;
      case Kind::send1: return 1;
      case Kind::send2: return 2;
      case Kind::read: return 1;
      case Kind::write: return 2;
      case Kind::pread: return 2;
      case Kind::pwrite: return 3;
    }
    return 0;
}

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
 * Base-table dispatch slots for the collective types (9..12): the
 * bodies are far larger than a 128-byte slot, so each slot is one
 * branch.  The h_* labels double as the static verifier's marker that
 * this kernel implements the collective protocol (verify/contract.cc
 * keys the extra required types off `h_barup`).
 */
std::string
optCollSlots()
{
    static const struct { const char *slot, *body; } slots[] = {
        {"h_barup", "coll_barup"}, {"h_bardn", "coll_bardn"},
        {"h_mcast", "coll_mcast"}, {"h_reduce", "coll_reduce"},
    };
    std::ostringstream os;
    for (const auto &s : slots) {
        os << "    .region dispatching\n"
           << s.slot << ":\n"
           << "    br   " << s.body << "\n"
           << "    nop\n" << slotAlign;
    }
    return os.str();
}

/**
 * The collective handler bodies shared by the register-coupled
 * handler sets (optimized register-mapped host kernels and the HPU).
 * Dispatch slots 9..12 branch here.  The discipline the protocol
 * analyzer certifies:
 *
 *  - consume-before-send: every path copies its input words into
 *    scalars and retires the input-queue slot (NEXT) before its first
 *    SEND, so a full input queue can always drain (proto-deadlock);
 *  - static hop decrement: every retransmitted tree message carries
 *    hop-1 in word 1, computed from i1 before NEXT, bounding the
 *    fan-out statically (proto-forward);
 *  - the combine frame is an I-structure: CF_COUNT is armed to fan+1,
 *    these handlers are its only writers, and the join re-arms the
 *    count and accumulator before any send, so back-to-back
 *    collectives pipeline over the same frames.
 *
 * With @p hpu the root completion escapes through the host-proxy ring
 * -- one store to r3 = HPU_PROXY *before* NEXT, while the joining
 * message is still current so the proxy slot carries the right id and
 * frame pointer -- and the host proxy publishes the completion SEND
 * (hp_coll).  Interior nodes never escape: their hops cost zero host
 * cycles.  Host kernels send the root completion directly.
 */
std::string
regCollBodies(bool hpu)
{
    const char *barup_complete = hpu
        ? "    st   r0, r3, r0            ; escape: host sends completion\n"
          "    next\n"
        : "    next\n";
    const char *barup_notify = hpu ? ""
        : "    ldi  o0, r5, CF_NOTIFY\n"
          "    addi o1, r0, 0\n"
          "    send T_SEND\n";
    const char *red_complete = barup_complete;
    const char *red_notify = hpu ? ""
        : "    ldi  o0, r5, CF_NOTIFY\n"
          "    addi o1, r0, 0\n"
          "    add  o2, r7, r0\n"
          "    send T_SEND\n";

    std::ostringstream os;
    os << R"(
    ; ------ collective tree handlers (slots 9..12 branch here) ------
    ; BARUP: i0 = own combine-frame FP, i1 = hop budget.
    .region processing
coll_barup:
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
)" << barup_complete << R"(
    ; release every child
    add  o1, r6, r0
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_barup_fan:
    beqz r9, coll_barup_done
    nop
    ld   o0, r2, r0
    send T_BARDN
    addi r2, r2, 4
    br   coll_barup_fan
    addi r9, r9, -1            ; delay
coll_barup_done:
)" << barup_notify << R"(
    jmp  msgip
    nop
coll_barup_up:
    ; interior join: forward the arrival to the parent frame
    next
    add  o0, r8, r0
    add  o1, r6, r0
    send T_BARUP
    jmp  msgip
    nop
coll_out:
    next
    jmp  msgip
    nop

    ; BARDN: i0 = own frame FP, i1 = hop budget.
    .region processing
coll_bardn:
    add  r5, i0, r0
    addi r6, i1, -1
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    next
    add  o1, r6, r0
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_bardn_fan:
    beqz r9, coll_bardn_done
    nop
    ld   o0, r2, r0
    send T_BARDN
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
coll_mcast:
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
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_mcast_fan:
    beqz r9, coll_mcast_done
    nop
    ld   o0, r2, r0
    send T_MCAST
    addi r2, r2, 4
    br   coll_mcast_fan
    addi r9, r9, -1
coll_mcast_done:
    ldi  o0, r5, CF_NOTIFY
    addi o1, r0, 0
    add  o2, r8, r0
    send T_SEND
    jmp  msgip
    nop

    ; REDUCE: i0 = own frame FP, i1 = hop, i2 = value, i3 = op.
    .region processing
coll_reduce:
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
)" << red_complete << R"(
    add  o1, r6, r0
    add  o2, r7, r0
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_red_fan:
    beqz r9, coll_red_done
    nop
    ld   o0, r2, r0
    send T_MCAST
    addi r2, r2, 4
    br   coll_red_fan
    addi r9, r9, -1
coll_red_done:
)" << red_notify << R"(
    jmp  msgip
    nop
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
    return os.str();
}

/**
 * The collective handler bodies for the optimized cache-mapped
 * kernels: the regCollBodies() logic through the memory-mapped
 * command window.  Dispatch re-reads MsgIp after NEXT (the no-overlap
 * tail) on every exit path -- correct under both cache-opt variants,
 * so both share these bodies.
 */
std::string
cacheCollBodies()
{
    // The shared post-NEXT dispatch exit.
    const char *exit_tail =
        "    .region dispatching\n"
        "    ldi  r15, r10, NI_MSGIP\n"
        "    jmp  r15\n"
        "    nop\n";

    std::ostringstream os;
    os << R"(
    ; ------ collective tree handlers (slots 9..12 branch here) ------
    ; BARUP: i0 = own combine-frame FP, i1 = hop budget.
    .region processing
coll_barup:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1            ; hop budget, statically decremented
    ldi  r7, r5, CF_COUNT
    addi r7, r7, -1
    bnez r7, coll_out
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
    ldi  r0, r10, NI_NEXT
    ; release every child
    sti  r6, r10, NI_O1
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_barup_fan:
    beqz r9, coll_barup_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND | NI_TYPE*T_BARDN
    addi r2, r2, 4
    br   coll_barup_fan
    addi r9, r9, -1            ; delay
coll_barup_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    ldi  r0, r10, NI_SEND | NI_TYPE*T_SEND
)" << exit_tail << R"(
coll_barup_up:
    ; interior join: forward the arrival to the parent frame
    ldi  r0, r10, NI_NEXT
    sti  r8, r10, NI_O0
    sti  r6, r10, NI_O1
    ldi  r0, r10, NI_SEND | NI_TYPE*T_BARUP
)" << exit_tail << R"(
coll_out:
    ldi  r0, r10, NI_NEXT
)" << exit_tail << R"(
    ; BARDN: i0 = own frame FP, i1 = hop budget.
    .region processing
coll_bardn:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    ldi  r0, r10, NI_NEXT
    sti  r6, r10, NI_O1
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_bardn_fan:
    beqz r9, coll_bardn_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND | NI_TYPE*T_BARDN
    addi r2, r2, 4
    br   coll_bardn_fan
    addi r9, r9, -1
coll_bardn_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    ldi  r0, r10, NI_SEND | NI_TYPE*T_SEND
)" << exit_tail << R"(
    ; MCAST: i0 = own frame FP, i1 = hop, i2 = value.
    .region processing
coll_mcast:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1
    ldi  r8, r10, NI_I2
    sti  r8, r5, CF_VALUE
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    ldi  r0, r10, NI_NEXT
    sti  r6, r10, NI_O1
    sti  r8, r10, NI_O2
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_mcast_fan:
    beqz r9, coll_mcast_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND | NI_TYPE*T_MCAST
    addi r2, r2, 4
    br   coll_mcast_fan
    addi r9, r9, -1
coll_mcast_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    ldi  r0, r10, NI_SEND | NI_TYPE*T_SEND
)" << exit_tail << R"(
    ; REDUCE: i0 = own frame FP, i1 = hop, i2 = value, i3 = op.
    .region processing
coll_reduce:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1
    ldi  r8, r10, NI_I2
    ldi  r9, r10, NI_I3
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
    ldi  r0, r10, NI_NEXT
    sti  r6, r10, NI_O1
    sti  r7, r10, NI_O2
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
coll_red_fan:
    beqz r9, coll_red_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND | NI_TYPE*T_MCAST
    addi r2, r2, 4
    br   coll_red_fan
    addi r9, r9, -1
coll_red_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    ldi  r0, r10, NI_SEND | NI_TYPE*T_SEND
)" << exit_tail << R"(
coll_red_up:
    ; interior join: forward the partial reduction to the parent
    ldi  r0, r10, NI_NEXT
    sti  r2, r10, NI_O0
    sti  r6, r10, NI_O1
    sti  r7, r10, NI_O2
    sti  r9, r10, NI_O3
    ldi  r0, r10, NI_SEND | NI_TYPE*T_REDUCE
)" << exit_tail;
    return os.str();
}

/**
 * The optimized register-mapped handler set.  Handlers live in the
 * MsgIp dispatch table; every handler ends with `jmp nextmsgip` whose
 * delay slot holds the final processing instruction (the Section-2.2.3
 * overlap), so dispatch costs a single cycle.
 */
std::string
regOptHandlers(bool collectives)
{
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
pread_slow:
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
)" << slotAlign << R"(
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
)" << slotAlign << R"(
    ; slot 6: ACK -- decrement the addressed completion counter.
    .region processing
h_ack:
    ld   r5, i0, r0
    addi r5, r5, -1
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   r5, i0, r0 !next
)" << slotAlign;

    // Slots 7..8: unassigned types halt loudly; 9..12 dispatch the
    // collective tree handlers when enabled; 13 is unassigned.
    for (int s = 7; s <= 8; ++s)
        os << "    halt\n" << slotAlign;
    if (collectives) {
        os << optCollSlots();
    } else {
        for (int s = 9; s <= 12; ++s)
            os << "    halt\n" << slotAlign;
    }
    os << "    halt\n" << slotAlign;

    os << R"(
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
)" << slotAlign << R"(
    ; slot 15: STOP -- the harness halts the server.
h_stop:
    halt
)" << slotAlign << optVariantBanks(true, true, collectives)
       << (collectives ? regCollBodies(false) : "") << R"(
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
    ; escape dispatch table: one entry so far
    li   r13, ESC_TABLE
    li   r2, h_esc_poke
    sti  r2, r13, 0
    br   poll
    nop
)";
    return os.str();
}

/**
 * The optimized cache-mapped handler set (on- and off-chip share the
 * code; only the access latency differs).  Canonical schedule: the
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

    .region dispatching
poll:
    ldi  r15, r10, NI_MSGIP
    jmp  r15
    nop
)" << slotAlign << R"(
    .region exception
exc:
    halt
)" << slotAlign << R"(
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
)" << slotAlign;

    // Slots 7..8 and 13..14 (no escape type here) halt loudly; 9..12
    // dispatch the collective tree handlers when enabled.
    for (int s = 7; s <= 8; ++s)
        os << "    halt\n" << slotAlign;
    if (collectives) {
        os << optCollSlots();
    } else {
        for (int s = 9; s <= 12; ++s)
            os << "    halt\n" << slotAlign;
    }
    for (int s = 13; s <= 14; ++s)
        os << "    halt\n" << slotAlign;

    os << R"(
h_stop:
    halt
)" << slotAlign << optVariantBanks(false, false, collectives)
       << (collectives ? cacheCollBodies() : "") << R"(
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
    return os.str();
}

/**
 * The optimized cache-mapped handlers *without* the NextMsgIp
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

    .region dispatching
poll:
    ldi  r15, r10, NI_MSGIP
    jmp  r15
    nop
)" << slotAlign << R"(
    .region exception
exc:
    halt
)" << slotAlign << R"(
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
)" << tail() << slotAlign;

    // Same slot layout as the overlapped variant; the collective
    // bodies dispatch MsgIp-after-NEXT on every exit, which is the
    // no-overlap discipline already, so the bodies are shared.
    for (int s = 7; s <= 8; ++s)
        os << "    halt\n" << slotAlign;
    if (collectives) {
        os << optCollSlots();
    } else {
        for (int s = 9; s <= 12; ++s)
            os << "    halt\n" << slotAlign;
    }
    for (int s = 13; s <= 14; ++s)
        os << "    halt\n" << slotAlign;

    os << R"(
h_stop:
    halt
)" << slotAlign << optVariantBanks(false, false, collectives)
       << (collectives ? cacheCollBodies() : "") << R"(
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
)" << tail() << R"(
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

/** Emit code to fill the software dispatch table (basic models). */
std::string
basicTableInit(bool collectives)
{
    struct Entry { unsigned id; const char *label; };
    static const Entry entries[] = {
        {0, "hb_send0"}, {7, "hb_send1"}, {8, "hb_send2"},
        {2, "hb_read"}, {3, "hb_write"}, {4, "hb_pread"},
        {5, "hb_pwrite"}, {6, "hb_ack"}, {15, "hb_stop"},
    };
    static const Entry coll_entries[] = {
        {typeBarUp, "hb_barup"}, {typeBarDn, "hb_bardn"},
        {typeMcast, "hb_mcast"}, {typeReduce, "hb_reduce"},
    };
    std::ostringstream os;
    for (const auto &e : entries) {
        os << "    li   r2, " << e.label << "\n"
           << "    sti  r2, r13, " << e.id * 4 << "\n";
    }
    if (collectives) {
        for (const auto &e : coll_entries) {
            os << "    li   r2, " << e.label << "\n"
               << "    sti  r2, r13, " << e.id * 4 << "\n";
        }
    }
    return os.str();
}

/**
 * The collective handler bodies for the basic register-mapped models
 * (host-resident and On-NI): the regCollBodies() logic with the
 * 32-bit message id written to o4 before each send and the shared
 * software poll-and-dispatch tail (disp_coll) on every exit.  See
 * regCollBodies() for the consume-before-send / hop-decrement
 * discipline.
 */
std::string
regBasicCollHandlers(bool hpu, bool sw_checks)
{
    const char *root_escape = hpu
        ? "    st   r0, r3, r0            ; escape: host sends completion\n"
        : "";
    const char *barup_notify = hpu ? ""
        : "    ldi  o0, r5, CF_NOTIFY\n"
          "    addi o1, r0, 0\n"
          "    addi o4, r0, T_SEND\n"
          "    send\n";
    const char *red_notify = hpu ? ""
        : "    ldi  o0, r5, CF_NOTIFY\n"
          "    addi o1, r0, 0\n"
          "    add  o2, r7, r0\n"
          "    addi o4, r0, T_SEND\n"
          "    send\n";

    std::ostringstream os;
    os << R"(
    ; ------ collective tree handlers (software-dispatched) ------
    ; BARUP: i0 = own combine-frame FP, i1 = hop budget.
    .region processing
hb_barup:
    add  r5, i0, r0
    addi r6, i1, -1            ; hop budget, statically decremented
    ldi  r7, r5, CF_COUNT
    addi r7, r7, -1
    bnez r7, bcoll_out
    sti  r7, r5, CF_COUNT      ; delay: publish the decrement
    ; joined: re-arm the count and the accumulator I-structure
    ldi  r8, r5, CF_FAN
    addi r8, r8, 1
    sti  r8, r5, CF_COUNT
    ldi  r8, r5, CF_ARMACC
    sti  r8, r5, CF_ACC
    ldi  r8, r5, CF_PARENT
    bnez r8, bbarup_up
    nop
    ; root join: the barrier is complete
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
)" << root_escape << R"(
    next
    add  o1, r6, r0
    addi o4, r0, T_BARDN
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
bbarup_fan:
    beqz r9, bbarup_done
    nop
    ld   o0, r2, r0
    send
    addi r2, r2, 4
    br   bbarup_fan
    addi r9, r9, -1
bbarup_done:
)" << barup_notify << R"(
    br   disp_coll
    nop
bbarup_up:
    ; interior join: forward the arrival to the parent frame
    next
    add  o0, r8, r0
    add  o1, r6, r0
    addi o4, r0, T_BARUP
    send
    br   disp_coll
    nop
bcoll_out:
    next
    br   disp_coll
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
    addi o4, r0, T_BARDN
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
bbardn_fan:
    beqz r9, bbardn_done
    nop
    ld   o0, r2, r0
    send
    addi r2, r2, 4
    br   bbardn_fan
    addi r9, r9, -1
bbardn_done:
    ldi  o0, r5, CF_NOTIFY
    addi o1, r0, 0
    addi o4, r0, T_SEND
    send
    br   disp_coll
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
    addi o4, r0, T_MCAST
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
bmcast_fan:
    beqz r9, bmcast_done
    nop
    ld   o0, r2, r0
    send
    addi r2, r2, 4
    br   bmcast_fan
    addi r9, r9, -1
bmcast_done:
    ldi  o0, r5, CF_NOTIFY
    addi o1, r0, 0
    addi o4, r0, T_SEND
    send
    br   disp_coll
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
    beqz r2, bred_xor
    addi r2, r9, -CO_AND       ; delay: next comparison
    beqz r2, bred_and
    nop
    add  r7, r7, r8            ; CO_ADD
    br   bred_join
    nop
bred_xor:
    xor  r7, r7, r8
    br   bred_join
    nop
bred_and:
    and  r7, r7, r8
bred_join:
    sti  r7, r5, CF_ACC
    ldi  r2, r5, CF_COUNT
    addi r2, r2, -1
    bnez r2, bcoll_out
    sti  r2, r5, CF_COUNT      ; delay: publish the decrement
    ; joined: re-arm count and accumulator
    ldi  r2, r5, CF_FAN
    addi r2, r2, 1
    sti  r2, r5, CF_COUNT
    ldi  r2, r5, CF_ARMACC
    sti  r2, r5, CF_ACC
    ldi  r2, r5, CF_PARENT
    bnez r2, bred_up
    nop
    ; root join: store the result, then broadcast it (allreduce)
    sti  r7, r5, CF_VALUE
    ldi  r2, r5, CF_DONE
    addi r2, r2, 1
    sti  r2, r5, CF_DONE
)" << root_escape << R"(
    next
    add  o1, r6, r0
    add  o2, r7, r0
    addi o4, r0, T_MCAST
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
bred_fan:
    beqz r9, bred_done
    nop
    ld   o0, r2, r0
    send
    addi r2, r2, 4
    br   bred_fan
    addi r9, r9, -1
bred_done:
)" << red_notify << R"(
    br   disp_coll
    nop
bred_up:
    ; interior join: forward the partial reduction to the parent
    next
    add  o0, r2, r0
    add  o1, r6, r0
    add  o2, r7, r0
    add  o3, r9, r0            ; the op rides along
    addi o4, r0, T_REDUCE
    send
    br   disp_coll
    nop
)" << regBasicDispTail("coll", sw_checks);
    return os.str();
}

/**
 * The collective handler bodies for the basic cache-mapped model: the
 * cacheCollBodies() logic with the id stored to O4 (once per fan
 * loop -- the output registers persist across sends) and the shared
 * software dispatch tail.
 */
std::string
cacheBasicCollHandlers(bool sw_checks)
{
    std::ostringstream os;
    os << R"(
    ; ------ collective tree handlers (software-dispatched) ------
    ; BARUP: i0 = own combine-frame FP, i1 = hop budget.
    .region processing
hb_barup:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1            ; hop budget, statically decremented
    ldi  r7, r5, CF_COUNT
    addi r7, r7, -1
    bnez r7, cbcoll_out
    sti  r7, r5, CF_COUNT      ; delay: publish the decrement
    ; joined: re-arm the count and the accumulator I-structure
    ldi  r8, r5, CF_FAN
    addi r8, r8, 1
    sti  r8, r5, CF_COUNT
    ldi  r8, r5, CF_ARMACC
    sti  r8, r5, CF_ACC
    ldi  r8, r5, CF_PARENT
    bnez r8, cbbarup_up
    nop
    ; root join: the barrier is complete
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    ldi  r0, r10, NI_NEXT
    sti  r6, r10, NI_O1
    addi r3, r0, T_BARDN
    sti  r3, r10, NI_O4
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
cbbarup_fan:
    beqz r9, cbbarup_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND
    addi r2, r2, 4
    br   cbbarup_fan
    addi r9, r9, -1
cbbarup_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    sti  r14, r10, NI_O4 | NI_SEND
    br   disp_coll
    nop
cbbarup_up:
    ; interior join: forward the arrival to the parent frame
    ldi  r0, r10, NI_NEXT
    sti  r8, r10, NI_O0
    sti  r6, r10, NI_O1
    addi r3, r0, T_BARUP
    sti  r3, r10, NI_O4 | NI_SEND
    br   disp_coll
    nop
cbcoll_out:
    ldi  r0, r10, NI_NEXT
    br   disp_coll
    nop

    ; BARDN: i0 = own frame FP, i1 = hop budget.
    .region processing
hb_bardn:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    ldi  r0, r10, NI_NEXT
    sti  r6, r10, NI_O1
    addi r3, r0, T_BARDN
    sti  r3, r10, NI_O4
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
cbbardn_fan:
    beqz r9, cbbardn_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND
    addi r2, r2, 4
    br   cbbardn_fan
    addi r9, r9, -1
cbbardn_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    sti  r14, r10, NI_O4 | NI_SEND
    br   disp_coll
    nop

    ; MCAST: i0 = own frame FP, i1 = hop, i2 = value.
    .region processing
hb_mcast:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1
    ldi  r8, r10, NI_I2
    sti  r8, r5, CF_VALUE
    ldi  r7, r5, CF_DONE
    addi r7, r7, 1
    sti  r7, r5, CF_DONE
    ldi  r0, r10, NI_NEXT
    sti  r6, r10, NI_O1
    sti  r8, r10, NI_O2
    addi r3, r0, T_MCAST
    sti  r3, r10, NI_O4
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
cbmcast_fan:
    beqz r9, cbmcast_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND
    addi r2, r2, 4
    br   cbmcast_fan
    addi r9, r9, -1
cbmcast_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    sti  r14, r10, NI_O4 | NI_SEND
    br   disp_coll
    nop

    ; REDUCE: i0 = own frame FP, i1 = hop, i2 = value, i3 = op.
    .region processing
hb_reduce:
    ldi  r5, r10, NI_I0
    ldi  r6, r10, NI_I1
    addi r6, r6, -1
    ldi  r8, r10, NI_I2
    ldi  r9, r10, NI_I3
    ldi  r7, r5, CF_ACC
    addi r2, r9, -CO_XOR
    beqz r2, cbred_xor
    addi r2, r9, -CO_AND       ; delay: next comparison
    beqz r2, cbred_and
    nop
    add  r7, r7, r8            ; CO_ADD
    br   cbred_join
    nop
cbred_xor:
    xor  r7, r7, r8
    br   cbred_join
    nop
cbred_and:
    and  r7, r7, r8
cbred_join:
    sti  r7, r5, CF_ACC
    ldi  r2, r5, CF_COUNT
    addi r2, r2, -1
    bnez r2, cbcoll_out
    sti  r2, r5, CF_COUNT      ; delay: publish the decrement
    ; joined: re-arm count and accumulator
    ldi  r2, r5, CF_FAN
    addi r2, r2, 1
    sti  r2, r5, CF_COUNT
    ldi  r2, r5, CF_ARMACC
    sti  r2, r5, CF_ACC
    ldi  r2, r5, CF_PARENT
    bnez r2, cbred_up
    nop
    ; root join: store the result, then broadcast it (allreduce)
    sti  r7, r5, CF_VALUE
    ldi  r2, r5, CF_DONE
    addi r2, r2, 1
    sti  r2, r5, CF_DONE
    ldi  r0, r10, NI_NEXT
    sti  r6, r10, NI_O1
    sti  r7, r10, NI_O2
    addi r3, r0, T_MCAST
    sti  r3, r10, NI_O4
    ldi  r9, r5, CF_FAN
    addi r2, r5, CF_CHILD
cbred_fan:
    beqz r9, cbred_done
    nop
    ld   r3, r2, r0
    sti  r3, r10, NI_O0
    ldi  r0, r10, NI_SEND
    addi r2, r2, 4
    br   cbred_fan
    addi r9, r9, -1
cbred_done:
    ldi  r3, r5, CF_NOTIFY
    sti  r3, r10, NI_O0
    sti  r0, r10, NI_O1
    sti  r14, r10, NI_O4 | NI_SEND
    br   disp_coll
    nop
cbred_up:
    ; interior join: forward the partial reduction to the parent
    ldi  r0, r10, NI_NEXT
    sti  r2, r10, NI_O0
    sti  r6, r10, NI_O1
    sti  r7, r10, NI_O2
    sti  r9, r10, NI_O3
    addi r3, r0, T_REDUCE
    sti  r3, r10, NI_O4 | NI_SEND
    br   disp_coll
    nop
)" << cacheBasicDispTail("coll", sw_checks);
    return os.str();
}

/** The basic register-mapped handler set. */
std::string
regBasicHandlers(bool sw_checks, bool collectives)
{
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
    addi r4, r0, 4
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
    nop
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
)" << regBasicDispTail("pread_slow", sw_checks) << R"(
    .region processing
bpread_full:
    add  o0, i1, r0
    add  o1, i2, r0
    addi o4, r0, T_SEND
    add  o2, r6, r0 !send !next
)" << regBasicDispTail("pread_full", sw_checks) << R"(
    .region processing
hb_pwrite:
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
)" << regBasicDispTail("pwrite", sw_checks) << R"(
    .region processing
hb_ack:
    ld   r5, i0, r0
    addi r5, r5, -1
    st   r5, i0, r0 !next
)" << regBasicDispTail("ack", sw_checks) << R"(
hb_stop:
    halt
)";
    if (collectives)
        os << regBasicCollHandlers(false, sw_checks);
    if (sw_checks) {
        // A queue crossed its threshold: a real runtime would shed
        // load here (Section 2.2.4); the measurement harness never
        // triggers it.  Only emitted when the dispatch tails test the
        // threshold bits, so there is no unreferenced code otherwise.
        os << "qfull:\n    halt\n";
    }
    return os.str();
}

/** The basic cache-mapped handler set. */
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
    if (collectives)
        os << cacheBasicCollHandlers(sw_checks);
    if (sw_checks)
        os << "qfull:\n    halt\n";
    return os.str();
}

/**
 * The On-NI (HPU) optimized handler set.  The HPU is permanently
 * register-coupled to its interface, so the fast paths are exactly the
 * optimized register-mapped handlers: one-cycle dispatch through MsgIp
 * with the final processing instruction in the jmp delay slot.  What
 * changes is the sPIN-style division of labor: anything that builds or
 * walks the deferred-reader lists (unbounded pointer-chasing work)
 * escapes to the host through the proxy ring -- a single store to
 * HPU_PROXY (pinned in r3 by setup) ships the message's effective id
 * and input words to the host service loop (hostProxyProgram), keeping
 * every handler's on-NI occupancy within the policy's handler-time
 * budget.
 */
std::string
hpuOptHandlers(bool collectives)
{
    std::ostringstream os;
    os << R"(
    ; ------ optimized On-NI (HPU) handler table ------
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
pread_slow:
    ; EMPTY or DEFERRED: parking this reader on the deferred list is
    ; host work -- post the message to the proxy ring and move on.
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   r0, r3, r0 !next
)" << slotAlign << R"(
    ; slot 5: PWRITE.  i0 = element, i1 = ack word, i2 = value.
    ; Every PWRITE escapes: the host proxy is the *single writer* of
    ; I-structure state, so an HPU-side fill could never race a park
    ; the host is executing concurrently.  The ring is FIFO, which
    ; serializes this PWrite behind any PRead it raced on the wire.
    .region dispatching
h_pwrite:
    jmp  nextmsgip
    .region processing
    st   r0, r3, r0 !next
)" << slotAlign << R"(
    ; slot 6: ACK -- decrement the addressed completion counter.
    .region processing
h_ack:
    ld   r5, i0, r0
    addi r5, r5, -1
    .region dispatching
    jmp  nextmsgip
    .region processing
    st   r5, i0, r0 !next
)" << slotAlign;

    // Slots 7..8: unassigned types halt loudly; 9..12 dispatch the
    // collective tree handlers when enabled; 13 is unassigned.  The
    // collective bodies run entirely on the HPU -- interior tree hops
    // never touch the host; only the root completion escapes.
    for (int s = 7; s <= 8; ++s)
        os << "    halt\n" << slotAlign;
    if (collectives) {
        os << optCollSlots();
    } else {
        for (int s = 9; s <= 12; ++s)
            os << "    halt\n" << slotAlign;
    }
    os << "    halt\n" << slotAlign;

    os << R"(
    ; slot 14: the ESCAPE type, dispatched through a software table
    ; exactly as on the register-mapped optimized model.
    .region dispatching
h_escape:
    slli r5, i4, 2
    ld   r6, r13, r5           ; r13 = escape table base (setup)
    jmp  r6
    nop
)" << slotAlign << R"(
    ; slot 15: STOP -- tell the host service loop to halt, then stop.
    .region processing
h_stop:
    sti  r0, r3, 0
    halt
)" << slotAlign << optVariantBanks(true, true, collectives)
       << (collectives ? regCollBodies(true) : "") << R"(
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
    li   r3, HPU_PROXY
    ; escape dispatch table: one entry so far
    li   r13, ESC_TABLE
    li   r2, h_esc_poke
    sti  r2, r13, 0
    br   poll
    nop
)";
    return os.str();
}

/** The basic On-NI (HPU) handler set: the basic register-mapped
 *  handlers with the same host-proxy escapes as hpuOptHandlers(). */
std::string
hpuBasicHandlers(bool sw_checks, bool collectives)
{
    std::ostringstream os;
    os << R"(
    ; ------ basic On-NI (HPU) handlers ------
    ; r12 = msg-valid mask, r13 = dispatch table, r4 = 4, r3 = proxy
    .org 0x4000
    .region setup
entry:
    li   r12, ST_MSGVALID
    li   r11, ST_IAFULL | ST_OAFULL
    li   r13, DISPATCH_TABLE
    li   r3, HPU_PROXY
    addi r4, r0, 4
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
    nop
    ; EMPTY or DEFERRED: parking this reader is host work.
    st   r0, r3, r0 !next
)" << regBasicDispTail("pread_slow", sw_checks) << R"(
    .region processing
bpread_full:
    add  o0, i1, r0
    add  o1, i2, r0
    addi o4, r0, T_SEND
    add  o2, r6, r0 !send !next
)" << regBasicDispTail("pread_full", sw_checks) << R"(
    .region processing
hb_pwrite:
    ; Every PWRITE escapes: the host proxy is the single writer of
    ; I-structure state (see hpuOptHandlers).
    st   r0, r3, r0 !next
)" << regBasicDispTail("pwrite", sw_checks) << R"(
    .region processing
hb_ack:
    ld   r5, i0, r0
    addi r5, r5, -1
    st   r5, i0, r0 !next
)" << regBasicDispTail("ack", sw_checks) << R"(
    .region processing
hb_stop:
    sti  r0, r3, 0             ; tell the host service loop to halt
    halt
)";
    if (collectives)
        os << regBasicCollHandlers(true, sw_checks);
    if (sw_checks)
        os << "qfull:\n    halt\n";
    return os.str();
}

} // namespace

std::string
handlerProgram(const ni::Model &model, bool basic_sw_checks,
               bool no_overlap, bool collectives)
{
    // The policy's addressing mode is the instruction-sequence
    // selection hook: register-operand kernels for a register-file
    // coupling, load/store kernels for a memory-mapped one.  On-NI
    // models override both: the HPU is register-coupled whatever the
    // host placement looks like, and CPU-only work escapes through
    // the host-proxy ring.
    if (model.policy().handlersOnNi()) {
        return model.optimized
            ? hpuOptHandlers(collectives)
            : hpuBasicHandlers(basic_sw_checks, collectives);
    }
    bool reg = model.policy().registerMapped();
    if (model.optimized) {
        if (reg)
            return regOptHandlers(collectives);
        return no_overlap ? cacheOptHandlersNoOverlap(collectives)
                          : cacheOptHandlers(collectives);
    }
    return reg ? regBasicHandlers(basic_sw_checks, collectives)
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
    // through the cache-mapped command window.
    bool basic = !model.optimized;

    auto send_t = [&](unsigned type) {
        std::ostringstream s;
        if (basic) {
            if (type != typeSend)
                s << "    addi r1, r0, " << type << "\n";
            s << "    sti  " << (type == typeSend ? "r0" : "r1")
              << ", r10, NI_O4\n"
                 "    ldi  r0, r10, NI_SEND\n";
        } else {
            s << "    ldi  r0, r10, NI_SEND | NI_TYPE*" << type << "\n";
        }
        return s.str();
    };

    std::ostringstream os;
    os << R"(
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
)" << send_t(typeSend) << R"(
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
)" << send_t(typeSend) << R"(
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
)" << send_t(typeAck) << R"(
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
)" << send_t(typeSend) << R"(
    ldi  r8, r8, DN_NEXT
    bnez r8, hp_pwrite_loop
    nop

    .region host_dispatch
hp_next:
    addi r9, r9, 1
    sti  r9, r0, HP_CI         ; publish consumption to the HPU
    br   hp_poll
    nop
)";
    return os.str();
}

namespace
{

/** Sender-side message field values (destination is node 1). */
struct SendFields
{
    // Preloaded into r5..r8 by the setup code.
    uint64_t v5, v6, v7, v8;
};

SendFields
fieldsFor(Kind k)
{
    const uint64_t dest_frame = (1ull << 24) | 0x2000;  // FP on node 1
    const uint64_t dest_addr = (1ull << 24) | 0x2100;
    const uint64_t elem_base = (1ull << 24) | 0x2200;
    const uint64_t ack_word = 0;    // no ack by default
    switch (k) {
      case Kind::send0:
      case Kind::send1:
      case Kind::send2:
        // FP, IP, data, data.
        return {dest_frame, 0x9000, 0x1234, 0x5678};
      case Kind::read:
      case Kind::write:
        // addr, FP/value, IP.
        return {dest_addr, dest_frame, 0x9000, 0};
      case Kind::pread:
        // element base, offset, FP, IP.
        return {elem_base, 8, dest_frame, 0x9000};
      case Kind::pwrite:
        // element, ack, value.
        return {elem_base, ack_word, 0x4242, 0};
    }
    return {};
}

/** Per-message composition for the register-mapped models. */
std::string
regSendBody(Kind k, bool basic)
{
    std::ostringstream os;
    auto id_line = [&]() {
        if (basic)
            os << "    addi o4, r0, " << basicId(k) << "\n";
    };
    // `!send` carries the type on optimized models and is ignored on
    // basic ones.
    auto send_t = [&](unsigned type) {
        return std::string(" !send=") + std::to_string(basic ? 0 : type);
    };

    switch (k) {
      case Kind::send0:
        id_line();
        os << "    add  o0, r5, r0\n"
           << "    add  o1, r6, r0" << send_t(typeSend) << "\n";
        break;
      case Kind::send1:
        id_line();
        os << "    add  o0, r5, r0\n"
           << "    add  o1, r6, r0\n"
           << "    add  o2, r7, r0" << send_t(typeSend) << "\n";
        break;
      case Kind::send2:
        id_line();
        os << "    add  o0, r5, r0\n"
           << "    add  o1, r6, r0\n"
           << "    add  o2, r7, r0\n"
           << "    add  o3, r8, r0" << send_t(typeSend) << "\n";
        break;
      case Kind::read:
        id_line();
        os << "    add  o0, r5, r0\n"
           << "    add  o1, r6, r0\n"
           << "    add  o2, r7, r0" << send_t(typeRead) << "\n";
        break;
      case Kind::write:
        id_line();
        os << "    add  o0, r5, r0\n"
           << "    add  o1, r6, r0" << send_t(typeWrite) << "\n";
        break;
      case Kind::pread:
        id_line();
        os << "    add  r3, r5, r6\n"      // element address compute
           << "    add  o0, r3, r0\n"
           << "    add  o1, r7, r0\n"
           << "    add  o2, r8, r0" << send_t(typePRead) << "\n";
        break;
      case Kind::pwrite:
        id_line();
        os << "    add  o0, r5, r0\n"
           << "    add  o1, r6, r0\n"
           << "    add  o2, r7, r0" << send_t(typePWrite) << "\n";
        break;
    }
    return os.str();
}

/** Per-message composition for the cache-mapped models. */
std::string
cacheSendBody(Kind k, bool basic)
{
    std::ostringstream os;
    unsigned type = 0;
    switch (k) {
      case Kind::send0: case Kind::send1: case Kind::send2:
        type = typeSend;
        break;
      case Kind::read: type = typeRead; break;
      case Kind::write: type = typeWrite; break;
      case Kind::pread: type = typePRead; break;
      case Kind::pwrite: type = typePWrite; break;
    }

    auto store = [&](const char *src, const char *reg) {
        os << "    sti  " << src << ", r10, " << reg << "\n";
    };

    switch (k) {
      case Kind::send0:
        store("r5", "NI_O0");
        store("r6", "NI_O1");
        break;
      case Kind::send1:
        store("r5", "NI_O0");
        store("r6", "NI_O1");
        store("r7", "NI_O2");
        break;
      case Kind::send2:
        store("r5", "NI_O0");
        store("r6", "NI_O1");
        store("r7", "NI_O2");
        store("r8", "NI_O3");
        break;
      case Kind::read:
        store("r5", "NI_O0");
        store("r6", "NI_O1");
        store("r7", "NI_O2");
        break;
      case Kind::write:
        store("r5", "NI_O0");
        store("r6", "NI_O1");
        break;
      case Kind::pread:
        os << "    add  r3, r5, r6\n";     // element address compute
        store("r3", "NI_O0");
        store("r7", "NI_O1");
        store("r8", "NI_O2");
        break;
      case Kind::pwrite:
        store("r5", "NI_O0");
        store("r6", "NI_O1");
        store("r7", "NI_O2");
        break;
    }

    if (basic) {
        bool is_send_kind = k == Kind::send0 || k == Kind::send1 ||
                            k == Kind::send2;
        if (is_send_kind) {
            // The generic id stays hot in r14.
            os << "    sti  r14, r10, NI_O4\n";
        } else {
            os << "    addi r2, r0, " << basicId(k) << "\n"
               << "    sti  r2, r10, NI_O4\n";
        }
        os << "    ldi  r0, r10, NI_SEND\n";
    } else {
        os << "    ldi  r0, r10, NI_SEND | NI_TYPE*" << type << "\n";
    }
    return os.str();
}

} // namespace

std::string
senderProgram(const ni::Model &model, Kind kind, unsigned count)
{
    bool reg = model.policy().registerMapped();
    bool basic = !model.optimized;
    SendFields f = fieldsFor(kind);

    std::ostringstream os;
    os << "    .org 0x1000\n"
       << "    .region setup\n"
       << "entry:\n";
    if (!reg)
        os << "    li   r10, NI_BASE\n";
    if (basic && !reg)
        os << "    addi r14, r0, " << basicId(Kind::send0) << "\n";
    os << "    li   r5, " << f.v5 << "\n"
       << "    li   r6, " << f.v6 << "\n"
       << "    li   r7, " << f.v7 << "\n"
       << "    li   r8, " << f.v8 << "\n"
       << "    lis  r1, " << count << "\n"
       << "loop:\n"
       << "    .region sending\n"
       << (reg ? regSendBody(kind, basic) : cacheSendBody(kind, basic))
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
    bool reg = model.policy().registerMapped();
    bool basic = !model.optimized;
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
    if (reg) {
        const char *head =
            "    add  o0, r5, r0\n"
            "    add  o1, r6, r0\n";
        if (basic) {
            os << head
               << "    addi o4, r0, T_BARUP\n    send\n"
               << head
               << "    add  o2, r7, r0\n"
                  "    addi o4, r0, T_MCAST\n    send\n"
               << head
               << "    add  o2, r7, r0\n"
                  "    add  o3, r8, r0\n"
                  "    addi o4, r0, T_REDUCE\n    send\n";
        } else {
            os << head << "    send T_BARUP\n"
               << head
               << "    add  o2, r7, r0\n    send T_MCAST\n"
               << head
               << "    add  o2, r7, r0\n"
                  "    add  o3, r8, r0\n    send T_REDUCE\n";
        }
    } else {
        const char *head =
            "    sti  r5, r10, NI_O0\n"
            "    sti  r6, r10, NI_O1\n";
        if (basic) {
            os << head
               << "    addi r2, r0, T_BARUP\n"
                  "    sti  r2, r10, NI_O4 | NI_SEND\n"
               << head
               << "    sti  r7, r10, NI_O2\n"
                  "    addi r2, r0, T_MCAST\n"
                  "    sti  r2, r10, NI_O4 | NI_SEND\n"
               << head
               << "    sti  r7, r10, NI_O2\n"
                  "    sti  r8, r10, NI_O3\n"
                  "    addi r2, r0, T_REDUCE\n"
                  "    sti  r2, r10, NI_O4 | NI_SEND\n";
        } else {
            os << head
               << "    ldi  r0, r10, NI_SEND | NI_TYPE*T_BARUP\n"
               << head
               << "    sti  r7, r10, NI_O2\n"
                  "    ldi  r0, r10, NI_SEND | NI_TYPE*T_MCAST\n"
               << head
               << "    sti  r7, r10, NI_O2\n"
                  "    sti  r8, r10, NI_O3\n"
                  "    ldi  r0, r10, NI_SEND | NI_TYPE*T_REDUCE\n";
        }
    }
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
        jobs.push_back({"handlers", handlerProgram(model), true});
        // The no-overlap variant exists only for the cache-mapped
        // host kernels; On-NI handlers are register-coupled.
        if (!model.policy().registerMapped() &&
            !model.policy().handlersOnNi()) {
            jobs.push_back({"handlers-no-overlap",
                            handlerProgram(model, false, true), true});
        }
    } else {
        jobs.push_back({"handlers", handlerProgram(model, false), true});
        jobs.push_back({"handlers-sw-checks",
                        handlerProgram(model, true), true});
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

    static const Kind kinds[] = {
        Kind::send0, Kind::send1, Kind::send2, Kind::read, Kind::write,
        Kind::pread, Kind::pwrite,
    };
    for (Kind k : kinds) {
        jobs.push_back({"send-" + kindName(k),
                        senderProgram(model, k, 4), false});
    }
    return jobs;
}

} // namespace msg
} // namespace tcpni
