/**
 * @file
 * Message-protocol conventions built on the paper's architecture.
 *
 * The paper evaluates the message types needed "to communicate
 * arguments and results between procedures, to access remote memory,
 * and to access remote memory with presence bits" (Section 4.1).  We
 * assign them 4-bit type codes (optimized interfaces) which double as
 * the 32-bit message ids carried in word 4 by the basic interfaces:
 *
 *   SEND (0)  -- general thread invocation (the paper's Send / *T
 *                Start message).  w0 = FP (global frame pointer; its
 *                high bits address the destination node), w1 = IP of
 *                the inlet/thread, w2..w3 = 0..2 data words.  Replies
 *                to every other request are SEND messages, which is
 *                why type 0 gets the Figure-7 word-1 dispatch shortcut.
 *                The basic models' ids of its 1- and 2-word variants
 *                are ID_SEND1 and ID_SEND2 (the kinds table below).
 *   READ (2)  -- remote read request (Figure 3): w0 = global address,
 *                w1 = reply FP, w2 = reply IP.
 *   WRITE (3) -- remote write: w0 = global address, w1 = value.
 *   PREAD (4) -- I-structure read: w0 = global element address,
 *                w1 = reply FP, w2 = reply IP.
 *   PWRITE (5)-- I-structure write: w0 = global element address,
 *                w1 = value, w2 = ack word (global address of a
 *                completion counter on the writer's node; 0 = no ack).
 *   ACK (6)   -- PWRITE completion: w0 = global counter address.
 *                The handler decrements the addressed counter.
 *   STOP (15) -- harness control: the handler loop halts.
 *
 * Type 1 is reserved for the exception handler (Section 2.2.4).
 *
 * Collective types (9..12) build barrier / multicast / allreduce on
 * the paper's FORWARD primitive: handlers fan out over a static k-ary
 * tree whose per-node state lives in a fixed-address combine frame
 * (layout below), and every retransmitted message carries a hop word
 * the handler decrements, so the fan-out is statically bounded:
 *
 *   BARUP (9)  -- barrier arrival: w0 = combine-frame FP (global; the
 *                 receiving node's own frame), w1 = hop budget.  The
 *                 handler decrements the frame's join counter; on zero
 *                 it re-arms the counter and either forwards BARUP to
 *                 the parent frame or, at the root, releases BARDN to
 *                 every child and produces the root completion.
 *   BARDN (10) -- barrier release: w0 = frame FP, w1 = hop budget.
 *                 Fans BARDN to the children and notifies completion.
 *   MCAST (11) -- broadcast: w0 = frame FP, w1 = hop, w2 = value.
 *                 Stores the value, fans MCAST down, notifies.
 *   REDUCE (12)-- combining arrival: w0 = frame FP, w1 = hop,
 *                 w2 = value, w3 = op (CO_*).  Combines into the
 *                 frame accumulator; on join the interior forwards the
 *                 partial REDUCE to the parent and the root broadcasts
 *                 the result as MCAST (allreduce).
 *
 * Combine-frame layout (fixed local address collFrameAddr, one frame
 * per node, written by the tree-topology layer before the collective
 * starts; an I-structure in the paper's sense -- the counter word is
 * the presence state and the handlers are its only writers):
 *
 *   +0   CF_PARENT  parent frame FP (global word; 0 = this is root)
 *   +4   CF_FAN     number of children
 *   +8   CF_COUNT   join counter, armed to fan+1 (children + self)
 *   +12  CF_ACC     reduction accumulator
 *   +16  CF_VALUE   broadcast / allreduce result cell
 *   +20  CF_NOTIFY  completion FP (the driver's collect inlet)
 *   +24  CF_ARMACC  accumulator re-arm value (the op identity)
 *   +28  CF_DONE    completions observed by this node (fuzz oracle)
 *   +32  CF_CHILD   child frame FPs, CF_FAN global words
 *
 * I-structure storage layout (walked by the PREAD/PWRITE handler
 * assembly): each element is two words,
 *
 *   +0  tag    (0 = EMPTY, 1 = FULL, 2 = DEFERRED)
 *   +4  value  (FULL) or head of the deferred-reader list (DEFERRED)
 *
 * A deferred-reader node is three words: +0 FP, +4 IP, +8 next (0 ends
 * the list).  Nodes come from a bump allocator whose free pointer
 * lives at the fixed local address allocPtrAddr.
 */

#ifndef TCPNI_MSG_PROTOCOL_HH
#define TCPNI_MSG_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "noc/message.hh"
#include "sim/types.hh"

namespace tcpni
{
namespace msg
{

/** Protocol message types (optimized) / message ids (basic). */
enum MsgType : uint8_t
{
    typeSend = 0,
    typeExc = 1,        //!< reserved (Section 2.2.4)
    typeRead = 2,
    typeWrite = 3,
    typePRead = 4,
    typePWrite = 5,
    typeAck = 6,
    /** @{ Collective protocol (FORWARD trees; header comment). */
    typeBarUp = 9,
    typeBarDn = 10,
    typeMcast = 11,
    typeReduce = 12,
    /** @} */
    /** Section 2.2.1's "escape" type: the real (32-bit) identifier
     *  rides in word 4 and the handler dispatches through a software
     *  table, like the basic architecture. */
    typeEscape = 14,
    typeStop = 15,
};

/** Message kinds measured in Table 1. */
enum class Kind
{
    send0,      //!< Send, 0 data words
    send1,      //!< Send, 1 data word
    send2,      //!< Send, 2 data words
    read,
    write,
    pread,
    pwrite,
};

/**
 * One Table-1 message kind: every fact of it that the kernels, the
 * Table-1 harness, the cost tables and the verifier use.
 *
 * The basic models dispatch on the 32-bit id in word 4.  The request
 * kinds reuse their 4-bit type codes as ids; the Send variants get
 * ids of their own, since the basic table has no word-1 indirection
 * and the id word cannot also carry the length.
 */
struct KindInfo
{
    const char *name;       //!< Table-1 row label
    const char *key;        //!< row key ("send:<key>"), hb_<key> label
    MsgType type;           //!< 4-bit type in SEND (optimized models)
    unsigned basicId;       //!< 32-bit id in word 4 (basic models)
    const char *inlet;      //!< type-0 inlet label (Send kinds only)
    unsigned words;         //!< message length in words, w0 first
    /** @{ The Table-1 sender: an address computation before the
     *  copies (or nullptr), the register copied into each output word,
     *  and the values its setup loads into r5..r8 (node 1). */
    const char *compute;
    const char *src[4];
    Word preload[4];
    /** @} */
    /** Values a compiler could compute straight into the output
     *  registers: the paper's register-mapped lower bound is the copy
     *  cost minus this. */
    unsigned direct;
};

/** The Table-1 kinds, in Kind order. */
inline constexpr KindInfo kinds[] = {
    {"Send (0 words)", "send0", typeSend, 0, "h_send0", 2, nullptr,
     {"r5", "r6"}, {globalWord(1, 0x2000), 0x9000, 0x1234, 0x5678}, 0},
    {"Send (1 word)", "send1", typeSend, 7, "h_send1", 3, nullptr,
     {"r5", "r6", "r7"}, {globalWord(1, 0x2000), 0x9000, 0x1234, 0x5678},
     1},
    {"Send (2 words)", "send2", typeSend, 8, "h_send2", 4, nullptr,
     {"r5", "r6", "r7", "r8"},
     {globalWord(1, 0x2000), 0x9000, 0x1234, 0x5678}, 2},
    // w0 = address, w1 = reply FP, w2 = reply IP.
    {"Read", "read", typeRead, typeRead, nullptr, 3, nullptr,
     {"r5", "r6", "r7"}, {globalWord(1, 0x2100), globalWord(1, 0x2000),
                          0x9000, 0}, 1},
    // w0 = address, w1 = value.
    {"Write", "write", typeWrite, typeWrite, nullptr, 2, nullptr,
     {"r5", "r6"}, {globalWord(1, 0x2100), globalWord(1, 0x2000),
                    0x9000, 0}, 2},
    // w0 = element base + offset, w1 = reply FP, w2 = reply IP.
    {"PRead", "pread", typePRead, typePRead, nullptr, 3,
     "add  r3, r5, r6", {"r3", "r7", "r8"},
     {globalWord(1, 0x2200), 8, globalWord(1, 0x2000), 0x9000}, 2},
    // w0 = element, w1 = ack word (0: no ack), w2 = value.
    {"PWrite", "pwrite", typePWrite, typePWrite, nullptr, 3, nullptr,
     {"r5", "r6", "r7"}, {globalWord(1, 0x2200), 0, 0x4242, 0}, 3},
};

constexpr const KindInfo &
kindInfo(Kind k)
{
    return kinds[static_cast<size_t>(k)];
}

/** Local address of the escape-type software dispatch table. */
constexpr Addr escapeTableAddr = 0x140;

/** @{ I-structure element layout (bytes). */
constexpr Word istructTagOffset = 0;
constexpr Word istructValueOffset = 4;
constexpr Word istructElemSize = 8;

constexpr Word tagEmpty = 0;
constexpr Word tagFull = 1;
constexpr Word tagDeferred = 2;
/** @} */

/** @{ Deferred-reader node layout (bytes). */
constexpr Word defNodeFpOffset = 0;
constexpr Word defNodeIpOffset = 4;
constexpr Word defNodeNextOffset = 8;
constexpr Word defNodeSize = 12;
/** @} */

/** Local address of the deferred-node bump-allocator free pointer. */
constexpr Addr allocPtrAddr = 0x80;

/** @{ Collective combine frame (header comment): fixed local address,
 *  word offsets, and REDUCE op codes (w3 of a REDUCE message). */
constexpr Addr collFrameAddr = 0x400;

constexpr Word cfParentOffset = 0;
constexpr Word cfFanOffset = 4;
constexpr Word cfCountOffset = 8;
constexpr Word cfAccOffset = 12;
constexpr Word cfValueOffset = 16;
constexpr Word cfNotifyOffset = 20;
constexpr Word cfArmAccOffset = 24;
constexpr Word cfDoneOffset = 28;
constexpr Word cfChildOffset = 32;

constexpr Word collOpAdd = 0;
constexpr Word collOpXor = 1;
constexpr Word collOpAnd = 2;

/** Identity element for a REDUCE op (the CF_ARMACC re-arm value). */
constexpr Word
collOpIdentity(Word op)
{
    return op == collOpAnd ? ~Word{0} : 0;
}

/** Apply a REDUCE op (the scalar oracle the kernels implement). */
constexpr Word
collOpApply(Word op, Word a, Word b)
{
    return op == collOpXor ? (a ^ b) : op == collOpAnd ? (a & b) : a + b;
}
/** @} */

/** Local address of the software dispatch table used by the basic
 *  (no-MsgIp) handler loops: 16 words of handler addresses indexed by
 *  the 32-bit message id in word 4. */
constexpr Addr basicDispatchTable = 0x100;

/**
 * @{ Host-proxy escape path of the on-NI placement (src/hpu).
 *
 * HPU handlers must stay short and loop-free (the handler-time
 * budget), so CPU-only work -- the deferred-reader list walks of
 * PREAD/PWRITE -- escapes to the host: the handler stores once to the
 * magic hpuProxyAddr and the HPU posts the current message (its
 * effective id plus input words 0..4) into a ring of
 * hostRingSlots x hostRingSlotBytes bytes in node memory at
 * hostRingBase.  The HPU-owned producer index lives at
 * hostRingPiAddr; the host-kernel-owned consumer index at
 * hostRingCiAddr.  The host proxy kernel polls the indices, replays
 * the slot through the ordinary protocol handlers, and replies with
 * plain SENDs through its own (cache-mapped) view of the interface.
 */
constexpr Word hpuProxyAddr = 0xfffe0000u;
constexpr Addr hostRingBase = 0x8000;
constexpr unsigned hostRingSlots = 64;
constexpr unsigned hostRingSlotBytes = 32;
constexpr Addr hostRingPiAddr = 0x7f00;
constexpr Addr hostRingCiAddr = 0x7f04;
/** @} */

/**
 * Message-length contract for one protocol type: which word indices a
 * handler for that type is entitled (and required) to consume.  The
 * static verifier checks handler kernels against this table; keep it
 * in sync with the header comment above when adding types.
 */
struct TypeContract
{
    bool live = false;      //!< type the shipped kernels must handle
    unsigned minWords = 0;  //!< shortest meaningful payload (words)
    unsigned maxWords = 0;  //!< longest meaningful payload (words)
};

/** Contract for a 4-bit type code.  Non-protocol types are not live. */
constexpr TypeContract
typeContract(unsigned type)
{
    switch (type) {
      case typeSend:
        // w0 = FP, w1 = IP, w2..w3 = 0..2 data words.
        return {true, 2, 4};
      case typeRead:
      case typePRead:
        // w0 = address, w1 = reply FP, w2 = reply IP.
        return {true, 3, 3};
      case typeWrite:
        // w0 = address, w1 = value.
        return {true, 2, 2};
      case typePWrite:
        // w0 = address, w1 = value, w2 = ack word.
        return {true, 3, 3};
      case typeAck:
        // w0 = counter address.
        return {true, 1, 1};
      case typeBarUp:
      case typeBarDn:
        // w0 = combine-frame FP, w1 = hop budget.
        return {true, 2, 2};
      case typeMcast:
        // w0 = combine-frame FP, w1 = hop, w2 = value.
        return {true, 3, 3};
      case typeReduce:
        // w0 = combine-frame FP, w1 = hop, w2 = value, w3 = op.
        return {true, 4, 4};
      case typeEscape:
        // Software-dispatched: w4 is the id; all five words may carry
        // payload.
        return {true, 0, 5};
      case typeStop:
        // Pure control; no payload.
        return {true, 0, 0};
      default:
        return {};
    }
}

/**
 * The reply a request type obliges the receiving node to produce:
 * READ/PREAD block the requester on a SEND carrying the value back to
 * the reply inlet, and a PWRITE with a non-zero ack word completes
 * with an ACK to the writer's counter.  Types without an obligation
 * (fire-and-forget SEND/WRITE, control types) return nullopt.  The
 * protocol analyzer (verify/protocol.hh) checks that every handler of
 * an obliged type emits the reply on some path, directly or through
 * the host-proxy escape.
 */
constexpr std::optional<unsigned>
replyObligation(unsigned type)
{
    switch (type) {
      case typeRead:
      case typePRead:
        return typeSend;
      case typePWrite:
        return typeAck;
      case typeBarUp:
        // A barrier join obliges the release wave back down the tree.
        return typeBarDn;
      case typeReduce:
        // An allreduce join obliges the result broadcast.
        return typeMcast;
      default:
        return std::nullopt;
    }
}

/** Control types: reserved/exception, software-dispatched escape, and
 *  harness stop.  Exempt from the analyzer's dead-handler check. */
constexpr bool
isControlType(unsigned type)
{
    return type == typeExc || type == typeEscape || type == typeStop;
}

/**
 * Fold a basic-model 32-bit message id onto its protocol type node:
 * the ids of the SEND length variants (kinds table) land on the SEND
 * handler family; every other id is its own type.
 */
constexpr unsigned
normalizeBasicId(unsigned id)
{
    for (const KindInfo &k : kinds) {
        if (k.basicId == id)
            return k.type;
    }
    return id;
}

/**
 * Assembler symbols for the protocol constants, to be merged with
 * ni::asmSymbols() when assembling handler kernels.
 */
std::map<std::string, uint64_t> protoSymbols();

} // namespace msg
} // namespace tcpni

#endif // TCPNI_MSG_PROTOCOL_HH
