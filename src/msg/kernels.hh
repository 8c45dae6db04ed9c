/**
 * @file
 * The handler-kernel library: the assembly implementing the paper's
 * message handlers for every interface model.
 *
 *  - handlerProgram(model): a complete message-handling server -- the
 *    dispatch machinery plus handlers for every protocol message type.
 *    Optimized models dispatch through MsgIp / NextMsgIp with handlers
 *    in the hardware dispatch table; basic models poll STATUS and
 *    dispatch through a software table indexed by the 32-bit id in
 *    word 4 (the Figure-5 sequence).
 *  - senderProgram(model, kind, count): a loop composing `count`
 *    messages, the composition tagged `.region sending`.
 *
 * Every instruction carries a cost region ("sending", "dispatching",
 * "processing", ...) so the Table-1 harness measures exactly the
 * quantities the paper reports.  Conventions (EXPERIMENTS.md):
 * processing kernels fold SEND/NEXT into their final access; sending
 * kernels issue an explicit SEND; optimized handlers hoist the
 * NextMsgIp read to overlap the interface latency (Section 2.2.3);
 * basic handlers inline the poll-and-dispatch tail (Figure 5).
 *
 * Hand-scheduled: the five Table-1 handler sets (register/cache x
 * optimized/basic, plus cache-mapped optimized without the overlap)
 * are the paper's schedules, and the cache-mapped ones hoist loads to
 * hide the load-use delay, which no per-line rule reproduces.  The
 * register-mapped sets double as the On-NI (HPU) sets, differing only
 * at the host-proxy escapes.  Lowered: the collective tree bodies, the
 * collective driver and the host proxy's sends are written once with
 * register-mapped operands and the NI pseudo-ops below, and
 * lowerNiAccess() spells them from the placement row's registerMapped
 * bit and the model's optimized bit (r10 = NI_BASE, $s = scratch):
 *
 *   source              register-mapped       cache-mapped
 *   add  rD, iN, r0     (as written)          ldi  rD, r10, NI_IN
 *   addi rD, iN, X      (as written)          ldi rD, NI_IN; addi rD, rD, X
 *   add  oN, rS, r0     (as written)          sti  rS, r10, NI_ON
 *   addi oN, r0, 0      (as written)          sti  r0, r10, NI_ON
 *   ld/ldi oN, rA, X    (as written)          ld/ldi $s, rA, X; sti $s, NI_ON
 *   next                (as written)          ldi  r0, r10, NI_NEXT
 *   send T     opt:     send T                ldi  r0, r10, NI_SEND|NI_TYPE*T
 *              basic:   addi o4, r0, T; send  addi $s, r0, T; sti $s, NI_O4|NI_SEND
 *   msgid T    opt:     (nothing)             (nothing)
 *              basic:   addi o4, r0, T        addi $s, r0, T; sti $s, NI_O4
 *   send T, held        as send T; basic: `send` / ldi r0, r10, NI_SEND
 *   jmp  msgip opt:     jmp  msgip            .region dispatching; ldi r15,
 *                                             r10, NI_MSGIP; jmp r15
 *              basic:   br   disp_coll        br   disp_coll
 *
 * An id of 0 (T_SEND) is stored from the spelling's zero-id register.
 * A line led by `[tags]` (reg, cache, opt, hpu, host) appears only in
 * spellings matching every tag.
 */

#ifndef TCPNI_MSG_KERNELS_HH
#define TCPNI_MSG_KERNELS_HH

#include <map>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "ni/config.hh"

namespace tcpni
{
namespace msg
{

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

std::string kindName(Kind k);

/** Base address of the handler program (IpBase for optimized models). */
constexpr Addr handlerBase = 0x4000;

/** Predefined assembler symbols for kernels (NI + protocol); one
 *  immutable process-wide table. */
const std::map<std::string, uint64_t> &kernelSymbols();

/**
 * The complete handler-loop server program for @p model.
 *
 * Exposed labels: `entry` (program entry point), `h_send0`, `h_send1`,
 * `h_send2` (type-0 inlet addresses to place in word 1 of Send
 * messages, optimized models only).
 *
 * @param basic_sw_checks  when true, the *basic* models' dispatch
 *   tails also check the queue thresholds in software (read STATUS,
 *   mask, branch) -- the work Section 2.2.4 argues a deployed basic
 *   interface must do on every dispatch and which the optimized
 *   MsgIp hardware folds in for free.  Table 1 keeps this off (its
 *   caption notes the comparison favors the basic models); the
 *   Figure-12 program-level expansion turns it on.
 *
 * @param no_overlap  when true, the *optimized cache-mapped* handlers
 *   dispatch the straightforward way -- NEXT first, then read MsgIp
 *   and jump -- instead of hoisting the NextMsgIp load to overlap the
 *   interface latency with processing.  Isolates the benefit of the
 *   NextMsgIp register (Section 2.2.3); measured with
 *   `tcpni_bench table1 --no-overlap`.
 *
 * @param collectives  when true the program also installs the
 *   collective handlers (BARUP/BARDN/MCAST/REDUCE) that fan out
 *   statically-hop-bounded trees over the per-node combine frame
 *   (msg/protocol.hh): bodies `hb_barup` etc., plus dispatch slots
 *   `h_barup` etc. on optimized models.  The static verifier keys the
 *   extra required types off `h_barup` (optimized) / `hb_barup`.
 */
std::string handlerProgram(const ni::Model &model,
                           bool basic_sw_checks = false,
                           bool no_overlap = false,
                           bool collectives = false);

/**
 * A sender loop composing @p count messages of kind @p kind addressed
 * to node 1.  Values are copied from scalar registers into the message
 * (the upper end of the paper's register-mapped ranges).
 */
std::string senderProgram(const ni::Model &model, Kind kind,
                          unsigned count);

/**
 * The collective-corpus driver kernel: one loop injecting a BARUP
 * arrival, an MCAST, and a REDUCE at a combine frame on node 1 -- the
 * shape of `bench/exp_collective`'s per-node arrival injection, in
 * corpus form so the protocol analyzer sees the collective types
 * demanded (proto-dead) and their senders verified against the
 * contracts.
 */
std::string collectiveDriverProgram(const ni::Model &model,
                                    unsigned count);

/**
 * The host-side service loop paired with the On-NI handler kernels: a
 * CPU program that drains the HPU's host-proxy ring (msg::hostRingBase
 * / hostRingPiAddr / hostRingCiAddr), performing the deferred-list
 * work the HPU escaped (PREAD parking, PWRITE reader walks) and
 * halting when the STOP message's escape arrives.  Exposed labels:
 * `entry`.  Regions are tagged `host_setup` / `host_dispatch` /
 * `host_proc` so harnesses can report host occupancy separately from
 * the HPU's "dispatching"/"processing" cycles.
 */
std::string hostProxyProgram(const ni::Model &model);

/**
 * Number of message values that could have been computed directly into
 * the output registers for this kind (the paper's range lower bound =
 * measured copy cost minus this, register-mapped models only).
 */
unsigned directlyComputableWords(Kind k);

/** Message ids used by the basic models' software dispatch (word 4). */
unsigned basicId(Kind k);

/**
 * One kernel of a model's static-analysis corpus (tcpni_lint and the
 * whole-system protocol analyzer in verify/protocol.hh).
 */
struct CorpusJob
{
    std::string name;       //!< "handlers", "handlers-sw-checks",
                            //!< "send-read", ...
    std::string source;     //!< assembly source
    bool handlers = false;  //!< message-triggered handler kernel
    /** Protocol-analysis pairing group: a handler kernel is analyzed
     *  together with the senders of its own group plus the ungrouped
     *  ones.  Keeps the collective driver's BARUP/MCAST/REDUCE traffic
     *  out of the base kernels' analysis (whose tables have no
     *  collective handlers) and vice versa. */
    std::string group;
};

/**
 * The full kernel corpus for @p model: every handler-kernel variant
 * the linter verifies plus the seven Table-1 sender kernels.  The
 * On-NI host proxy (hostProxyProgram) is deliberately NOT part of the
 * corpus -- the protocol analyzer models it axiomatically.
 */
std::vector<CorpusJob> kernelCorpus(const ni::Model &model);

/** Assemble a kernel program with the kernel symbol table. */
isa::Program assembleKernel(const std::string &src);

/** One spelling of the NI pseudo-ops (see the file comment). */
struct NiSpelling
{
    bool registerMapped;        //!< the placement row's registerMapped
    bool optimized;             //!< the model's optimized bit
    bool hpu = false;           //!< handlers on the interface's HPU
    const char *scratch = "r3"; //!< cache-mapped staging register
    const char *zeroIdReg = "r0";   //!< holds id 0 (T_SEND), basic cache
};

/**
 * Lower @p src's NI pseudo-ops and [guard] lines to @p sp's spelling
 * (table in the file comment).  Every other line passes through
 * unchanged.  fatal()s, naming the source line, on an unknown NI
 * pseudo-op, a word index outside 0..4, an NI access no rule spells,
 * or an unknown guard tag.
 */
std::string lowerNiAccess(const std::string &src, const NiSpelling &sp);

} // namespace msg
} // namespace tcpni

#endif // TCPNI_MSG_KERNELS_HH
