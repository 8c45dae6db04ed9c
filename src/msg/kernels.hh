/**
 * @file
 * The handler-kernel library: hand-written assembly implementing the
 * paper's message handlers for every interface model.
 *
 * Two kinds of programs are generated:
 *
 *  - handlerProgram(model): a complete message-handling server -- the
 *    dispatch machinery plus handlers for every protocol message type
 *    (Send with 0/1/2 data words, Read, Write, PRead, PWrite, Ack,
 *    Stop).  Optimized models dispatch through MsgIp / NextMsgIp with
 *    handlers living in the hardware dispatch table; basic models poll
 *    STATUS and dispatch through a software table indexed by the
 *    32-bit message id in word 4 (the Figure-5 sequence).
 *
 *  - senderProgram(model, kind, count): a loop that composes and sends
 *    `count` identical messages of the given kind, with the per-message
 *    composition instructions tagged `.region sending`.
 *
 * Every instruction is tagged with a cost region ("sending",
 * "dispatching", "processing", ...) so the Table-1 harness can measure
 * exactly the quantities the paper reports.
 *
 * Conventions (documented in EXPERIMENTS.md):
 *  - processing kernels fold SEND/NEXT commands into their final
 *    access, as the paper's optimized examples do;
 *  - sending kernels issue an explicit SEND (matching the paper's
 *    sending counts, which list the SEND as its own step);
 *  - optimized handlers hoist the NextMsgIp read to the top of the
 *    handler so the off-chip load latency is overlapped with
 *    processing (the paper's Section 2.2.3 overlap);
 *  - basic handlers inline the poll-and-dispatch tail (Figure 5,
 *    lines 1-6) at the end of each handler;
 *  - basic Send-kind messages keep the generic reply id in a register
 *    (+1 instruction vs optimized); basic memory-op requests generate
 *    a fresh id per message (+2 on cache-mapped, +1 register-mapped).
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
 *   statically-hop-bounded FORWARD trees over the per-node combine
 *   frame (msg/protocol.hh).  Adds labels `h_barup`/`hb_barup` etc.;
 *   the static verifier keys the extra required types off them.  On
 *   On-NI models the collective handlers run entirely on the HPU and
 *   only the root's completion escapes through the host-proxy ring.
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

} // namespace msg
} // namespace tcpni

#endif // TCPNI_MSG_KERNELS_HH
