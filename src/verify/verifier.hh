/**
 * @file
 * Static analysis of assembled kernels against the NI register
 * contract.
 *
 * The verifier runs a forward dataflow analysis from every root of the
 * derived Contract (see contract.hh).  Branch instructions are
 * processed together with their delay slot, so a handler's final
 * "jmp nextmsgip / <processing instruction with folded NEXT>" overlap
 * (Section 2.2.3 of the paper) is modelled exactly.  The analysis
 * tracks, per program point:
 *
 *  - which general registers must / may have been written (def-before-
 *    use; reads through the register-mapped NI aliases never count as
 *    undefined -- they are interface registers, not GPRs);
 *  - which output registers o0..o4 must / may hold a value, and the
 *    constant stored to o4 (the basic models' message id);
 *  - whether NEXT must / may have been issued;
 *  - an abstract value per register (constant, MsgIp/NextMsgIp load,
 *    input-register load, software-dispatch-table load), which is how
 *    the verifier classifies the indirect jump that ends a handler.
 *
 * Checks:
 *
 *   def-use    read of a possibly-undefined general register
 *   consume    handler for an n-word type reads exactly words
 *              0..n-1 (dispatch-consumed words included), never past
 *              the type's maximum length, and issues NEXT before
 *              dispatching to the next message
 *   send       a SEND commands a contiguous run of defined output
 *              words whose length matches the sent type's contract;
 *              REPLY / FORWARD never overwrite the substituted
 *              registers; basic-model sends define the o4 id word
 *   dispatch   indirect-jump targets derive from a dispatch source
 *              (MsgIp / NextMsgIp / word 1 / a software table)
 *   structure  fall-through off a handler / into data, branches that
 *              leave the image, unreachable code
 *   region     reachable code missing a .region cost tag
 *   hazard     (notes) statically-estimated load-use stalls under the
 *              model's interface placement.  The stall depth is the
 *              configuration's loadUseDelay() -- 2 cycles for the
 *              paper's off-chip NIC, 8 for the Section-4.2.3 far
 *              off-chip variant, 1 on-chip -- and 0 for kernels that
 *              run register-coupled (register-file placement, and the
 *              On-NI models' HPU handler kernels), whose interface
 *              reads never interlock.
 *
 * Besides diagnostics, verification can export a KernelSummary: the
 * per-root protocol facts (types consumed, SEND/REPLY/FORWARD emit
 * sites with lengths and substitution masks, host-proxy escape posts)
 * that verify/protocol.hh lifts into the whole-corpus message-flow
 * graph.
 */

#ifndef TCPNI_VERIFY_VERIFIER_HH
#define TCPNI_VERIFY_VERIFIER_HH

#include <string>
#include <vector>

#include "verify/contract.hh"
#include "verify/diag.hh"

namespace tcpni
{
namespace verify
{

/** One SEND/REPLY/FORWARD commanded by a kernel, observed under one
 *  verification root. */
struct EmitSite
{
    isa::SendMode mode = isa::SendMode::send;
    bool typeKnown = false;     //!< type/id resolved statically
    unsigned type = 0;          //!< 4-bit type (optimized) / o4 id (basic)
    unsigned words = 0;         //!< emitted contiguous o-word prefix
    uint8_t substituted = 0;    //!< o-words filled by REPLY/FORWARD

    /** The send may issue before this root's NEXT retires, i.e. while
     *  the handler still owns an unconsumed input-queue slot.  A send
     *  folded with !next on the same instruction is consume-
     *  disciplined and does not count. */
    bool beforeNext = false;

    /** Some emitted (non-substituted) word is an input word minus a
     *  compile-time constant: a statically-decremented hop bound. */
    bool decremented = false;

    Addr addr = 0;
    unsigned line = 0;
};

/** Protocol-relevant facts about one verification root. */
struct RootSummary
{
    std::string name;
    RootKind kind = RootKind::setup;
    unsigned type = 0;          //!< message type / basic id
    unsigned minWords = 0;
    unsigned maxWords = 0;
    bool iafull = true;         //!< may run with the input queue full

    std::vector<EmitSite> emits;

    bool escapes = false;       //!< some path posts to the host ring
    bool plainStores = false;   //!< stores to plain memory (not the NI
                                //!< window, not the host-proxy doorbell)
    unsigned exits = 0;         //!< activation exits (dispatch / halt)
    unsigned exitsEscaped = 0;  //!< exits with the escape already posted

    /** Every way out of this handler posts a host-proxy escape first
     *  (the On-NI single-writer discipline for PWRITE). */
    bool
    escapesAlways() const
    {
        return exits > 0 && exitsEscaped == exits;
    }
};

/** Everything the protocol analyzer needs to know about one kernel. */
struct KernelSummary
{
    std::vector<RootSummary> roots;
};

struct VerifyOptions
{
    KernelSummary *summary = nullptr;   //!< export per-root summaries
};

/** Verify @p prog against an already-derived @p contract. */
Report verify(const isa::Program &prog, const ni::Model &model,
              const Contract &contract, const VerifyOptions &opts = {});

/** Derive the handler contract for @p model and verify. */
Report verifyHandlers(const isa::Program &prog, const ni::Model &model,
                      const VerifyOptions &opts = {});

/** Derive the sender contract and verify. */
Report verifySender(const isa::Program &prog, const ni::Model &model,
                    const VerifyOptions &opts = {});

} // namespace verify
} // namespace tcpni

#endif // TCPNI_VERIFY_VERIFIER_HH
