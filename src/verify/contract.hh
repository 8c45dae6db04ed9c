/**
 * @file
 * The NI register contract a kernel is verified against.
 *
 * A contract is derived from an assembled Program plus the interface
 * model it targets.  Derivation symbolically executes the kernel's
 * setup block (straight-line code from `entry` up to its first
 * branch), which yields
 *
 *  - the constant environment the setup pins into registers (NI base
 *    address, dispatch-table bases, small constants) -- handlers rely
 *    on these without re-establishing them;
 *  - the dispatch-table base (IpBase) the kernel installs;
 *  - the software dispatch tables the setup stores (the basic models'
 *    id table at DISPATCH_TABLE and the escape table at ESC_TABLE);
 *
 * and from those, one verification root per entry point: each of the
 * 64 hardware dispatch slots (optimized models, all four iafull /
 * oafull variants of each type), the type-0 inlets, the software
 * dispatch-table targets (basic models), and the setup code itself.
 */

#ifndef TCPNI_VERIFY_CONTRACT_HH
#define TCPNI_VERIFY_CONTRACT_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "ni/config.hh"
#include "verify/diag.hh"

namespace tcpni
{
namespace verify
{

/** What an abstract register value is known to hold. */
enum class VKind : uint8_t
{
    unknown,
    constant,       //!< a compile-time constant (value)
    dispatchPtr,    //!< loaded from MsgIp / NextMsgIp
    inputWord,      //!< loaded from input register i<value>
    tableEntry,     //!< loaded from a software dispatch table
};

struct AbsVal
{
    VKind kind = VKind::unknown;
    Word value = 0;

    /** For inputWord values: a compile-time constant added to the
     *  loaded word (i<value> + delta).  The protocol analyzer's
     *  forward-termination check recognizes a *negative* delta in a
     *  forwarded message word as a statically-decremented hop bound
     *  (see verify/protocol.hh). */
    int32_t delta = 0;

    bool operator==(const AbsVal &) const = default;
};

/** Abstract values for the 32 general registers. */
using RegEnv = std::array<AbsVal, 32>;

/** Merge two abstract values (join: equal or unknown). */
AbsVal mergeVal(const AbsVal &a, const AbsVal &b);

/** Constant-fold one ALU op (the subset kernels use for setup). */
std::optional<Word> evalAlu(isa::Opcode op, Word a, Word b);

/** Abstract value of a register (r0 is always zero). */
AbsVal readReg(const RegEnv &env, unsigned r);

/** What kind of entry point a verification root is. */
enum class RootKind : uint8_t
{
    setup,      //!< the kernel's entry/setup code (also senders)
    poll,       //!< dispatch-slot 0: no valid message
    exception,  //!< dispatch-slot 1 (type 0001)
    handler,    //!< a live message type's handler
    inlet,      //!< a type-0 inlet reached through word 1
    deadSlot,   //!< a slot for a type the protocol does not use
};

/** One verification root: an address the NI can dispatch to, plus the
 *  message contract in force when it does. */
struct Root
{
    Addr entry = 0;
    std::string name;
    RootKind kind = RootKind::setup;
    unsigned type = 0;              //!< message type (handler slots)
    unsigned minWords = 0;          //!< shortest legal message
    unsigned maxWords = 0;          //!< longest legal message
    std::set<unsigned> dispatchConsumed;    //!< words dispatch itself used

    /** The input queue may be above its iafull threshold when this
     *  root runs.  Hardware-dispatch slots with ia=0 are only entered
     *  below the threshold; every other entry point (basic software
     *  dispatch, inlets, ia=1 slots) must assume the worst.  The
     *  protocol analyzer's buffer-deadlock check only counts SENDs
     *  issued before NEXT under roots where this is true. */
    bool iafull = true;

    /** A valid message occupies the input registers on entry. */
    bool expectsMessage() const
    {
        return kind == RootKind::handler || kind == RootKind::inlet;
    }
};

/** The derived contract for one kernel. */
struct Contract
{
    std::vector<Root> roots;

    /** The register view the kernel is compiled against.  Usually the
     *  placement's registerMapped, but On-NI models split: their
     *  *handler* kernels run on the register-coupled HPU while their
     *  *sender* kernels run on the (memory-mapped) host CPU. */
    bool kernelRegMapped = false;

    RegEnv pinned;                  //!< setup constants handlers rely on
    Addr ipBase = 0;                //!< installed dispatch-table base
    bool ipBaseFound = false;
    std::map<unsigned, Addr> swTable;   //!< basic id -> handler address
    std::map<unsigned, Addr> escTable;  //!< escape id -> handler address
    Report diags;                   //!< problems found while deriving
};

/**
 * Message types every handler kernel must implement.  The escape type
 * is only required of the register-mapped optimized kernel (the cache
 * kernels' setup does not establish the escape table).
 */
std::set<unsigned> requiredTypes(const ni::Model &model);

/** Basic-model software-table ids every kernel must install. */
std::set<unsigned> requiredBasicIds();

/** Message-length contract for a basic-model 32-bit id. */
void basicIdContract(unsigned id, unsigned &min_words,
                     unsigned &max_words);

/**
 * Derive the contract for @p prog, a handler kernel for @p model.
 * Missing entry points (incomplete dispatch table, absent inlets,
 * missing software-table entries) are reported in the returned
 * contract's diags.
 */
Contract deriveHandlerContract(const isa::Program &prog,
                               const ni::Model &model);

/** Derive the (single-root) contract for a sender program. */
Contract deriveSenderContract(const isa::Program &prog,
                              const ni::Model &model);

} // namespace verify
} // namespace tcpni

#endif // TCPNI_VERIFY_CONTRACT_HH
