/**
 * @file
 * Core types of the TAM-style threaded abstract machine.
 *
 * The paper's Figure-12 programs were compiled from Id to Berkeley's
 * Threaded Abstract Machine (TAM) and executed on a sequential TAM
 * simulator that counted dynamic instructions per class; RISC cycle
 * counts were then obtained by expanding each TAM instruction class
 * and each message event into 88100 cycles.  This module reproduces
 * that methodology:
 *
 *  - programs are code blocks made of *threads* (straight-line work,
 *    run from a LIFO scheduler) and *inlets* (message receivers that
 *    write into the activation frame and enable threads);
 *  - every abstract operation a thread or inlet performs is accounted
 *    in an instruction-class counter (TamStats);
 *  - every inter-frame interaction -- argument/result Sends, remote
 *    reads/writes, and I-structure accesses -- is a message event,
 *    logged with its type and presence-bit outcome exactly as the
 *    Mint run determined the paper's deferred/full/empty PRead and
 *    PWrite ratios.
 *
 * The machine executes sequentially and models no network latency or
 * idle cycles, matching Section 4.2.1's methodology statement.
 */

#ifndef TCPNI_TAM_TAM_HH
#define TCPNI_TAM_TAM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tcpni
{
namespace tam
{

class Machine;
class Frame;

/** TAM values: numeric (doubles represent both ints and floats, as in
 *  the Id world where indices stay well below 2^53). */
using Value = double;

/**
 * The data values of one message: none, one or two, because a 5-word
 * message spends its other words on the destination, the inlet and
 * the header.  The values are held inline, so delivering a message
 * never touches the heap.  Building a payload of more than two values,
 * or reading a value the message did not carry, panics.
 */
class Payload
{
  public:
    static constexpr size_t capacity = 2;

    Payload() = default;

    Payload(std::initializer_list<Value> vals)
        : n_(static_cast<uint8_t>(vals.size()))
    {
        if (vals.size() > capacity)
            tooMany(vals.size());
        size_t i = 0;
        for (Value v : vals)
            v_[i++] = v;
    }

    size_t size() const { return n_; }

    /** Value @p i; panics unless the message carried it. */
    Value
    at(size_t i) const
    {
        if (i >= n_)
            notCarried(i);
        return v_[i];
    }

  private:
    [[noreturn]] static void tooMany(size_t n);
    [[noreturn]] void notCarried(size_t i) const;

    std::array<Value, capacity> v_{};
    uint8_t n_ = 0;
};

/** Dynamic instruction classes counted by the interpreter. */
enum class Op : uint8_t
{
    iop,        //!< integer ALU operation
    fop,        //!< floating-point operation
    move,       //!< register/immediate move
    frameLoad,  //!< read an activation-frame slot
    frameStore, //!< write an activation-frame slot
    ctlFork,    //!< enable a thread
    ctlSwitch,  //!< scheduler dispatch of a thread
    syncDec,    //!< synchronization-counter decrement
    falloc,     //!< activation-frame allocation
    ffree,      //!< activation-frame release

    numOps,
};

std::string opName(Op op);

/** A continuation: the inlet of a frame on a node (the FP/IP pair the
 *  paper's messages carry). */
struct Continuation
{
    uint32_t frame = 0;
    uint16_t inlet = 0;
};

/** Handle to a distributed I-structure array. */
struct ArrayRef
{
    uint32_t id = 0;
};

/** Handle to a remote memory cell (accessed with Read/Write). */
struct CellRef
{
    uint32_t id = 0;
};

/** A code block: the compiled form of one procedure. */
struct CodeBlock
{
    using Inlet =
        std::function<void(Machine &, Frame &, const Payload &)>;
    using Thread = std::function<void(Machine &, Frame &)>;

    std::string name;
    unsigned numLocals = 0;
    std::vector<Inlet> inlets;
    std::vector<Thread> threads;
};

/** Message-event kinds logged by the interpreter. */
enum class MsgKind : uint8_t
{
    send0,
    send1,
    send2,
    read,
    write,
    preadFull,
    preadEmpty,
    preadDeferred,
    pwrite,

    numKinds,
};

std::string msgKindName(MsgKind k);

/** Dynamic statistics of one TAM program run. */
struct TamStats
{
    uint64_t ops[static_cast<size_t>(Op::numOps)] = {};
    uint64_t msgs[static_cast<size_t>(MsgKind::numKinds)] = {};

    /** Total deferred readers released across all PWrites. */
    uint64_t pwriteReleases = 0;

    /** PWrites that released at least one reader. */
    uint64_t pwriteWithDeferred = 0;

    /** Reply messages (Send-1-word receptions) generated by Read,
     *  full PRead, and deferred-reader releases. */
    uint64_t replies = 0;

    uint64_t
    op(Op o) const
    {
        return ops[static_cast<size_t>(o)];
    }

    uint64_t
    msg(MsgKind k) const
    {
        return msgs[static_cast<size_t>(k)];
    }

    /** Total network messages (requests + replies). */
    uint64_t totalMessages() const;

    /** Total floating-point operations (for flops/message ratios). */
    uint64_t flops() const { return op(Op::fop); }
};

} // namespace tam
} // namespace tcpni

#endif // TCPNI_TAM_TAM_HH
