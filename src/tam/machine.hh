/**
 * @file
 * The sequential TAM interpreter: activation frames, the LIFO thread
 * scheduler, message accounting, remote cells and the I-structure
 * element store (see tam.hh for the methodology).
 */

#ifndef TCPNI_TAM_MACHINE_HH
#define TCPNI_TAM_MACHINE_HH

#include <memory>
#include <vector>

#include "common/random.hh"
#include "tam/tam.hh"

namespace tcpni
{
namespace tam
{

/** An activation frame. */
class Frame
{
  public:
    Frame(uint32_t id, const CodeBlock *cb)
        : locals(cb->numLocals, 0.0), id_(id), cb_(cb)
    {}

    std::vector<Value> locals;

    uint32_t id() const { return id_; }
    const CodeBlock *codeBlock() const { return cb_; }
    bool freed() const { return freed_; }

  private:
    friend class Machine;

    uint32_t id_;
    const CodeBlock *cb_;
    bool freed_ = false;
};

/** Machine configuration. */
struct MachineConfig
{
    uint64_t maxSteps = 2'000'000'000;  //!< runaway guard (ops)
};

/** The sequential TAM machine. */
class Machine
{
  public:
    explicit Machine(MachineConfig config = {});
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** @{ Accounting primitives: threads and inlets report the work
     *     they perform. */
    void iop(unsigned n = 1) { count(Op::iop, n); }
    void fop(unsigned n = 1) { count(Op::fop, n); }
    void move(unsigned n = 1) { count(Op::move, n); }
    /** @} */

    /** @{ Frame-slot access (counted). */
    Value
    frameGet(Frame &f, unsigned slot)
    {
        count(Op::frameLoad);
        if (slot >= f.locals.size())
            slotOutOfRange(f, slot);
        return f.locals[slot];
    }

    void
    frameSet(Frame &f, unsigned slot, Value v)
    {
        count(Op::frameStore);
        if (slot >= f.locals.size())
            slotOutOfRange(f, slot);
        f.locals[slot] = v;
    }
    /** @} */

    /** Allocate an activation frame. */
    Frame &falloc(const CodeBlock *cb);

    /** Release a frame (it must not be referenced afterwards). */
    void ffree(Frame &f);

    /** Enable a thread of @p f (LIFO scheduling). */
    void fork(Frame &f, unsigned thread);

    /**
     * Decrement the synchronization counter in @p slot; when it
     * reaches zero, enable @p thread.
     */
    void syncDec(Frame &f, unsigned slot, unsigned thread);

    /** Continuation pointing at an inlet of @p f. */
    Continuation
    cont(const Frame &f, unsigned inlet) const
    {
        return {f.id(), static_cast<uint16_t>(inlet)};
    }

    /** @{ Messaging: each call is one network message event.  The
     *     sequential machine delivers immediately. */

    /** SEND 0..2 data words to a continuation (argument/result
     *  passing; also the format of all replies). */
    void send(Continuation c, const Payload &vals);

    /** Remote read of a cell; the value arrives via @p c as a
     *  1-word Send reply. */
    void remoteRead(CellRef cell, Continuation c);

    /** Remote write of a cell. */
    void remoteWrite(CellRef cell, Value v);

    /** I-structure fetch; the value arrives via @p c (immediately if
     *  FULL, or when the producing istore executes).  One lookup both
     *  classifies the PRead and reads or queues. */
    void ifetch(ArrayRef array, size_t idx, Continuation c);

    /** I-structure store; releases any deferred readers in arrival
     *  order.  A second store to an element panics. */
    void istore(ArrayRef array, size_t idx, Value v);
    /** @} */

    /** @{ Heap management (not counted as messages). */
    ArrayRef heapAlloc(size_t nelems);
    CellRef cellAlloc(Value initial = 0);
    Value cellValue(CellRef cell) const;
    /** Peek a FULL array element (verification only); panics on an
     *  EMPTY or DEFERRED one. */
    Value arrayPeek(ArrayRef array, size_t idx) const;
    Presence arrayState(ArrayRef array, size_t idx) const;
    /** @} */

    /** Seed of rng(); Figure 12's Gamteb counts are pinned to it. */
    static constexpr uint64_t rngSeed = 42;

    /** Deterministic RNG for stochastic workloads (Gamteb). */
    Random &rng() { return rng_; }

    /** Run the scheduler until no threads remain enabled. */
    void run();

    const TamStats &stats() const { return stats_; }
    Frame &frame(uint32_t id);

    uint32_t liveFrames() const { return liveFrames_; }

  private:
    struct WorkItem
    {
        uint32_t frame;
        unsigned thread;
    };

    void
    count(Op op, unsigned n = 1)
    {
        stats_.ops[static_cast<size_t>(op)] += n;
        steps_ += n;
        if (steps_ > config_.maxSteps)
            runaway();
    }

    /** @{ The panics of the inline accessors, kept out of line. */
    [[noreturn]] void runaway() const;
    [[noreturn]] static void slotOutOfRange(const Frame &f,
                                            unsigned slot);
    /** @} */

    /** One I-structure element: its presence, its value once FULL
     *  and the readers queued on it, in arrival order. */
    struct Elem
    {
        Presence state = Presence::empty;
        Value value = 0;
        std::vector<Continuation> waiters;
    };

    /** The element @p idx of @p array; @p op names the caller in the
     *  panic for an unknown array or an out-of-range index. */
    Elem &elem(ArrayRef array, size_t idx, const char *op);
    const Elem &elem(ArrayRef array, size_t idx, const char *op) const;

    void deliver(Continuation c, const Payload &vals);

    MachineConfig config_;
    TamStats stats_;
    Random rng_;

    std::vector<std::unique_ptr<Frame>> frames_;
    std::vector<WorkItem> stack_;
    /** The I-structure arrays, indexed by ArrayRef::id: the machine
     *  is the one store of each element's presence, value and
     *  deferred readers. */
    std::vector<std::vector<Elem>> arrays_;
    std::vector<Value> cells_;
    uint32_t liveFrames_ = 0;
    uint64_t steps_ = 0;
};

} // namespace tam
} // namespace tcpni

#endif // TCPNI_TAM_MACHINE_HH
