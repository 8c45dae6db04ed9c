#include "tam/machine.hh"

#include "common/logging.hh"
#include "common/trace.hh"
#include "tam/expand.hh"

namespace tcpni
{
namespace tam
{

std::string
opName(Op op)
{
    switch (op) {
      case Op::iop: return "iop";
      case Op::fop: return "fop";
      case Op::move: return "move";
      case Op::frameLoad: return "frame_load";
      case Op::frameStore: return "frame_store";
      case Op::ctlFork: return "ctl_fork";
      case Op::ctlSwitch: return "ctl_switch";
      case Op::syncDec: return "sync_dec";
      case Op::falloc: return "falloc";
      case Op::ffree: return "ffree";
      case Op::numOps: break;
    }
    return "?";
}

std::string
msgKindName(MsgKind k)
{
    return commRows[static_cast<size_t>(k)].name;
}

uint64_t
TamStats::totalMessages() const
{
    uint64_t total = 0;
    for (uint64_t m : msgs)
        total += m;
    return total + replies;
}

Machine::Machine(MachineConfig config)
    : config_(config), rng_(rngSeed)
{
}

Machine::~Machine() = default;

void
Payload::tooMany(size_t n)
{
    panic("send with %zu data words (max %zu in a 5-word message)", n,
          capacity);
}

void
Payload::notCarried(size_t i) const
{
    panic("inlet read data word %zu of a %u-word message", i,
          static_cast<unsigned>(n_));
}

void
Machine::runaway() const
{
    panic("TAM machine exceeded %llu steps; runaway program?",
          static_cast<unsigned long long>(config_.maxSteps));
}

void
Machine::slotOutOfRange(const Frame &f, unsigned slot)
{
    panic("frame %u slot %u out of range (%zu locals) in '%s'", f.id(),
          slot, f.locals.size(), f.codeBlock()->name.c_str());
}

Frame &
Machine::falloc(const CodeBlock *cb)
{
    count(Op::falloc);
    uint32_t id = static_cast<uint32_t>(frames_.size());
    frames_.push_back(std::make_unique<Frame>(id, cb));
    ++liveFrames_;
    return *frames_.back();
}

void
Machine::ffree(Frame &f)
{
    count(Op::ffree);
    if (f.freed_)
        panic("double ffree of frame %u ('%s')", f.id(),
              f.codeBlock()->name.c_str());
    f.freed_ = true;
    --liveFrames_;
}

Frame &
Machine::frame(uint32_t id)
{
    if (id >= frames_.size())
        panic("unknown frame id %u", id);
    Frame &f = *frames_[id];
    if (f.freed_)
        panic("access to freed frame %u ('%s')", id,
              f.codeBlock()->name.c_str());
    return f;
}

void
Machine::fork(Frame &f, unsigned thread)
{
    count(Op::ctlFork);
    if (thread >= f.codeBlock()->threads.size())
        panic("fork of nonexistent thread %u in '%s'", thread,
              f.codeBlock()->name.c_str());
    stack_.push_back({f.id(), thread});
}

void
Machine::syncDec(Frame &f, unsigned slot, unsigned thread)
{
    count(Op::syncDec);
    if (slot >= f.locals.size())
        panic("sync slot %u out of range in '%s'", slot,
              f.codeBlock()->name.c_str());
    f.locals[slot] -= 1.0;
    if (f.locals[slot] < -0.5)
        panic("sync counter underflow in '%s' slot %u",
              f.codeBlock()->name.c_str(), slot);
    if (f.locals[slot] < 0.5)
        fork(f, thread);
}

Machine::Elem &
Machine::elem(ArrayRef array, size_t idx, const char *op)
{
    return const_cast<Elem &>(
        static_cast<const Machine *>(this)->elem(array, idx, op));
}

const Machine::Elem &
Machine::elem(ArrayRef array, size_t idx, const char *op) const
{
    if (array.id >= arrays_.size())
        panic("%s of unknown array %u", op, array.id);
    const std::vector<Elem> &elems = arrays_[array.id];
    if (idx >= elems.size())
        panic("%s of I-structure index %zu out of range (array %u, "
              "size %zu)", op, idx, array.id, elems.size());
    return elems[idx];
}

void
Machine::deliver(Continuation c, const Payload &vals)
{
    Frame &f = frame(c.frame);
    const CodeBlock *cb = f.codeBlock();
    if (c.inlet >= cb->inlets.size())
        panic("message to nonexistent inlet %u of '%s'", c.inlet,
              cb->name.c_str());
    cb->inlets[c.inlet](*this, f, vals);
}

void
Machine::send(Continuation c, const Payload &vals)
{
    // Payload itself rejects a third data word.
    MsgKind kind = vals.size() == 0   ? MsgKind::send0
                   : vals.size() == 1 ? MsgKind::send1
                                      : MsgKind::send2;
    ++stats_.msgs[static_cast<size_t>(kind)];
    TCPNI_TRACE_AT(TAM, steps_, "tam", "send%zu to frame %u inlet %u",
                   vals.size(), c.frame, c.inlet);
    deliver(c, vals);
}

void
Machine::remoteRead(CellRef cell, Continuation c)
{
    ++stats_.msgs[static_cast<size_t>(MsgKind::read)];
    TCPNI_TRACE_AT(TAM, steps_, "tam", "read cell %u -> frame %u "
                   "inlet %u", cell.id, c.frame, c.inlet);
    if (cell.id >= cells_.size())
        panic("remoteRead of unknown cell %u", cell.id);
    // The remote handler replies with a 1-word Send.
    ++stats_.replies;
    deliver(c, {cells_[cell.id]});
}

void
Machine::remoteWrite(CellRef cell, Value v)
{
    ++stats_.msgs[static_cast<size_t>(MsgKind::write)];
    TCPNI_TRACE_AT(TAM, steps_, "tam", "write cell %u", cell.id);
    if (cell.id >= cells_.size())
        panic("remoteWrite of unknown cell %u", cell.id);
    cells_[cell.id] = v;
}

void
Machine::ifetch(ArrayRef array, size_t idx, Continuation c)
{
    Elem &e = elem(array, idx, "ifetch");

    // Classify the access the way Mint classified the paper's PReads.
    const Presence before = e.state;
    MsgKind kind = before == Presence::full     ? MsgKind::preadFull
                   : before == Presence::empty  ? MsgKind::preadEmpty
                                                : MsgKind::preadDeferred;
    ++stats_.msgs[static_cast<size_t>(kind)];
    TCPNI_TRACE_AT(TAM, steps_, "tam", "pread array %u[%zu] %s",
                   array.id, idx,
                   before == Presence::full
                       ? "FULL -> reply"
                       : before == Presence::empty
                             ? "EMPTY -> DEFERRED (reader queued)"
                             : "DEFERRED -> reader appended");

    if (before == Presence::full) {
        // Immediate 1-word Send reply from the element's home node.
        ++stats_.replies;
        deliver(c, {e.value});
        return;
    }
    e.waiters.push_back(c);
    e.state = Presence::deferred;
}

void
Machine::istore(ArrayRef array, size_t idx, Value v)
{
    Elem &e = elem(array, idx, "istore");

    // The PWrite is a message even when it breaks single assignment.
    ++stats_.msgs[static_cast<size_t>(MsgKind::pwrite)];
    if (e.state == Presence::full)
        panic("I-structure element %zu of array %u written twice", idx,
              array.id);
    TCPNI_TRACE_AT(TAM, steps_, "tam", "pwrite array %u[%zu] %s -> "
                   "FULL (releases %zu deferred readers)", array.id,
                   idx, e.waiters.empty() ? "EMPTY" : "DEFERRED",
                   e.waiters.size());

    e.state = Presence::full;
    e.value = v;
    if (e.waiters.empty())
        return;
    // Take the list first: the readers' inlets may fetch this element
    // again (it is FULL now) or allocate arrays.
    std::vector<Continuation> readers = std::move(e.waiters);
    ++stats_.pwriteWithDeferred;
    stats_.pwriteReleases += readers.size();
    for (Continuation reader : readers) {
        ++stats_.replies;
        deliver(reader, {v});
    }
}

ArrayRef
Machine::heapAlloc(size_t nelems)
{
    uint32_t id = static_cast<uint32_t>(arrays_.size());
    arrays_.emplace_back(nelems);
    return {id};
}

CellRef
Machine::cellAlloc(Value initial)
{
    uint32_t id = static_cast<uint32_t>(cells_.size());
    cells_.push_back(initial);
    return {id};
}

Value
Machine::cellValue(CellRef cell) const
{
    if (cell.id >= cells_.size())
        panic("unknown cell %u", cell.id);
    return cells_[cell.id];
}

Value
Machine::arrayPeek(ArrayRef array, size_t idx) const
{
    const Elem &e = elem(array, idx, "arrayPeek");
    if (e.state != Presence::full)
        panic("arrayPeek of non-full element %zu of array %u", idx,
              array.id);
    return e.value;
}

Presence
Machine::arrayState(ArrayRef array, size_t idx) const
{
    return elem(array, idx, "arrayState").state;
}

void
Machine::run()
{
    while (!stack_.empty()) {
        WorkItem item = stack_.back();
        stack_.pop_back();
        count(Op::ctlSwitch);
        Frame &f = frame(item.frame);
        f.codeBlock()->threads[item.thread](*this, f);
    }
}

} // namespace tam
} // namespace tcpni
