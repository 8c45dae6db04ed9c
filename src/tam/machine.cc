#include "tam/machine.hh"

#include "common/logging.hh"
#include "common/trace.hh"

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
    switch (k) {
      case MsgKind::send0: return "send0";
      case MsgKind::send1: return "send1";
      case MsgKind::send2: return "send2";
      case MsgKind::read: return "read";
      case MsgKind::write: return "write";
      case MsgKind::preadFull: return "pread_full";
      case MsgKind::preadEmpty: return "pread_empty";
      case MsgKind::preadDeferred: return "pread_deferred";
      case MsgKind::pwrite: return "pwrite";
      case MsgKind::numKinds: break;
    }
    return "?";
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
    : config_(config), rng_(config.rngSeed)
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
    NodeId node = nextNode_;
    nextNode_ = (nextNode_ + 1) % config_.numNodes;
    frames_.push_back(std::make_unique<Frame>(id, cb, node));
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
    if (array.id >= arrays_.size())
        panic("ifetch of unknown array %u", array.id);
    IStructMemory &mem = *arrays_[array.id];

    // Classify the access the way Mint classified the paper's PReads.
    Presence before = mem.state(idx);
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

    IReadResult r = mem.read(idx, c.frame, c.inlet);
    if (r.full) {
        // Immediate 1-word Send reply from the element's home node.
        // The exact value lives in the shadow (see istore()).
        ++stats_.replies;
        deliver(c, {shadow_[array.id][idx]});
    }
}

void
Machine::istore(ArrayRef array, size_t idx, Value v)
{
    if (array.id >= arrays_.size())
        panic("istore of unknown array %u", array.id);
    IStructMemory &mem = *arrays_[array.id];

    ++stats_.msgs[static_cast<size_t>(MsgKind::pwrite)];

    // I-structure values are word-encoded; the workloads store either
    // small integers or scaled fixed-point floats.  We keep the exact
    // double alongside in a shadow so numeric verification is exact,
    // while the IStructMemory tracks presence and continuations.
    IWriteResult w = mem.write(idx, 0);
    shadow_[array.id][idx] = v;
    TCPNI_TRACE_AT(TAM, steps_, "tam", "pwrite array %u[%zu] %s -> "
                   "FULL (releases %zu deferred readers)", array.id,
                   idx, w.readers.empty() ? "EMPTY" : "DEFERRED",
                   w.readers.size());

    if (!w.readers.empty()) {
        ++stats_.pwriteWithDeferred;
        stats_.pwriteReleases += w.readers.size();
    }
    for (const DeferredReader &reader : w.readers) {
        ++stats_.replies;
        deliver({reader.fp, static_cast<uint16_t>(reader.ip)}, {v});
    }
}

ArrayRef
Machine::heapAlloc(size_t nelems)
{
    uint32_t id = static_cast<uint32_t>(arrays_.size());
    arrays_.push_back(std::make_unique<IStructMemory>(nelems));
    shadow_.emplace_back(nelems, 0.0);
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
    if (array.id >= arrays_.size())
        panic("unknown array %u", array.id);
    if (arrays_[array.id]->state(idx) != Presence::full)
        panic("arrayPeek of non-full element %zu", idx);
    return shadow_[array.id][idx];
}

Presence
Machine::arrayState(ArrayRef array, size_t idx) const
{
    if (array.id >= arrays_.size())
        panic("unknown array %u", array.id);
    return arrays_[array.id]->state(idx);
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
