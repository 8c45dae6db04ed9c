#include "cpu/cpu.hh"

#include "common/logging.hh"
#include "common/trace.hh"
#include "ni/placement_policy.hh"
#include "noc/message.hh"

namespace tcpni
{

using isa::Instruction;
using isa::Opcode;

Cpu::Cpu(std::string name, EventQueue &eq, Memory &mem,
         ni::NetworkInterface *ni, CpuConfig config)
    : SimObject(std::move(name), eq), mem_(mem), ni_(ni),
      config_(config), tickEvent_(*this)
{
    regMappedNi_ = ni_ && ni_->config().policy().registerMapped();
    if (ni_) {
        ni_->setInterruptSink([this](Word handler) {
            // Latched here; taken at the next instruction boundary.
            pendingInterrupt_ = handler;
        });
    }

    if (auto *r = metrics::registry()) {
        mgroup_ = r->addGroup(this->name(), eq);
        mgroup_->addCounter("instructions",
                            [this] { return instructions_; },
                            "instructions retired");
        mgroup_->addCounter("cycles", [this] { return cycles_; },
                            "cycles consumed (issue + stalls)");
        mgroup_->addCounter("stall_cycles",
                            [this] { return stallCycles_; },
                            "load-use interlock stall cycles");
        mgroup_->addCounter("ni_stall_cycles",
                            [this] { return niStallCycles_; },
                            "cycles stalled on NI SEND (full queue)");
        mgroup_->addCounter("interrupts_taken",
                            [this] { return interruptsTaken_; },
                            "message-arrival interrupts taken");
    }
}

Cpu::~Cpu()
{
    if (mgroup_)
        mgroup_->retire();
}

void
Cpu::loadProgram(const isa::Program &prog)
{
    for (size_t i = 0; i < prog.words.size(); ++i)
        mem_.write(prog.base + static_cast<Addr>(i * 4), prog.words[i]);
    regions_.load(prog);
}

void
Cpu::reset(Addr pc)
{
    for (unsigned r = 0; r < isa::numRegs; ++r) {
        regs_[r] = 0;
        readyAt_[r] = 0;
    }
    pc_ = pc;
    branchTarget_.reset();
    pendingInterrupt_.reset();
    halted_ = false;
    instructions_ = cycles_ = stallCycles_ = niStallCycles_ = 0;
    interruptsTaken_ = 0;
    regions_.clearCounts();
}

void
Cpu::start()
{
    tcpni_assert(!halted_);
    if (!tickEvent_.scheduled())
        eventq().schedule(&tickEvent_, curTick());
}

bool
Cpu::isNiAliasedReg(unsigned r) const
{
    return regMappedNi_ && r >= isa::niRegBase &&
           r < isa::niRegBase + ni::numNiRegs;
}

Word
Cpu::readGpr(unsigned r)
{
    if (r == 0)
        return 0;
    if (isNiAliasedReg(r))
        return ni_->readReg(r - isa::niRegBase);
    return regs_[r];
}

void
Cpu::writeGpr(unsigned r, Word value, Tick ready_at)
{
    if (r == 0)
        return;
    if (isNiAliasedReg(r)) {
        // NI registers are wired into the register file; results are
        // visible to the interface immediately and never interlock.
        ni_->writeReg(r - isa::niRegBase, value);
        return;
    }
    regs_[r] = value;
    readyAt_[r] = ready_at;
}

Tick
Cpu::readyTick(const Instruction &inst) const
{
    Tick ready = curTick();
    auto consider = [&](unsigned r) {
        if (r == 0 || isNiAliasedReg(r))
            return;
        if (readyAt_[r] > ready)
            ready = readyAt_[r];
    };
    if (isa::readsRs1(inst.op))
        consider(inst.rs1);
    if (isa::readsRs2(inst.op))
        consider(inst.rs2);
    if (isa::readsRdAsSource(inst.op))
        consider(inst.rd);
    return ready;
}

std::map<std::string, uint64_t>
Cpu::regionCycles() const
{
    return regions_.cycles();
}

std::map<std::string, uint64_t>
Cpu::regionInstructions() const
{
    return regions_.instructions();
}

Word
Cpu::reg(unsigned r) const
{
    tcpni_assert(r < isa::numRegs);
    if (r == 0)
        return 0;
    if (isNiAliasedReg(r))
        return const_cast<Cpu *>(this)->ni_->readReg(r - isa::niRegBase);
    return regs_[r];
}

void
Cpu::setReg(unsigned r, Word value)
{
    tcpni_assert(r < isa::numRegs);
    writeGpr(r, value, curTick());
}

void
Cpu::tick()
{
    if (halted_)
        return;

    const Tick now = curTick();

    // Take a pending message interrupt at an instruction boundary
    // (never inside a branch shadow): save the return address in the
    // interrupt link register and redirect to the handler.
    if (pendingInterrupt_ && !branchTarget_) {
        TCPNI_TRACE(CPU, "interrupt: handler entry 0x%08x "
                    "(return 0x%08x)", *pendingInterrupt_, pc_);
        writeGpr(intLinkReg, pc_, now + 1);
        pc_ = *pendingInterrupt_;
        pendingInterrupt_.reset();
        ++interruptsTaken_;
        ++cycles_;
        regions_.chargeCycles(pc_, 1);
        eventq().schedule(&tickEvent_, now + 1);
        return;
    }

    Word raw = mem_.read(pc_);
    Instruction inst = isa::decode(raw);

    // Operand interlocks.
    Tick ready = readyTick(inst);
    if (ready > now) {
        uint64_t stall = ready - now;
        stallCycles_ += stall;
        cycles_ += stall;
        regions_.chargeCycles(pc_, stall);
        eventq().schedule(&tickEvent_, ready);
        return;
    }

    if (config_.trace) {
        inform("%s %6llu  pc=%08x  %s", name().c_str(),
               static_cast<unsigned long long>(now), pc_,
               isa::disassemble(inst).c_str());
    }
    TCPNI_TRACE(CPU, "pc=0x%08x %s", pc_,
                isa::disassemble(inst).c_str());

    const Addr ipc = pc_;
    if (!execute(inst)) {
        // SEND against a full output queue with the stall policy:
        // retry the whole instruction next cycle.
        ++niStallCycles_;
        ++cycles_;
        regions_.chargeCycles(ipc, 1);
        eventq().schedule(&tickEvent_, now + 1);
        return;
    }

    ++instructions_;
    ++cycles_;
    regions_.chargeCycles(ipc, 1);
    regions_.countInstruction(ipc);

    if (instructions_ > config_.maxInstructions)
        panic("CPU '%s' exceeded %llu instructions; runaway program?",
              name().c_str(),
              static_cast<unsigned long long>(config_.maxInstructions));

    if (halted_)
        return;

    eventq().schedule(&tickEvent_, now + 1);
}

bool
Cpu::execute(const Instruction &inst)
{
    const Tick now = curTick();

    // Pre-check NI command stalls so that a retried instruction has no
    // double side effects.
    if (inst.ni.mode != isa::SendMode::none) {
        if (!regMappedNi_)
            panic("NI instruction bits require the register-file "
                  "coupling (pc=0x%08x)", pc_);
        if (ni_->sendWouldStall(inst.ni.mode))
            return false;
    }
    if (inst.ni.next && !regMappedNi_)
        panic("NI instruction bits require the register-file coupling "
              "(pc=0x%08x)", pc_);

    // Compute the next PC.  The instruction after a branch (its delay
    // slot) always executes; branchTarget_ holds the redirect that
    // applies after the delay slot.  The entry value is kept so a
    // stall discovered after this point (a transport-policy hold
    // against a destination the instruction itself just wrote) can
    // rewind the consumed delay slot and retry cleanly.
    const std::optional<Addr> resumed_branch = branchTarget_;
    std::optional<Addr> new_target;
    Addr next_pc;
    if (branchTarget_) {
        next_pc = *branchTarget_;
        branchTarget_.reset();
        if (isa::isBranch(inst.op))
            panic("branch in a delay slot at pc=0x%08x", pc_);
    } else {
        next_pc = pc_ + 4;
    }

    auto alu = [&](Word result) { writeGpr(inst.rd, result, now + 1); };

    switch (inst.op) {
      case Opcode::add:
        alu(readGpr(inst.rs1) + readGpr(inst.rs2));
        break;
      case Opcode::sub:
        alu(readGpr(inst.rs1) - readGpr(inst.rs2));
        break;
      case Opcode::and_:
        alu(readGpr(inst.rs1) & readGpr(inst.rs2));
        break;
      case Opcode::or_:
        alu(readGpr(inst.rs1) | readGpr(inst.rs2));
        break;
      case Opcode::xor_:
        alu(readGpr(inst.rs1) ^ readGpr(inst.rs2));
        break;
      case Opcode::sll:
        alu(readGpr(inst.rs1) << (readGpr(inst.rs2) & 31));
        break;
      case Opcode::srl:
        alu(readGpr(inst.rs1) >> (readGpr(inst.rs2) & 31));
        break;
      case Opcode::sra:
        alu(static_cast<Word>(static_cast<int32_t>(readGpr(inst.rs1)) >>
                              (readGpr(inst.rs2) & 31)));
        break;
      case Opcode::slt:
        alu(static_cast<int32_t>(readGpr(inst.rs1)) <
                    static_cast<int32_t>(readGpr(inst.rs2))
                ? 1 : 0);
        break;
      case Opcode::sltu:
        alu(readGpr(inst.rs1) < readGpr(inst.rs2) ? 1 : 0);
        break;
      case Opcode::mul:
        alu(readGpr(inst.rs1) * readGpr(inst.rs2));
        break;
      case Opcode::addi:
        alu(readGpr(inst.rs1) + static_cast<Word>(inst.imm));
        break;
      case Opcode::andi:
        alu(readGpr(inst.rs1) & static_cast<Word>(inst.imm));
        break;
      case Opcode::ori:
        alu(readGpr(inst.rs1) | static_cast<Word>(inst.imm));
        break;
      case Opcode::xori:
        alu(readGpr(inst.rs1) ^ static_cast<Word>(inst.imm));
        break;
      case Opcode::lui:
        alu(static_cast<Word>(inst.imm) << 16);
        break;
      case Opcode::slli:
        alu(readGpr(inst.rs1) << (inst.imm & 31));
        break;
      case Opcode::srli:
        alu(readGpr(inst.rs1) >> (inst.imm & 31));
        break;

      case Opcode::ld:
      case Opcode::ldi: {
        Word base = readGpr(inst.rs1);
        Word off = inst.op == Opcode::ld ? readGpr(inst.rs2)
                                         : static_cast<Word>(inst.imm);
        Word vaddr = base + off;
        if (ni_ && ni::NetworkInterface::isNiAddr(vaddr)) {
            if (regMappedNi_)
                panic("cache-mapped NI access with a register-mapped "
                      "interface (pc=0x%08x)", pc_);
            // Pre-check the SEND stall before any side effect.
            auto mode = static_cast<isa::SendMode>(
                bits(vaddr, ni::cmdaddr::modeShift + 1,
                     ni::cmdaddr::modeShift));
            if (mode != isa::SendMode::none && ni_->sendWouldStall(mode))
                return false;
            Word result = 0;
            ni::CmdResult res = ni_->access(vaddr, 0, false, result);
            if (res == ni::CmdResult::stall) {
                branchTarget_ = resumed_branch;
                return false;
            }
            tcpni_assert(res == ni::CmdResult::ok);
            writeGpr(inst.rd, result,
                     now + 1 + ni_->config().loadUseDelay());
        } else {
            // The node-id bits of a global address to local memory are
            // this node's own id; the memory system ignores them.
            Word val = mem_.read(localOf(vaddr));
            writeGpr(inst.rd, val, now + 1 + config_.memLoadUseDelay);
        }
        break;
      }

      case Opcode::st:
      case Opcode::sti: {
        Word base = readGpr(inst.rs1);
        Word off = inst.op == Opcode::st ? readGpr(inst.rs2)
                                         : static_cast<Word>(inst.imm);
        Word vaddr = base + off;
        Word data = readGpr(inst.rd);
        if (ni_ && ni::NetworkInterface::isNiAddr(vaddr)) {
            if (regMappedNi_)
                panic("cache-mapped NI access with a register-mapped "
                      "interface (pc=0x%08x)", pc_);
            auto mode = static_cast<isa::SendMode>(
                bits(vaddr, ni::cmdaddr::modeShift + 1,
                     ni::cmdaddr::modeShift));
            if (mode != isa::SendMode::none && ni_->sendWouldStall(mode))
                return false;
            Word dummy = 0;
            ni::CmdResult res = ni_->access(vaddr, data, true, dummy);
            if (res == ni::CmdResult::stall) {
                // The store may have rewritten the very register the
                // SEND composes its destination from, so the pre-check
                // above can be stale.  The store is idempotent; rewind
                // the delay slot and retry the whole instruction.
                branchTarget_ = resumed_branch;
                return false;
            }
            tcpni_assert(res == ni::CmdResult::ok);
        } else {
            mem_.write(localOf(vaddr), data);
        }
        break;
      }

      case Opcode::jmp: {
        Word target = readGpr(inst.rs1);
        if (inst.rd != 0)
            writeGpr(inst.rd, pc_ + 8, now + 1);
        new_target = target;
        break;
      }

      case Opcode::br: {
        Addr target = pc_ + 4 + static_cast<Addr>(inst.imm) * 4;
        if (inst.rd != 0)
            writeGpr(inst.rd, pc_ + 8, now + 1);
        new_target = target;
        break;
      }

      case Opcode::beqz:
      case Opcode::bnez:
      case Opcode::bltz:
      case Opcode::bgez: {
        Word v = readGpr(inst.rs1);
        bool taken = false;
        switch (inst.op) {
          case Opcode::beqz: taken = v == 0; break;
          case Opcode::bnez: taken = v != 0; break;
          case Opcode::bltz:
            taken = static_cast<int32_t>(v) < 0;
            break;
          default:
            taken = static_cast<int32_t>(v) >= 0;
            break;
        }
        if (taken)
            new_target = pc_ + 4 + static_cast<Addr>(inst.imm) * 4;
        break;
      }

      case Opcode::halt:
        TCPNI_TRACE(CPU, "halt after %llu instructions",
                    static_cast<unsigned long long>(instructions_ + 1));
        halted_ = true;
        return true;
    }

    // Execute folded NI commands after the instruction's own
    // operation, in SEND-then-NEXT order.
    if (inst.ni.any()) {
        ni::CmdResult res = ni_->command(inst.ni);
        if (res == ni::CmdResult::stall) {
            // The instruction body may have rewritten the o-register
            // the SEND addresses with, making the pre-check stale; a
            // transport-policy hold then only surfaces here.  The ALU
            // write is idempotent; rewind the delay slot and retry.
            branchTarget_ = resumed_branch;
            return false;
        }
        tcpni_assert(res == ni::CmdResult::ok);
    }

    pc_ = next_pc;
    if (new_target)
        branchTarget_ = new_target;
    return true;
}

} // namespace tcpni
