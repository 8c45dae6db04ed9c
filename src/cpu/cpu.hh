/**
 * @file
 * An in-order, single-issue RISC processor timing model in the style of
 * the Motorola 88100 the paper hand-counts cycles for.
 *
 * Timing rules (Section 4.1's counting model):
 *
 *  - one instruction issues per cycle;
 *  - a loaded value is not available to a subsequent instruction until
 *    load-use-delay extra cycles have elapsed: 0 for the local data
 *    cache and the on-chip interface, 2 (configurable; Section 4.2.3
 *    studies 8) for the off-chip interface.  An instruction that needs
 *    a value too early interlocks, and the stall cycles are charged to
 *    its cost region;
 *  - branches and jumps have one delay slot which always executes;
 *  - reads of register-mapped NI registers are ordinary register reads
 *    and never interlock.
 *
 * Coupling to the network interface:
 *
 *  - register-file placement: r16..r30 alias the NI registers, and the
 *    NEXT/SEND command bits of triadic instructions are forwarded to
 *    the NI after the instruction's own operation completes;
 *  - cache-mapped placements: loads/stores whose effective address
 *    falls in the 0xffff0000 window are routed to
 *    NetworkInterface::access(), executing any Figure-9 encoded
 *    commands.
 *
 * A SEND against a full output queue under the stall policy holds the
 * instruction at issue, retrying each cycle, exactly like the paper's
 * "stall the processor until the output queue empties".
 *
 * Cost regions: every instruction belongs to the `.region` its source
 * line was tagged with in the assembler; the cycles (including stalls)
 * it consumes are accumulated per region.  The Table-1 harness tags its
 * kernels with "sending" / "dispatching" / "processing" regions.
 */

#ifndef TCPNI_CPU_CPU_HH
#define TCPNI_CPU_CPU_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "isa/region_table.hh"
#include "mem/memory.hh"
#include "ni/network_interface.hh"
#include "sim/sim_object.hh"

namespace tcpni
{

/** CPU configuration. */
struct CpuConfig
{
    /** Extra load-use delay for local memory loads (88100 data cache
     *  loads are usable the next cycle, so 0). */
    Cycles memLoadUseDelay = 0;

    /** Upper bound on executed instructions; exceeding it panics.
     *  Guards tests and kernels against runaway loops. */
    uint64_t maxInstructions = 100'000'000;

    /** Emit a disassembly trace of every executed instruction. */
    bool trace = false;
};

/** Interrupt link register: a taken message interrupt saves the
 *  return address here (handlers end with `jmp r14`). */
constexpr unsigned intLinkReg = 14;

/** The processor model. */
class Cpu : public SimObject
{
  public:
    /**
     * @param ni  the node's network interface, or nullptr for a CPU
     *            with no network coupling (pure-ISA tests)
     */
    Cpu(std::string name, EventQueue &eq, Memory &mem,
        ni::NetworkInterface *ni, CpuConfig config = {});
    ~Cpu() override;

    /** Copy a program image into memory and adopt its cost regions. */
    void loadProgram(const isa::Program &prog);

    /** Reset architectural state and set the PC. */
    void reset(Addr pc);

    /** Begin execution (schedules the first tick). */
    void start();

    bool halted() const { return halted_; }

    /** @{ Architectural state access for harnesses and tests. */
    Word reg(unsigned r) const;
    void setReg(unsigned r, Word value);
    Addr pc() const { return pc_; }
    /** @} */

    /** @{ Accounting. */
    uint64_t instructions() const { return instructions_; }
    uint64_t cycles() const { return cycles_; }
    uint64_t stallCycles() const { return stallCycles_; }
    uint64_t niStallCycles() const { return niStallCycles_; }
    uint64_t interruptsTaken() const { return interruptsTaken_; }

    /** Cycles charged to each named cost region. */
    std::map<std::string, uint64_t> regionCycles() const;

    /** Instructions charged to each named cost region. */
    std::map<std::string, uint64_t> regionInstructions() const;
    /** @} */

  private:
    class TickEvent : public Event
    {
      public:
        explicit TickEvent(Cpu &cpu) : Event(cpuPri), cpu_(cpu) {}
        void process() override { cpu_.tick(); }
        std::string name() const override { return "cpu-tick"; }

      private:
        Cpu &cpu_;
    };

    void tick();

    /** Execute @p inst; returns false if the instruction must retry
     *  (NI send stall). */
    bool execute(const isa::Instruction &inst);

    /** True if GPR @p r aliases an NI register in this coupling. */
    bool isNiAliasedReg(unsigned r) const;

    Word readGpr(unsigned r);
    void writeGpr(unsigned r, Word value, Tick ready_at);

    /** Earliest tick at which @p inst can issue (interlocks). */
    Tick readyTick(const isa::Instruction &inst) const;

    Memory &mem_;
    ni::NetworkInterface *ni_;
    CpuConfig config_;
    bool regMappedNi_ = false;

    Word regs_[isa::numRegs] = {};
    Tick readyAt_[isa::numRegs] = {};
    Addr pc_ = 0;
    std::optional<Addr> branchTarget_;  //!< pending after delay slot
    /** Handler address of a message-arrival interrupt awaiting an
     *  instruction boundary (interrupt-driven reception). */
    std::optional<Word> pendingInterrupt_;
    bool halted_ = true;

    uint64_t instructions_ = 0;
    uint64_t cycles_ = 0;
    uint64_t stallCycles_ = 0;
    uint64_t niStallCycles_ = 0;
    uint64_t interruptsTaken_ = 0;

    /** Cost regions of the loaded programs. */
    isa::RegionTable regions_;

    TickEvent tickEvent_;

    /** Telemetry group; null unless a metrics registry was installed
     *  when this CPU was constructed. */
    std::shared_ptr<metrics::Group> mgroup_;
};

} // namespace tcpni

#endif // TCPNI_CPU_CPU_HH
