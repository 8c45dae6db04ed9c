#include <gtest/gtest.h>

#include <memory>

#include "cpu/cpu.hh"
#include "isa/assembler.hh"
#include "ni/ni_regs.hh"
#include "noc/network.hh"

using namespace tcpni;

namespace
{

/** Assemble, load, run to halt; exposes the CPU for inspection.  With
 *  @p ni_cfg the CPU is coupled to an interface of that configuration
 *  (and the source may use the NI_* symbols). */
struct Runner
{
    EventQueue eq;
    IdealNetwork net{"net", eq, 1};
    Memory mem{64 * 1024};
    std::unique_ptr<ni::NetworkInterface> ni;
    std::unique_ptr<Cpu> cpu;

    explicit Runner(const std::string &src,
                    const ni::NiConfig *ni_cfg = nullptr)
    {
        if (ni_cfg) {
            ni = std::make_unique<ni::NetworkInterface>("ni", eq, 0, net,
                                                        *ni_cfg);
        }
        cpu = std::make_unique<Cpu>("cpu", eq, mem, ni.get());
        isa::Program p = isa::assemble(src, ni::asmSymbols());
        cpu->loadProgram(p);
        cpu->reset(p.base);
        cpu->start();
        eq.run();
        EXPECT_TRUE(cpu->halted());
    }

    Word r(unsigned n) const { return cpu->reg(n); }
};

/** An off-chip cache-mapped interface, whose loaded values are usable
 *  @p delay cycles late (Section 3.1: 2). */
ni::NiConfig
offChip(Cycles delay = 2)
{
    ni::NiConfig c;
    c.placement = ni::Placement::offChipCache;
    c.offChipLoadUseDelay = delay;
    return c;
}

} // namespace

TEST(CpuExec, Arithmetic)
{
    Runner run(R"(
        addi r1, r0, 10
        addi r2, r0, 3
        add  r3, r1, r2
        sub  r4, r1, r2
        mul  r5, r1, r2
        halt
    )");
    EXPECT_EQ(run.r(3), 13u);
    EXPECT_EQ(run.r(4), 7u);
    EXPECT_EQ(run.r(5), 30u);
}

TEST(CpuExec, Logic)
{
    Runner run(R"(
        addi r1, r0, 0xff
        andi r2, r1, 0x0f
        ori  r3, r1, 0xf00
        xori r4, r1, 0xff
        and  r5, r1, r2
        or   r6, r2, r3
        xor  r7, r1, r1
        halt
    )");
    EXPECT_EQ(run.r(2), 0x0fu);
    EXPECT_EQ(run.r(3), 0xfffu);
    EXPECT_EQ(run.r(4), 0u);
    EXPECT_EQ(run.r(5), 0x0fu);
    EXPECT_EQ(run.r(6), 0xfffu);
    EXPECT_EQ(run.r(7), 0u);
}

TEST(CpuExec, Shifts)
{
    Runner run(R"(
        addi r1, r0, -16
        addi r2, r0, 2
        sll  r3, r1, r2
        srl  r4, r1, r2
        sra  r5, r1, r2
        slli r6, r1, 4
        srli r7, r1, 28
        halt
    )");
    EXPECT_EQ(run.r(3), static_cast<Word>(-64));
    EXPECT_EQ(run.r(4), 0x3ffffffcu);
    EXPECT_EQ(run.r(5), static_cast<Word>(-4));
    EXPECT_EQ(run.r(6), static_cast<Word>(-256));
    EXPECT_EQ(run.r(7), 0xfu);
}

TEST(CpuExec, Compare)
{
    Runner run(R"(
        addi r1, r0, -1
        addi r2, r0, 1
        slt  r3, r1, r2
        slt  r4, r2, r1
        sltu r5, r1, r2
        sltu r6, r2, r1
        halt
    )");
    EXPECT_EQ(run.r(3), 1u);
    EXPECT_EQ(run.r(4), 0u);
    EXPECT_EQ(run.r(5), 0u);    // 0xffffffff not < 1 unsigned
    EXPECT_EQ(run.r(6), 1u);
}

TEST(CpuExec, LuiLi)
{
    Runner run(R"(
        lui r1, 0x1234
        li  r2, 0xdeadbeef
        halt
    )");
    EXPECT_EQ(run.r(1), 0x12340000u);
    EXPECT_EQ(run.r(2), 0xdeadbeefu);
}

TEST(CpuExec, R0Hardwired)
{
    Runner run(R"(
        addi r0, r0, 99
        add  r1, r0, r0
        halt
    )");
    EXPECT_EQ(run.r(0), 0u);
    EXPECT_EQ(run.r(1), 0u);
}

TEST(CpuExec, LoadStore)
{
    Runner run(R"(
        .equ BUF, 0x1000
        li   r1, BUF
        addi r2, r0, 77
        sti  r2, r1, 0
        sti  r2, r1, 4
        ldi  r3, r1, 0
        addi r4, r0, 4
        ld   r5, r1, r4
        addi r6, r0, 88
        st   r6, r1, r4
        ldi  r7, r1, 4
        halt
    )");
    EXPECT_EQ(run.r(3), 77u);
    EXPECT_EQ(run.r(5), 77u);
    EXPECT_EQ(run.r(7), 88u);
    EXPECT_EQ(run.mem.read(0x1000), 77u);
}

TEST(CpuExec, GlobalAddressBitsIgnoredLocally)
{
    // Loads/stores mask off the node-id bits: a global address whose
    // node field is this node behaves as the local address.
    Runner run(R"(
        li   r1, 0x03001000    ; node 3, local 0x1000
        addi r2, r0, 55
        sti  r2, r1, 0
        ldi  r3, r1, 0
        halt
    )");
    EXPECT_EQ(run.r(3), 55u);
    EXPECT_EQ(run.mem.read(0x1000), 55u);
}

TEST(CpuExec, BranchesAndLoop)
{
    Runner run(R"(
        addi r1, r0, 5      ; counter
        addi r2, r0, 0      ; sum
    loop:
        add  r2, r2, r1
        addi r1, r1, -1
        bnez r1, loop
        nop                 ; delay slot
        halt
    )");
    EXPECT_EQ(run.r(2), 15u);
}

TEST(CpuExec, DelaySlotAlwaysExecutes)
{
    Runner run(R"(
        addi r1, r0, 1
        br   past
        addi r2, r0, 42     ; delay slot: executes
        addi r3, r0, 99     ; skipped
    past:
        halt
    )");
    EXPECT_EQ(run.r(2), 42u);
    EXPECT_EQ(run.r(3), 0u);
}

TEST(CpuExec, NotTakenBranchFallsThrough)
{
    Runner run(R"(
        addi r1, r0, 1
        beqz r1, away
        addi r2, r0, 5      ; delay slot
        addi r3, r0, 6
        halt
    away:
        addi r4, r0, 7
        halt
    )");
    EXPECT_EQ(run.r(2), 5u);
    EXPECT_EQ(run.r(3), 6u);
    EXPECT_EQ(run.r(4), 0u);
}

TEST(CpuExec, ConditionalVariants)
{
    Runner run(R"(
        addi r1, r0, -3
        addi r10, r0, 0
        bltz r1, neg
        nop
        addi r10, r0, 1     ; skipped
    neg:
        bgez r1, pos
        nop
        addi r11, r0, 1     ; executes (branch not taken)
        halt
    pos:
        addi r12, r0, 1
        halt
    )");
    EXPECT_EQ(run.r(10), 0u);
    EXPECT_EQ(run.r(11), 1u);
    EXPECT_EQ(run.r(12), 0u);
}

TEST(CpuExec, CallAndReturn)
{
    Runner run(R"(
            call func
            nop
            addi r2, r0, 20
            halt
        func:
            addi r1, r0, 10
            ret
            nop
    )");
    EXPECT_EQ(run.r(1), 10u);
    EXPECT_EQ(run.r(2), 20u);
}

TEST(CpuExec, JmpRegister)
{
    Runner run(R"(
            li  r4, target
            jmp r4
            addi r1, r0, 1  ; delay slot
            addi r2, r0, 2  ; skipped
        target:
            halt
    )");
    EXPECT_EQ(run.r(1), 1u);
    EXPECT_EQ(run.r(2), 0u);
}

TEST(CpuExec, JmplLinks)
{
    Runner run(R"(
            li   r4, func
            jmpl r9, r4
            nop
            addi r2, r0, 5
            halt
        func:
            jmp r9
            nop
    )");
    EXPECT_EQ(run.r(2), 5u);
}

TEST(CpuTiming, OneCyclePerInstruction)
{
    Runner run(R"(
        addi r1, r0, 1
        addi r2, r0, 2
        addi r3, r0, 3
        halt
    )");
    EXPECT_EQ(run.cpu->instructions(), 4u);
    EXPECT_EQ(run.cpu->cycles(), 4u);
    EXPECT_EQ(run.cpu->stallCycles(), 0u);
}

TEST(CpuTiming, LocalLoadNoStall)
{
    // Local memory loads are usable the next cycle.
    Runner run(R"(
        ldi  r1, r0, 0x100
        addi r2, r1, 1
        halt
    )");
    EXPECT_EQ(run.cpu->stallCycles(), 0u);
}

TEST(CpuTiming, ConfigurableMemLoadDelayInterlocks)
{
    // A memory-mapped load from an off-chip interface configured for a
    // 3-cycle load-use delay: using the value at once interlocks.
    const ni::NiConfig cfg = offChip(3);
    Runner run(R"(
        li   r10, NI_BASE
        ldi  r1, r10, NI_STATUS
        addi r2, r1, 1      ; needs r1: 3 stall cycles
        halt
    )", &cfg);
    EXPECT_EQ(run.cpu->stallCycles(), 3u);
    EXPECT_EQ(run.cpu->cycles(), 8u);   // 5 instructions + 3 stalls
}

TEST(CpuTiming, IndependentWorkFillsDelay)
{
    const ni::NiConfig cfg = offChip();
    Runner run(R"(
        li   r10, NI_BASE
        ldi  r1, r10, NI_STATUS
        addi r5, r0, 1      ; independent
        addi r6, r0, 2      ; independent
        addi r2, r1, 1      ; r1 ready by now
        halt
    )", &cfg);
    EXPECT_EQ(run.cpu->stallCycles(), 0u);
    EXPECT_EQ(run.cpu->cycles(), 7u);
}

TEST(CpuTiming, StoreDataInterlocks)
{
    const ni::NiConfig cfg = offChip();
    Runner run(R"(
        li   r10, NI_BASE
        ldi  r1, r10, NI_STATUS
        sti  r1, r0, 0x200  ; store data depends on the load
        halt
    )", &cfg);
    EXPECT_EQ(run.cpu->stallCycles(), 2u);
}

TEST(CpuTiming, RegionAttribution)
{
    Runner run(R"(
        .region alpha
        addi r1, r0, 1
        addi r2, r0, 2
        .region beta
        addi r3, r0, 3
        .region epilogue
        halt
    )");
    (void)run;
    auto cycles = run.cpu->regionCycles();
    EXPECT_EQ(cycles.at("alpha"), 2u);
    EXPECT_EQ(cycles.at("beta"), 1u);
}
