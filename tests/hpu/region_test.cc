/**
 * @file
 * Behaviour both processor models share through the one interpreter
 * (the Hpu is a Cpu on the interface's HPU port), typed over
 * {Cpu, Hpu}: cost-region attribution for programs loaded at
 * different bases, an overlapping re-load and an address outside
 * every program; and the loud-failure guards (runaway loop, branch in
 * a delay slot).  The HPU's own guards and timing follow: the
 * cache-mapped command window, the host-proxy ring, and the cycles a
 * proxy post occupies the HPU.
 *
 * The expected region counts are those of per-word, later-load-wins
 * tagging: each word belongs to the region of the latest load that
 * covered it, and a word no load covered belongs to region "".
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "cpu/cpu.hh"
#include "hpu/hpu.hh"
#include "isa/assembler.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/network_interface.hh"
#include "noc/network.hh"

using namespace tcpni;

namespace
{

/** Four alpha words, then a branch to B (its delay slot is alpha
 *  too). */
const char *progA = R"(
    .org 0x1000
    .region alpha
    addi r1, r0, 1      ; 0x1000
    addi r1, r1, 1      ; 0x1004
    addi r1, r1, 1      ; 0x1008
    addi r1, r1, 1      ; 0x100c
    br   0x2000         ; 0x1010
    nop                 ; 0x1014
)";

/** Three beta words ending in a branch to 0x3000, which no program
 *  covers. */
const char *progB = R"(
    .org 0x2000
    .region beta
    addi r2, r0, 1
    br   0x3000
    nop
)";

/** Overlaps A's middle two words. */
const char *progC = R"(
    .org 0x1008
    .region gamma
    addi r1, r1, 10
    addi r1, r1, 10
)";

using Counts = std::map<std::string, uint64_t>;

struct Result
{
    Counts cycles;
    Word r1;
};

/** One core of type @p Proc on a standalone interface and memory. */
template <typename Proc>
struct Rig
{
    EventQueue eq;
    IdealNetwork net{"net", eq, 1};
    ni::NetworkInterface ni{"ni", eq, 0, net, ni::NiConfig{}};
    Memory mem{64 * 1024};
    std::unique_ptr<Proc> proc;

    explicit Rig(CpuConfig cfg = {})
    {
        if constexpr (std::is_same_v<Proc, Cpu>)
            proc = std::make_unique<Cpu>("cpu", eq, mem, nullptr, cfg);
        else
            proc = std::make_unique<Hpu>("hpu", eq, mem, ni, cfg);
    }

    /** Run from @p pc until the core halts or the queue drains. */
    void
    run(Addr pc)
    {
        proc->reset(pc);
        proc->start();
        eq.run();
    }
};

/** Load @p srcs in order, write a bare `halt` at 0x3000 (outside
 *  every program), run from 0x1000 to the halt. */
template <typename Proc>
Result
run(const std::vector<const char *> &srcs)
{
    Rig<Proc> rig;
    for (const char *src : srcs)
        rig.proc->loadProgram(isa::assemble(src));
    rig.mem.write(0x3000, isa::assemble("halt\n").words.at(0));
    rig.run(0x1000);
    EXPECT_TRUE(rig.proc->halted());
    return {rig.proc->regionCycles(), rig.proc->reg(1)};
}

/** Assemble @p src (kernel symbols known), run it on a @p Proc and
 *  return the message of the panic that stops it ("" if none). */
template <typename Proc>
std::string
panicOf(const char *src, CpuConfig cfg = {})
{
    Rig<Proc> rig(cfg);
    isa::Program p = msg::assembleKernel(src);
    rig.proc->loadProgram(p);
    try {
        rig.run(p.base);
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

template <typename Proc>
class RegionAttribution : public ::testing::Test
{};

template <typename Proc>
class CpuGuards : public ::testing::Test
{};

using Procs = ::testing::Types<Cpu, Hpu>;
TYPED_TEST_SUITE(RegionAttribution, Procs);
TYPED_TEST_SUITE(CpuGuards, Procs);

} // namespace

TYPED_TEST(RegionAttribution, LaterLoadWinsOnOverlap)
{
    // C re-tags A's words 0x1008 and 0x100c; A keeps the rest; the
    // halt at 0x3000 lies outside every program.
    Result r = run<TypeParam>({progA, progB, progC});
    const Counts want{{"", 1}, {"alpha", 4}, {"beta", 3}, {"gamma", 2}};
    EXPECT_EQ(r.cycles, want);
    EXPECT_EQ(r.r1, 22u);     // C's instructions ran, not A's
}

TYPED_TEST(RegionAttribution, FullReloadHidesCoveredProgram)
{
    // Re-loading A covers all of C: every A word is alpha again.
    Result r = run<TypeParam>({progA, progB, progC, progA});
    const Counts want{{"", 1}, {"alpha", 6}, {"beta", 3}};
    EXPECT_EQ(r.cycles, want);
    EXPECT_EQ(r.r1, 4u);
}

TYPED_TEST(CpuGuards, RunawayLoopPanics)
{
    CpuConfig cfg;
    cfg.maxInstructions = 1000;
    const char *src = R"(
        loop:
            br loop
            nop
    )";
    EXPECT_PRED_FORMAT2(::testing::IsSubstring, "runaway",
                        panicOf<TypeParam>(src, cfg));
}

TYPED_TEST(CpuGuards, BranchInDelaySlotPanics)
{
    const char *src = R"(
        br a
        br a        ; branch in delay slot: architecture violation
    a:
        halt
    )";
    EXPECT_PRED_FORMAT2(::testing::IsSubstring, "branch in a delay slot",
                        panicOf<TypeParam>(src));
}

TEST(HpuGuards, CommandWindowAccessPanics)
{
    // The HPU reaches the NI through the register file; touching the
    // 0xffff0000 window is a kernel-selection bug.
    for (const char *src : {"li r1, 0xffff0000\nldi r2, r1, 0\nhalt\n",
                            "li r1, 0xffff0000\nsti r0, r1, 0\nhalt\n"}) {
        EXPECT_PRED_FORMAT2(::testing::IsSubstring,
                            "cache-mapped NI access", panicOf<Hpu>(src));
    }
}

TEST(HpuGuards, HostRingOverflowPanics)
{
    // 65 posts with no host draining the ring: the 65th finds all
    // msg::hostRingSlots slots full.
    const char *src = R"(
        li   r3, HPU_PROXY
        addi r1, r0, 65
    post:
        st   r0, r3, r0
        addi r1, r1, -1
        bnez r1, post
        nop
        halt
    )";
    EXPECT_PRED_FORMAT2(::testing::IsSubstring, "ring overflow (pi=64 ci=0)",
                        panicOf<Hpu>(src));
}

TEST(HpuTiming, ProxyPostOccupiesTheHpu)
{
    // A post costs Hpu::hostProxyCycles beyond its issue cycle, and
    // the HPU issues nothing else meanwhile: the cycles it reports are
    // the ticks it ran, from start() through its halting cycle.
    Rig<Hpu> rig;
    isa::Program p = msg::assembleKernel(R"(
        li   r3, HPU_PROXY
        st   r0, r3, r0
        halt
    )");
    rig.proc->loadProgram(p);
    const Tick start = rig.eq.curTick();
    rig.run(p.base);
    ASSERT_TRUE(rig.proc->halted());
    EXPECT_EQ(rig.proc->hostProxies(), 1u);
    EXPECT_EQ(rig.proc->cycles(), 4 + Hpu::hostProxyCycles);
    EXPECT_EQ(rig.proc->cycles(), rig.eq.curTick() - start + 1);
}
