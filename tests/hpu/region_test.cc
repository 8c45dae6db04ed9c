/**
 * @file
 * Cost-region attribution on both processor models (Cpu and Hpu share
 * isa::RegionTable): programs loaded at different bases, an
 * overlapping re-load, and an address outside every program.
 *
 * The expected counts are those of per-word, later-load-wins
 * tagging: each word belongs to the region of the latest load that
 * covered it, and a word no load covered belongs to region "".
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cpu/cpu.hh"
#include "hpu/hpu.hh"
#include "isa/assembler.hh"
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
    Counts insts;
    Word r1;
};

/** Load @p srcs in order, write a bare `halt` at 0x3000 (outside
 *  every program), run from 0x1000 to the halt. */
template <typename Proc>
Result
run(const std::vector<const char *> &srcs)
{
    EventQueue eq;
    IdealNetwork net("net", eq, 1);
    ni::NetworkInterface ni("ni", eq, 0, net, ni::NiConfig{});
    Memory mem(64 * 1024);
    std::unique_ptr<Proc> proc;
    if constexpr (std::is_same_v<Proc, Cpu>)
        proc = std::make_unique<Cpu>("cpu", eq, mem, nullptr);
    else
        proc = std::make_unique<Hpu>("hpu", eq, mem, ni);

    for (const char *src : srcs)
        proc->loadProgram(isa::assemble(src));
    mem.write(0x3000, isa::assemble("halt\n").words.at(0));

    proc->reset(0x1000);
    proc->start();
    eq.run();
    EXPECT_TRUE(proc->halted());
    return {proc->regionCycles(), proc->regionInstructions(),
            proc->reg(1)};
}

template <typename Proc>
class RegionAttribution : public ::testing::Test
{};

using Procs = ::testing::Types<Cpu, Hpu>;
TYPED_TEST_SUITE(RegionAttribution, Procs);

} // namespace

TYPED_TEST(RegionAttribution, LaterLoadWinsOnOverlap)
{
    // C re-tags A's words 0x1008 and 0x100c; A keeps the rest; the
    // halt at 0x3000 lies outside every program.
    Result r = run<TypeParam>({progA, progB, progC});
    const Counts want{{"", 1}, {"alpha", 4}, {"beta", 3}, {"gamma", 2}};
    EXPECT_EQ(r.insts, want);
    EXPECT_EQ(r.cycles, want);
    EXPECT_EQ(r.r1, 22u);     // C's instructions ran, not A's
}

TYPED_TEST(RegionAttribution, FullReloadHidesCoveredProgram)
{
    // Re-loading A covers all of C: every A word is alpha again.
    Result r = run<TypeParam>({progA, progB, progC, progA});
    const Counts want{{"", 1}, {"alpha", 6}, {"beta", 3}};
    EXPECT_EQ(r.insts, want);
    EXPECT_EQ(r.cycles, want);
    EXPECT_EQ(r.r1, 4u);
}
