#include "ni_fixture.hh"

#include <set>

using namespace tcpni;
using namespace tcpni::ni;

namespace
{

constexpr Word ipBase = 0x8000;

NiConfig
optCfg()
{
    NiConfig c;
    c.features = Features::optimized();
    return c;
}

} // namespace

class MsgIpDispatch : public NiPairTest
{
  protected:
    void
    SetUp() override
    {
        build(optCfg());
        ni1->writeReg(regIpBase, ipBase);
    }
};

TEST_F(MsgIpDispatch, NoMessageGivesPollHandler)
{
    // Type bits 0000: the poll/idle handler.
    EXPECT_EQ(ni1->readReg(regMsgIp), dispatch::handlerAddr(ipBase, 0));
}

TEST_F(MsgIpDispatch, TypedMessageSelectsHandlerSlot)
{
    send(*ni0, 1, 7);
    drain();
    EXPECT_EQ(ni1->readReg(regMsgIp), dispatch::handlerAddr(ipBase, 7));
}

TEST_F(MsgIpDispatch, EachTypeGetsDistinctHandler)
{
    std::set<Word> addrs;
    addrs.insert(ni1->readReg(regMsgIp));
    for (uint8_t t = 2; t <= 15; ++t) {
        send(*ni0, 1, t);
        drain();
        addrs.insert(ni1->readReg(regMsgIp));
        ni1->command(nextCmd());
    }
    EXPECT_EQ(addrs.size(), 15u);   // 14 types + poll
}

TEST_F(MsgIpDispatch, Type0DispatchesThroughWord1)
{
    // Figure 7 case 2: type-0 messages carry their handler IP in
    // word 1.
    send(*ni0, 1, 0, /*w1=*/0xcafe0);
    drain();
    EXPECT_EQ(ni1->readReg(regMsgIp), 0xcafe0u);
}

TEST_F(MsgIpDispatch, NextMsgIpTracksQueueHead)
{
    send(*ni0, 1, 7);
    send(*ni0, 1, 9);
    drain();
    EXPECT_EQ(ni1->readReg(regMsgIp), dispatch::handlerAddr(ipBase, 7));
    EXPECT_EQ(ni1->readReg(regNextMsgIp),
              dispatch::handlerAddr(ipBase, 9));

    // After NEXT, MsgIp becomes the old NextMsgIp.
    ni1->command(nextCmd());
    EXPECT_EQ(ni1->readReg(regMsgIp), dispatch::handlerAddr(ipBase, 9));
    EXPECT_EQ(ni1->readReg(regNextMsgIp),
              dispatch::handlerAddr(ipBase, 0));
}

TEST_F(MsgIpDispatch, NextMsgIpHandlesType0Head)
{
    send(*ni0, 1, 7);
    send(*ni0, 1, 0, 0xabcd0);
    drain();
    EXPECT_EQ(ni1->readReg(regNextMsgIp), 0xabcd0u);
}

TEST_F(MsgIpDispatch, IafullSelectsThresholdVariant)
{
    // Lower the input threshold to 2 so three queued messages trip it.
    Word ctl = ni1->readReg(regControl);
    ctl = insertBits(ctl, control::inThresholdShift + 7,
                     control::inThresholdShift, 2);
    ni1->writeReg(regControl, static_cast<Word>(ctl));

    for (int k = 0; k < 4; ++k)
        send(*ni0, 1, 7);
    drain();
    // 1 in regs + 3 queued > threshold 2.
    EXPECT_EQ(ni1->inputQueueLen(), 3u);
    EXPECT_EQ(ni1->readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, 7, /*iafull=*/true));

    // Popping below the threshold restores the plain handler.
    ni1->command(nextCmd());
    ni1->command(nextCmd());
    EXPECT_EQ(ni1->readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, 7, false));
}

TEST_F(MsgIpDispatch, OafullSelectsThresholdVariant)
{
    Word ctl = ni1->readReg(regControl);
    ctl = insertBits(ctl, control::outThresholdShift + 7,
                     control::outThresholdShift, 1);
    ni1->writeReg(regControl, static_cast<Word>(ctl));

    send(*ni0, 1, 7);
    drain();
    // Queue two outgoing messages without draining.
    send(*ni1, 0, 2);
    send(*ni1, 0, 2);
    EXPECT_EQ(ni1->readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, 7, false, /*oafull=*/true));
}

TEST_F(MsgIpDispatch, ThresholdSuppressesType0Shortcut)
{
    // A type-0 message above a threshold must take the table path so
    // the boundary condition is noticed (Figure 7 case 1).
    Word ctl = ni1->readReg(regControl);
    ctl = insertBits(ctl, control::inThresholdShift + 7,
                     control::inThresholdShift, 0);
    ni1->writeReg(regControl, static_cast<Word>(ctl));

    send(*ni0, 1, 0, 0xcafe0);
    send(*ni0, 1, 7);
    drain();
    EXPECT_EQ(ni1->inputQueueLen(), 1u);    // > threshold 0
    EXPECT_EQ(ni1->readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, 0, /*iafull=*/true));
}

TEST_F(MsgIpDispatch, ExceptionOverridesDispatch)
{
    NiConfig cfg = optCfg();
    cfg.outputQueueDepth = 1;
    build(cfg);
    ni1->writeReg(regIpBase, ipBase);
    Word ctl = ni1->readReg(regControl);
    ni1->writeReg(regControl,
                  ctl & ~(1u << control::stallOnFullBit));

    send(*ni1, 0, 2);
    send(*ni1, 0, 2);   // overflows: exception
    EXPECT_EQ(ni1->pendingException(), ExcCode::outputOverflow);
    EXPECT_EQ(ni1->readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, dispatch::excType));

    // Acknowledging restores normal dispatch.
    ni1->writeReg(regStatus, 0);
    EXPECT_NE(ni1->readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, dispatch::excType));
}

TEST_F(MsgIpDispatch, BasicInterfaceHasNoMsgIp)
{
    NiConfig basic;
    basic.features = Features::basic();
    build(basic);
    send(*ni0, 1, 0);
    drain();
    EXPECT_EQ(ni1->readReg(regMsgIp), 0u);
    EXPECT_EQ(ni1->readReg(regNextMsgIp), 0u);
}

// Parameterized sweep over the full (type x iafull x oafull) dispatch
// space: every combination must land in its own slot.  gtest names each
// case by the bytes of its parameter, so the two trailing bytes are
// explicit zeros rather than padding: uninitialized padding would make
// the test names differ from run to run.
struct DispatchCase
{
    unsigned type;
    bool ia, oa;
    unsigned char pad[2] = {0, 0};
};

class DispatchMatrix : public ::testing::TestWithParam<DispatchCase>
{
};

TEST_P(DispatchMatrix, SlotFormula)
{
    const unsigned type = GetParam().type;
    const bool ia = GetParam().ia;
    const bool oa = GetParam().oa;
    Word addr = dispatch::handlerAddr(0x10000, type, ia, oa);
    Word expect = 0x10000u | (type << 7) | (ia ? 1u << 12 : 0) |
                  (oa ? 1u << 11 : 0);
    EXPECT_EQ(addr, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, DispatchMatrix,
    ::testing::Values(DispatchCase{0, false, false},
                      DispatchCase{0, true, true},
                      DispatchCase{3, false, true},
                      DispatchCase{3, true, false},
                      DispatchCase{15, true, true},
                      DispatchCase{8, false, false}));

// Exhaustive variant addressing: the 64 (type, iafull, oafull) slots
// must be distinct, 128-byte aligned, and confined to the 8 KB window
// above IpBase; low IpBase bits must not leak into the slot address.
TEST(DispatchMatrixFull, AllSixtyFourSlotsDistinctAndInWindow)
{
    const Word ip_base = 0x4000;
    std::set<Word> slots;
    for (unsigned type = 0; type < 16; ++type) {
        for (unsigned variant = 0; variant < 4; ++variant) {
            bool ia = variant & 2;
            bool oa = variant & 1;
            Word addr = dispatch::handlerAddr(ip_base, type, ia, oa);
            EXPECT_EQ(addr % (1u << dispatch::handlerShift), 0u);
            EXPECT_GE(addr, ip_base);
            EXPECT_LT(addr, ip_base + 0x2000u);
            slots.insert(addr);
        }
    }
    EXPECT_EQ(slots.size(), 64u);
}

TEST(DispatchMatrixFull, IpBaseLowBitsIgnored)
{
    // A misaligned IpBase must dispatch as if aligned: only the bits
    // above the 8 KB table window participate (Figure 7).
    EXPECT_EQ(dispatch::handlerAddr(0x4abc, 7, true, false),
              dispatch::handlerAddr(0x4000, 7, true, false));
    EXPECT_EQ(dispatch::handlerAddr(0x6000, 7, true, false),
              dispatch::handlerAddr(0x6000 & dispatch::tableMask, 7,
                                    true, false));
}

TEST(DispatchMatrixFull, VariantBitsSelectThresholdBanks)
{
    // The four variants of one type sit exactly one oafull / iafull
    // bit apart: 2 KB and 4 KB above the base slot.
    const Word ip_base = 0x4000;
    Word base = dispatch::handlerAddr(ip_base, 3, false, false);
    EXPECT_EQ(dispatch::handlerAddr(ip_base, 3, false, true),
              base + (1u << dispatch::oafullShift));
    EXPECT_EQ(dispatch::handlerAddr(ip_base, 3, true, false),
              base + (1u << dispatch::iafullShift));
    EXPECT_EQ(dispatch::handlerAddr(ip_base, 3, true, true),
              base + (1u << dispatch::iafullShift) +
                  (1u << dispatch::oafullShift));
}
