#include "ni_fixture.hh"

using namespace tcpni;
using namespace tcpni::ni;

namespace
{

NiConfig
cfg()
{
    NiConfig c;
    c.optimized = true;
    return c;
}

} // namespace

class NiScroll : public NiPairTest
{
  protected:
    void
    SetUp() override
    {
        build(cfg());
    }

    void
    setOut(ni::NetworkInterface &ni, Word a, Word b, Word c, Word d,
           Word e)
    {
        ni.writeReg(regO0, a);
        ni.writeReg(regO1, b);
        ni.writeReg(regO2, c);
        ni.writeReg(regO3, d);
        ni.writeReg(regO4, e);
    }
};

TEST_F(NiScroll, TenWordMessage)
{
    // Compose a 10-word message: SCROLL-OUT banks the first five
    // words, SEND ships them plus the final five.
    setOut(*ni0, globalWord(1, 0), 11, 12, 13, 14);
    ni0->scrollOut();
    setOut(*ni0, 15, 16, 17, 18, 19);
    isa::NiCommand send_cmd;
    send_cmd.mode = isa::SendMode::send;
    send_cmd.type = 2;
    ni0->command(send_cmd);
    drain();

    // Receiver sees the first window...
    ASSERT_TRUE(ni1->msgValid());
    EXPECT_EQ(ni1->readReg(regI1), 11u);
    EXPECT_EQ(ni1->readReg(regI4), 14u);

    // ...then scrolls in the second.
    ni1->scrollIn();
    EXPECT_EQ(ni1->readReg(regI0), 15u);
    EXPECT_EQ(ni1->readReg(regI4), 19u);
    EXPECT_EQ(ni1->pendingException(), ExcCode::none);
}

TEST_F(NiScroll, ArbitrarilyLongMessage)
{
    const int segments = 7;
    for (int s = 0; s < segments; ++s) {
        Word base = static_cast<Word>(s * 10);
        if (s == 0) {
            setOut(*ni0, globalWord(1, 0), base + 1, base + 2, base + 3,
                   base + 4);
        } else {
            setOut(*ni0, base, base + 1, base + 2, base + 3, base + 4);
        }
        if (s < segments - 1) {
            ni0->scrollOut();
        } else {
            isa::NiCommand c;
            c.mode = isa::SendMode::send;
            c.type = 2;
            ni0->command(c);
        }
    }
    drain();

    ASSERT_TRUE(ni1->msgValid());
    for (int s = 1; s < segments; ++s) {
        ni1->scrollIn();
        EXPECT_EQ(ni1->readReg(regI1), static_cast<Word>(s * 10 + 1));
    }
    EXPECT_EQ(ni1->pendingException(), ExcCode::none);
}

TEST_F(NiScroll, ScrollPastEndRaisesInputPortError)
{
    setOut(*ni0, globalWord(1, 0), 1, 2, 3, 4);
    isa::NiCommand c;
    c.mode = isa::SendMode::send;
    c.type = 2;
    ni0->command(c);
    drain();
    ASSERT_TRUE(ni1->msgValid());

    // A plain 5-word message has nothing to scroll.
    ni1->scrollIn();
    EXPECT_EQ(ni1->pendingException(), ExcCode::inputPortError);
}

TEST_F(NiScroll, ScrollInWithoutMessageRaises)
{
    ni1->scrollIn();
    EXPECT_EQ(ni1->pendingException(), ExcCode::inputPortError);
}

TEST_F(NiScroll, NextSkipsUnconsumedTail)
{
    // Send a long message followed by a short one; NEXT after partial
    // consumption advances to the short message.
    setOut(*ni0, globalWord(1, 0), 1, 2, 3, 4);
    ni0->scrollOut();
    setOut(*ni0, 5, 6, 7, 8, 9);
    isa::NiCommand c;
    c.mode = isa::SendMode::send;
    c.type = 2;
    ni0->command(c);
    send(*ni0, 1, 3, 0x99);
    drain();

    ASSERT_TRUE(ni1->msgValid());
    EXPECT_EQ(ni1->currentType(), 2);
    ni1->command(nextCmd());    // discard the rest of the long message
    EXPECT_EQ(ni1->currentType(), 3);
    EXPECT_EQ(ni1->readReg(regI1), 0x99u);
}

TEST_F(NiScroll, ScrollStateResetsPerMessage)
{
    for (int rep = 0; rep < 2; ++rep) {
        setOut(*ni0, globalWord(1, 0), 1, 2, 3, 4);
        ni0->scrollOut();
        setOut(*ni0, 100 + rep, 0, 0, 0, 0);
        isa::NiCommand c;
        c.mode = isa::SendMode::send;
        c.type = 2;
        ni0->command(c);
    }
    drain();

    ni1->scrollIn();
    EXPECT_EQ(ni1->readReg(regI0), 100u);
    ni1->command(nextCmd());
    ni1->scrollIn();
    EXPECT_EQ(ni1->readReg(regI0), 101u);
    EXPECT_EQ(ni1->pendingException(), ExcCode::none);
}

TEST_F(NiScroll, LongMessagePreservedThroughQueue)
{
    // Two long messages queued back-to-back keep their extra words
    // associated correctly.
    for (Word tag = 0; tag < 2; ++tag) {
        setOut(*ni0, globalWord(1, 0), tag, 0, 0, 0);
        ni0->scrollOut();
        setOut(*ni0, 0x50 + tag, 0, 0, 0, 0);
        isa::NiCommand c;
        c.mode = isa::SendMode::send;
        c.type = 2;
        ni0->command(c);
    }
    drain();

    EXPECT_EQ(ni1->readReg(regI1), 0u);
    ni1->scrollIn();
    EXPECT_EQ(ni1->readReg(regI0), 0x50u);
    ni1->command(nextCmd());
    EXPECT_EQ(ni1->readReg(regI1), 1u);
    ni1->scrollIn();
    EXPECT_EQ(ni1->readReg(regI0), 0x51u);
}

TEST_F(NiScroll, StalledAccessBanksItsWordsOnce)
{
    // A cache-mapped store that sets CONTROL's stall-on-full bit over
    // a full output queue, with SCROLL-OUT and SEND in its address,
    // stalls.  The processor retries the whole access, so the stall
    // must surface before SCROLL-OUT banks the output words: the
    // message carries them once, not once per attempt.
    const Word ctl =
        ni0->readReg(regControl) & ~(1u << control::stallOnFullBit);
    ni0->writeReg(regControl, ctl);
    const unsigned depth = cfg().outputQueueDepth;
    for (unsigned i = 0; i < depth; ++i)
        ASSERT_EQ(send(*ni0, 1, 2), CmdResult::ok);
    setOut(*ni0, globalWord(1, 0), 0x11, 0x12, 0x13, 0x14);
    const Word addr =
        cmdaddr::niAddrBase |
        cmdaddr::offset(regControl,
                        static_cast<unsigned>(isa::SendMode::send), 2,
                        false, false, true);
    const Word stall_ctl = ctl | 1u << control::stallOnFullBit;
    Word unused = 0;
    EXPECT_EQ(ni0->access(addr, stall_ctl, true, unused), CmdResult::stall);
    drain();
    EXPECT_EQ(ni0->access(addr, stall_ctl, true, unused), CmdResult::ok);
    drain();

    for (unsigned i = 0; i < depth; ++i)
        ni1->command(nextCmd());
    drain();
    ASSERT_TRUE(ni1->msgValid());
    EXPECT_EQ(ni1->readReg(regI1), 0x11u);
    ni1->scrollIn();  // the SEND-time o-registers: five more words
    EXPECT_EQ(ni1->readReg(regI4), 0x14u);
    EXPECT_EQ(ni1->pendingException(), ExcCode::none);
    ni1->scrollIn();  // past the end
    EXPECT_EQ(ni1->pendingException(), ExcCode::inputPortError);
}
