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

class NiProtection : public NiPairTest
{
  protected:
    void
    SetUp() override
    {
        build(cfg());
    }

    void
    setPin(ni::NetworkInterface &ni, uint8_t pin, bool check)
    {
        Word ctl = ni.readReg(regControl);
        ctl = static_cast<Word>(insertBits(ctl, control::pinShift + 7,
                                           control::pinShift, pin));
        if (check)
            ctl |= 1u << control::checkPinBit;
        else
            ctl &= ~(1u << control::checkPinBit);
        ni.writeReg(regControl, ctl);
    }
};

TEST_F(NiProtection, MatchingPinDeliversNormally)
{
    setPin(*ni0, 7, false);
    setPin(*ni1, 7, true);
    send(*ni0, 1, 2);
    drain();
    EXPECT_TRUE(ni1->msgValid());
    EXPECT_FALSE(ni1->hasPrivileged());
    EXPECT_EQ(ni1->pendingException(), ExcCode::none);
}

TEST_F(NiProtection, MismatchedPinGoesToPrivilegedState)
{
    setPin(*ni0, 3, false);     // sender runs process 3
    setPin(*ni1, 7, true);      // receiver runs process 7
    send(*ni0, 1, 2, 0xaa);
    drain();

    // Not visible to the user-level interface...
    EXPECT_FALSE(ni1->msgValid());
    EXPECT_EQ(ni1->inputQueueLen(), 0u);
    // ...but held for the operating system.
    EXPECT_TRUE(ni1->hasPrivileged());
    EXPECT_EQ(ni1->pendingException(), ExcCode::pinMismatch);

    Message m = ni1->popPrivileged();
    EXPECT_EQ(m.pin, 3);
    EXPECT_EQ(m.words[1], 0xaau);
    EXPECT_FALSE(ni1->hasPrivileged());
}

TEST_F(NiProtection, PinCheckingOffAcceptsAnyPin)
{
    setPin(*ni0, 3, false);
    setPin(*ni1, 7, false);     // checking disabled
    send(*ni0, 1, 2);
    drain();
    EXPECT_TRUE(ni1->msgValid());
    EXPECT_FALSE(ni1->hasPrivileged());
}

TEST_F(NiProtection, PrivilegedMessageAlwaysEscrowed)
{
    // Privileged (OS-destined) messages bypass the user interface even
    // with PIN checking off.
    Message m;
    m.words[0] = globalWord(1, 0);
    m.type = 2;
    m.privileged = true;
    m.setDestFromWord0();
    net->offer(0, m);
    drain();

    EXPECT_FALSE(ni1->msgValid());
    EXPECT_TRUE(ni1->hasPrivileged());
    EXPECT_EQ(ni1->pendingException(), ExcCode::privilegedPending);
}

TEST_F(NiProtection, MessagesCarrySenderPin)
{
    setPin(*ni0, 9, false);
    send(*ni0, 1, 2);
    drain();
    // Receiver checking is off; inspect via the exposed counters and a
    // second, mismatching receiver.
    setPin(*ni1, 5, true);
    send(*ni0, 1, 2);
    drain();
    EXPECT_TRUE(ni1->hasPrivileged());
    EXPECT_EQ(ni1->popPrivileged().pin, 9);
}

TEST_F(NiProtection, PrivilegedDoesNotBlockUserTraffic)
{
    setPin(*ni0, 3, false);
    setPin(*ni1, 3, true);
    // Interleave a privileged message with user messages.
    send(*ni0, 1, 2, 1);
    Message m;
    m.words[0] = globalWord(1, 0);
    m.privileged = true;
    m.setDestFromWord0();
    net->offer(0, m);
    send(*ni0, 1, 2, 2);
    drain();

    EXPECT_TRUE(ni1->msgValid());
    EXPECT_EQ(ni1->readReg(regI1), 1u);
    ni1->command(nextCmd());
    EXPECT_EQ(ni1->readReg(regI1), 2u);
    EXPECT_TRUE(ni1->hasPrivileged());
}

TEST_F(NiProtection, PopPrivilegedEmptyPanics)
{
    EXPECT_THROW(ni1->popPrivileged(), PanicError);
}
