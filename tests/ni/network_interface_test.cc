#include "ni_fixture.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/trace.hh"

using namespace tcpni;
using namespace tcpni::ni;

namespace
{

NiConfig
optCfg()
{
    NiConfig c;
    c.optimized = true;
    return c;
}

NiConfig
basicCfg()
{
    NiConfig c;
    c.optimized = false;
    return c;
}

} // namespace

class NiBasicOps : public NiPairTest
{
};

TEST_F(NiBasicOps, SendDeliversToInputRegs)
{
    build(optCfg());
    send(*ni0, 1, 3, 0x11, 0x22, 0x33, 0x44, 0x100);
    drain();

    // The message auto-advances into ni1's input registers.
    EXPECT_TRUE(ni1->msgValid());
    EXPECT_EQ(ni1->currentType(), 3);
    EXPECT_EQ(ni1->readReg(regI0), globalWord(1, 0x100));
    EXPECT_EQ(ni1->readReg(regI1), 0x11u);
    EXPECT_EQ(ni1->readReg(regI2), 0x22u);
    EXPECT_EQ(ni1->readReg(regI3), 0x33u);
    EXPECT_EQ(ni1->readReg(regI4), 0x44u);
    EXPECT_EQ(ni1->inputQueueLen(), 0u);
}

TEST_F(NiBasicOps, StatusReflectsMessage)
{
    build(optCfg());
    EXPECT_EQ(bits(ni1->readReg(regStatus), status::msgValidBit), 0u);
    send(*ni0, 1, 5);
    drain();
    Word st = ni1->readReg(regStatus);
    EXPECT_EQ(bits(st, status::msgValidBit), 1u);
    EXPECT_EQ(bits(st, status::msgTypeShift + 3, status::msgTypeShift),
              5u);
}

TEST_F(NiBasicOps, NextPopsQueueInOrder)
{
    build(optCfg());
    send(*ni0, 1, 2, 100);
    send(*ni0, 1, 3, 200);
    send(*ni0, 1, 4, 300);
    drain();

    EXPECT_EQ(ni1->currentType(), 2);
    EXPECT_EQ(ni1->inputQueueLen(), 2u);

    ni1->command(nextCmd());
    EXPECT_EQ(ni1->currentType(), 3);
    EXPECT_EQ(ni1->readReg(regI1), 200u);

    ni1->command(nextCmd());
    EXPECT_EQ(ni1->currentType(), 4);

    ni1->command(nextCmd());
    EXPECT_FALSE(ni1->msgValid());
}

TEST_F(NiBasicOps, NextOnEmptyLeavesInvalidThenRefills)
{
    build(optCfg());
    ni1->command(nextCmd());
    EXPECT_FALSE(ni1->msgValid());
    // A later arrival goes straight into the registers.
    send(*ni0, 1, 6);
    drain();
    EXPECT_TRUE(ni1->msgValid());
    EXPECT_EQ(ni1->currentType(), 6);
}

TEST_F(NiBasicOps, ReplyModeSubstitutesContinuation)
{
    build(optCfg());
    // A remote-read-style request: w1 = FP (with requester node in the
    // high bits), w2 = IP.
    send(*ni0, 1, 3, globalWord(0, 0xf00), 0xbeef, 0, 0, 0x40);
    drain();
    ASSERT_TRUE(ni1->msgValid());

    // Handler computes the value into o2 and replies.
    ni1->writeReg(regO2, 0x777);
    isa::NiCommand cmd;
    cmd.mode = isa::SendMode::reply;
    cmd.type = 4;
    cmd.next = true;
    ni1->command(cmd);
    drain();

    // The reply arrived back at ni0, headed by the FP/IP continuation.
    ASSERT_TRUE(ni0->msgValid());
    EXPECT_EQ(ni0->currentType(), 4);
    EXPECT_EQ(ni0->readReg(regI0), globalWord(0, 0xf00));
    EXPECT_EQ(ni0->readReg(regI1), 0xbeefu);
    EXPECT_EQ(ni0->readReg(regI2), 0x777u);
    // And ni1 advanced past the request.
    EXPECT_FALSE(ni1->msgValid());
}

TEST_F(NiBasicOps, ForwardModeSubstitutesData)
{
    build(optCfg());
    send(*ni0, 1, 5, 0, 0xd2, 0xd3, 0xd4, 0x0);
    drain();
    ASSERT_TRUE(ni1->msgValid());

    // Forward the data words to node 0 with a fresh header.
    ni1->writeReg(regO0, globalWord(0, 0x50));
    ni1->writeReg(regO1, 0xaa);
    isa::NiCommand cmd;
    cmd.mode = isa::SendMode::forward;
    cmd.type = 6;
    ni1->command(cmd);
    drain();

    ASSERT_TRUE(ni0->msgValid());
    EXPECT_EQ(ni0->readReg(regI0), globalWord(0, 0x50));
    EXPECT_EQ(ni0->readReg(regI1), 0xaau);
    EXPECT_EQ(ni0->readReg(regI2), 0xd2u);
    EXPECT_EQ(ni0->readReg(regI3), 0xd3u);
    EXPECT_EQ(ni0->readReg(regI4), 0xd4u);
}

TEST_F(NiBasicOps, BasicInterfaceIgnoresEncodedType)
{
    build(basicCfg());
    isa::NiCommand cmd;
    cmd.mode = isa::SendMode::send;
    cmd.type = 9;   // must be ignored: basic has no encoded types
    ni0->writeReg(regO0, globalWord(1, 0));
    ni0->command(cmd);
    drain();
    EXPECT_TRUE(ni1->msgValid());
    EXPECT_EQ(ni1->currentType(), 0);
}

TEST_F(NiBasicOps, BasicInterfaceRejectsReplyMode)
{
    build(basicCfg());
    isa::NiCommand cmd;
    cmd.mode = isa::SendMode::reply;
    EXPECT_THROW(ni0->command(cmd), PanicError);
}

TEST_F(NiBasicOps, Type1ReservedWhenHwDispatch)
{
    build(optCfg());
    isa::NiCommand cmd;
    cmd.mode = isa::SendMode::send;
    cmd.type = 1;
    EXPECT_THROW(ni0->command(cmd), PanicError);
}

TEST_F(NiBasicOps, InputRegsWritableAsScratch)
{
    build(optCfg());
    ni0->writeReg(regI3, 0x123);
    EXPECT_EQ(ni0->readReg(regI3), 0x123u);
}

TEST_F(NiBasicOps, MsgIpReadOnly)
{
    build(optCfg());
    bool saved = logging::quiet;
    logging::quiet = true;
    ni0->writeReg(regMsgIp, 0x1234);
    logging::quiet = saved;
    EXPECT_NE(ni0->readReg(regMsgIp), 0x1234u);
}

class NiFlowControl : public NiPairTest
{
};

TEST_F(NiFlowControl, OutputQueueFillsWithoutPump)
{
    NiConfig cfg = optCfg();
    cfg.outputQueueDepth = 4;
    build(cfg);

    // Without running the event queue the pump never fires, so sends
    // accumulate in the output queue.
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(send(*ni0, 1, 2), CmdResult::ok);
    EXPECT_EQ(ni0->outputQueueLen(), 4u);
    EXPECT_TRUE(ni0->sendWouldStall());

    // Stall policy (the reset default): SEND returns stall.
    EXPECT_EQ(send(*ni0, 1, 2), CmdResult::stall);
    // Nothing was enqueued or lost.
    EXPECT_EQ(ni0->outputQueueLen(), 4u);
    EXPECT_EQ(ni0->pendingException(), ExcCode::none);
}

TEST_F(NiFlowControl, ExceptionPolicyRaisesOverflow)
{
    NiConfig cfg = optCfg();
    cfg.outputQueueDepth = 2;
    build(cfg);

    // Clear the stall bit: full queue now raises an exception.
    Word ctl = ni0->readReg(regControl);
    ni0->writeReg(regControl, ctl & ~(1u << control::stallOnFullBit));

    send(*ni0, 1, 2);
    send(*ni0, 1, 2);
    EXPECT_EQ(send(*ni0, 1, 2), CmdResult::ok);
    EXPECT_EQ(ni0->pendingException(), ExcCode::outputOverflow);
    Word st = ni0->readReg(regStatus);
    EXPECT_EQ(bits(st, status::excPendingBit), 1u);
    EXPECT_EQ(bits(st, status::excCodeShift + 3, status::excCodeShift),
              static_cast<Word>(ExcCode::outputOverflow));

    // Writing STATUS acknowledges the exception.
    ni0->writeReg(regStatus, 0);
    EXPECT_EQ(ni0->pendingException(), ExcCode::none);
}

TEST_F(NiFlowControl, StalledSendProceedsAfterDrain)
{
    NiConfig cfg = optCfg();
    cfg.outputQueueDepth = 2;
    build(cfg);
    send(*ni0, 1, 2);
    send(*ni0, 1, 2);
    EXPECT_EQ(send(*ni0, 1, 2), CmdResult::stall);
    drain();    // pump empties the output queue
    EXPECT_EQ(send(*ni0, 1, 2), CmdResult::ok);
    drain();
    EXPECT_EQ(ni1->numReceived(), 3u);
}

TEST_F(NiFlowControl, InputQueueBackpressuresNetwork)
{
    NiConfig cfg = optCfg();
    cfg.inputQueueDepth = 2;
    build(cfg);

    // 1 in the input regs + 2 in the queue fit; the 4th waits in the
    // network until the receiver pops.
    for (int k = 0; k < 4; ++k)
        send(*ni0, 1, 2);
    eq.run(eq.curTick() + 50);
    EXPECT_EQ(ni1->inputQueueLen(), 2u);
    EXPECT_FALSE(net->idle());

    ni1->command(nextCmd());
    drain();
    EXPECT_TRUE(net->idle());
    EXPECT_EQ(ni1->numReceived(), 4u);
}

TEST_F(NiFlowControl, QueueLengthsInStatus)
{
    NiConfig cfg = optCfg();
    build(cfg);
    send(*ni0, 1, 2);
    send(*ni0, 1, 2);
    Word st = ni0->readReg(regStatus);
    EXPECT_EQ(bits(st, status::outputLenShift + 7,
                   status::outputLenShift), 2u);
    drain();
    // After draining: 1 in ni1's input regs, 1 queued.
    st = ni1->readReg(regStatus);
    EXPECT_EQ(bits(st, status::inputLenShift + 7,
                   status::inputLenShift), 1u);
}

TEST_F(NiBasicOps, MessageTracing)
{
    build(optCfg());

    // Capture the NI trace flag's lines around a send + receive.
    const bool was_on = trace::enabled(trace::Flag::NI);
    std::ostringstream log;
    trace::setStream(&log);
    trace::enable(trace::Flag::NI);
    send(*ni0, 1, 3, 0x42);
    drain();
    if (!was_on)
        trace::disable(trace::Flag::NI);
    trace::setStream(nullptr);

    EXPECT_NE(log.str().find("ni0: SEND id="), std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("ni1: RX id="), std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("type=3"), std::string::npos) << log.str();
}
