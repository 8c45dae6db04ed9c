#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "tam/machine.hh"

using namespace tcpni;
using namespace tcpni::tam;

namespace
{

/** A code block whose single thread runs a callback. */
std::unique_ptr<CodeBlock>
simpleBlock(CodeBlock::Thread t, unsigned locals = 4)
{
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "simple";
    cb->numLocals = locals;
    cb->threads.push_back(std::move(t));
    return cb;
}

} // namespace

TEST(TamMachine, RunsForkedThread)
{
    Machine m;
    int hits = 0;
    auto cb = simpleBlock([&](Machine &, Frame &) { ++hits; });
    Frame &f = m.falloc(cb.get());
    m.fork(f, 0);
    m.run();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(m.stats().op(Op::ctlSwitch), 1u);
    EXPECT_EQ(m.stats().op(Op::ctlFork), 1u);
}

TEST(TamMachine, LifoOrder)
{
    Machine m;
    std::vector<int> order;
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "lifo";
    cb->numLocals = 1;
    for (int t = 0; t < 3; ++t) {
        cb->threads.push_back(
            [&order, t](Machine &, Frame &) { order.push_back(t); });
    }
    Frame &f = m.falloc(cb.get());
    m.fork(f, 0);
    m.fork(f, 1);
    m.fork(f, 2);
    m.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(TamMachine, FrameSlotsCounted)
{
    Machine m;
    auto cb = simpleBlock([](Machine &mm, Frame &f) {
        mm.frameSet(f, 0, 41);
        mm.frameSet(f, 1, mm.frameGet(f, 0) + 1);
    });
    Frame &f = m.falloc(cb.get());
    m.fork(f, 0);
    m.run();
    EXPECT_EQ(f.locals[1], 42.0);
    EXPECT_EQ(m.stats().op(Op::frameStore), 2u);
    EXPECT_EQ(m.stats().op(Op::frameLoad), 1u);
}

TEST(TamMachine, FrameSlotOutOfRangePanics)
{
    Machine m;
    auto cb = simpleBlock([](Machine &mm, Frame &f) {
        mm.frameSet(f, 99, 1);
    });
    Frame &f = m.falloc(cb.get());
    m.fork(f, 0);
    EXPECT_THROW(m.run(), PanicError);
}

TEST(TamMachine, SyncCounterEnablesAtZero)
{
    Machine m;
    int fired = 0;
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "sync";
    cb->numLocals = 1;
    cb->threads.push_back([&](Machine &, Frame &) { ++fired; });
    Frame &f = m.falloc(cb.get());
    m.frameSet(f, 0, 3);
    m.syncDec(f, 0, 0);
    m.syncDec(f, 0, 0);
    EXPECT_EQ(fired, 0);
    m.syncDec(f, 0, 0);
    m.run();
    EXPECT_EQ(fired, 1);
}

TEST(TamMachine, SyncUnderflowPanics)
{
    Machine m;
    auto cb = simpleBlock([](Machine &, Frame &) {});
    Frame &f = m.falloc(cb.get());
    m.frameSet(f, 0, 1);
    m.syncDec(f, 0, 0);     // reaches zero: fires
    EXPECT_THROW(m.syncDec(f, 0, 0), PanicError);
}

TEST(TamMachine, SendInvokesInlet)
{
    Machine m;
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "recv";
    cb->numLocals = 2;
    cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &vals) {
            mm.frameSet(f, 0, vals.at(0));
            mm.frameSet(f, 1, vals.at(1));
        });
    Frame &f = m.falloc(cb.get());
    m.send(m.cont(f, 0), {7, 8});
    EXPECT_EQ(f.locals[0], 7.0);
    EXPECT_EQ(f.locals[1], 8.0);
    EXPECT_EQ(m.stats().msg(MsgKind::send2), 1u);
}

TEST(TamMachine, SendWordCountClassifies)
{
    Machine m;
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "recv";
    cb->numLocals = 1;
    cb->inlets.push_back(
        [](Machine &, Frame &, const Payload &) {});
    Frame &f = m.falloc(cb.get());
    m.send(m.cont(f, 0), {});
    m.send(m.cont(f, 0), {1});
    m.send(m.cont(f, 0), {1, 2});
    EXPECT_EQ(m.stats().msg(MsgKind::send0), 1u);
    EXPECT_EQ(m.stats().msg(MsgKind::send1), 1u);
    EXPECT_EQ(m.stats().msg(MsgKind::send2), 1u);
    EXPECT_THROW(m.send(m.cont(f, 0), {1, 2, 3}), PanicError);
}

TEST(TamMachine, InletReadingAnUncarriedWordPanics)
{
    Machine m;
    CellRef cell = m.cellAlloc(5);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "recv";
    cb->numLocals = 2;
    cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &vals) {
            mm.frameSet(f, 0, vals.at(0));
            mm.frameSet(f, 1, vals.at(1));
        });
    Frame &f = m.falloc(cb.get());
    EXPECT_THROW(m.send(m.cont(f, 0), {}), PanicError);
    EXPECT_THROW(m.send(m.cont(f, 0), {7}), PanicError);
    // A Read reply carries one word.
    EXPECT_THROW(m.remoteRead(cell, m.cont(f, 0)), PanicError);
    m.send(m.cont(f, 0), {7, 8});
    EXPECT_EQ(f.locals[1], 8.0);
}

TEST(TamMachine, FreedFramePanicsOnUse)
{
    Machine m;
    auto cb = simpleBlock([](Machine &, Frame &) {});
    Frame &f = m.falloc(cb.get());
    uint32_t id = f.id();
    m.ffree(f);
    EXPECT_THROW(m.frame(id), PanicError);
    EXPECT_THROW(m.ffree(f), PanicError);
    EXPECT_EQ(m.liveFrames(), 0u);
}

TEST(TamIStruct, FullFetchRepliesImmediately)
{
    Machine m;
    ArrayRef a = m.heapAlloc(4);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "reader";
    cb->numLocals = 1;
    cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &vals) {
            mm.frameSet(f, 0, vals.at(0));
        });
    Frame &f = m.falloc(cb.get());

    m.istore(a, 2, 3.5);
    m.ifetch(a, 2, m.cont(f, 0));
    EXPECT_EQ(f.locals[0], 3.5);
    EXPECT_EQ(m.stats().msg(MsgKind::preadFull), 1u);
    EXPECT_EQ(m.stats().msg(MsgKind::pwrite), 1u);
    EXPECT_EQ(m.stats().replies, 1u);
}

TEST(TamIStruct, EmptyFetchDefersUntilStore)
{
    Machine m;
    ArrayRef a = m.heapAlloc(4);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "reader";
    cb->numLocals = 2;
    cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &vals) {
            mm.frameSet(f, 0, vals.at(0));
            mm.frameSet(f, 1, 1);   // arrived flag
        });
    Frame &f = m.falloc(cb.get());

    m.ifetch(a, 0, m.cont(f, 0));
    EXPECT_EQ(f.locals[1], 0.0);
    EXPECT_EQ(m.stats().msg(MsgKind::preadEmpty), 1u);

    m.istore(a, 0, 9.25);
    EXPECT_EQ(f.locals[0], 9.25);
    EXPECT_EQ(f.locals[1], 1.0);
    EXPECT_EQ(m.stats().pwriteWithDeferred, 1u);
    EXPECT_EQ(m.stats().pwriteReleases, 1u);
}

TEST(TamIStruct, DeferredClassification)
{
    Machine m;
    ArrayRef a = m.heapAlloc(1);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "reader";
    cb->numLocals = 1;
    cb->inlets.push_back(
        [](Machine &, Frame &, const Payload &) {});
    Frame &f = m.falloc(cb.get());

    m.ifetch(a, 0, m.cont(f, 0));   // empty
    m.ifetch(a, 0, m.cont(f, 0));   // deferred
    m.ifetch(a, 0, m.cont(f, 0));   // deferred
    EXPECT_EQ(m.stats().msg(MsgKind::preadEmpty), 1u);
    EXPECT_EQ(m.stats().msg(MsgKind::preadDeferred), 2u);

    m.istore(a, 0, 1);
    EXPECT_EQ(m.stats().pwriteReleases, 3u);
    EXPECT_EQ(m.stats().replies, 3u);
}

TEST(TamCells, ReadWriteRoundTrip)
{
    Machine m;
    CellRef c = m.cellAlloc(5);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "tally";
    cb->numLocals = 1;
    cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &vals) {
            mm.frameSet(f, 0, vals.at(0));
        });
    Frame &f = m.falloc(cb.get());

    m.remoteRead(c, m.cont(f, 0));
    EXPECT_EQ(f.locals[0], 5.0);
    m.remoteWrite(c, 6);
    EXPECT_EQ(m.cellValue(c), 6.0);
    EXPECT_EQ(m.stats().msg(MsgKind::read), 1u);
    EXPECT_EQ(m.stats().msg(MsgKind::write), 1u);
}

TEST(TamStatsTest, TotalMessagesIncludesReplies)
{
    Machine m;
    ArrayRef a = m.heapAlloc(1);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "x";
    cb->numLocals = 1;
    cb->inlets.push_back(
        [](Machine &, Frame &, const Payload &) {});
    Frame &f = m.falloc(cb.get());
    m.istore(a, 0, 1);
    m.ifetch(a, 0, m.cont(f, 0));
    // pwrite + pread_full + 1 reply = 3 network messages.
    EXPECT_EQ(m.stats().totalMessages(), 3u);
}

TEST(TamMachine, RunawayGuard)
{
    MachineConfig cfg;
    cfg.maxSteps = 1000;
    Machine m(cfg);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "loop";
    cb->numLocals = 1;
    cb->threads.push_back([](Machine &mm, Frame &f) {
        mm.iop(10);
        mm.fork(f, 0);      // forever
    });
    Frame &f = m.falloc(cb.get());
    m.fork(f, 0);
    EXPECT_THROW(m.run(), PanicError);
}
