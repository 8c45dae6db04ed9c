#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

/** A code block with n inlets; inlet i appends i to order and the
 *  delivered value to got. */
std::unique_ptr<CodeBlock>
recordingBlock(unsigned n, std::vector<unsigned> &order,
               std::vector<Value> &got)
{
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "readers";
    cb->numLocals = 1;
    for (unsigned i = 0; i < n; ++i) {
        cb->inlets.push_back(
            [&order, &got, i](Machine &, Frame &, const Payload &vals) {
                order.push_back(i);
                got.push_back(vals.at(0));
            });
    }
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

TEST(TamIStruct, DoubleStorePanicsAfterCountingThePWrite)
{
    Machine m;
    ArrayRef a = m.heapAlloc(2);
    m.istore(a, 0, 1);
    EXPECT_THROW(m.istore(a, 0, 2), PanicError);
    EXPECT_EQ(m.stats().msg(MsgKind::pwrite), 2u);
    EXPECT_EQ(m.arrayPeek(a, 0), 1.0);
}

TEST(TamIStruct, OutOfRangeIndexPanics)
{
    Machine m;
    ArrayRef a = m.heapAlloc(2);
    auto cb = simpleBlock([](Machine &, Frame &) {});
    Frame &f = m.falloc(cb.get());
    EXPECT_THROW(m.ifetch(a, 2, m.cont(f, 0)), PanicError);
    EXPECT_THROW(m.istore(a, 5, 0), PanicError);
    EXPECT_THROW(m.arrayState(a, 99), PanicError);
    EXPECT_THROW(m.arrayPeek(a, 2), PanicError);
    // An empty array has no index at all.
    ArrayRef none = m.heapAlloc(0);
    EXPECT_THROW(m.arrayState(none, 0), PanicError);
}

TEST(TamIStruct, UnknownArrayPanics)
{
    Machine m;
    m.heapAlloc(2);
    auto cb = simpleBlock([](Machine &, Frame &) {});
    Frame &f = m.falloc(cb.get());
    const ArrayRef unknown{1};
    EXPECT_THROW(m.ifetch(unknown, 0, m.cont(f, 0)), PanicError);
    EXPECT_THROW(m.istore(unknown, 0, 0), PanicError);
    EXPECT_THROW(m.arrayState(unknown, 0), PanicError);
    EXPECT_THROW(m.arrayPeek(unknown, 0), PanicError);
}

TEST(TamIStruct, PeekOfNonFullElementPanics)
{
    Machine m;
    ArrayRef a = m.heapAlloc(2);
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "reader";
    cb->numLocals = 1;
    cb->inlets.push_back([](Machine &, Frame &, const Payload &) {});
    Frame &f = m.falloc(cb.get());

    EXPECT_THROW(m.arrayPeek(a, 0), PanicError);    // EMPTY
    m.ifetch(a, 0, m.cont(f, 0));
    ASSERT_EQ(m.arrayState(a, 0), Presence::deferred);
    EXPECT_THROW(m.arrayPeek(a, 0), PanicError);    // DEFERRED
}

// The I-structure presence protocol (Section 4.2.1) on the machine's
// element store: EMPTY -> DEFERRED on a fetch, FULL on the store, and
// the deferred readers released in arrival order.

TEST(IStruct, StartsEmpty)
{
    Machine m;
    ArrayRef a = m.heapAlloc(8);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(m.arrayState(a, i), Presence::empty);
}

TEST(IStruct, WriteThenReadIsFull)
{
    Machine m;
    ArrayRef a = m.heapAlloc(4);
    std::vector<unsigned> order;
    std::vector<Value> got;
    auto cb = recordingBlock(1, order, got);
    Frame &f = m.falloc(cb.get());

    m.istore(a, 2, 99);
    EXPECT_EQ(m.arrayState(a, 2), Presence::full);
    EXPECT_EQ(m.arrayPeek(a, 2), 99.0);

    m.ifetch(a, 2, m.cont(f, 0));
    EXPECT_EQ(got, std::vector<Value>{99.0});
    // Reading a full element leaves it full, and its neighbours empty.
    EXPECT_EQ(m.arrayState(a, 2), Presence::full);
    EXPECT_EQ(m.arrayState(a, 1), Presence::empty);
    EXPECT_EQ(m.arrayState(a, 3), Presence::empty);
}

TEST(IStruct, ReadOfEmptyDefers)
{
    Machine m;
    ArrayRef a = m.heapAlloc(4);
    std::vector<unsigned> order;
    std::vector<Value> got;
    auto cb = recordingBlock(1, order, got);
    Frame &f = m.falloc(cb.get());

    m.ifetch(a, 1, m.cont(f, 0));
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(m.arrayState(a, 1), Presence::deferred);
    EXPECT_EQ(m.stats().msg(MsgKind::preadEmpty), 1u);
    EXPECT_EQ(m.stats().replies, 0u);
}

TEST(IStruct, WriteReleasesDeferredInArrivalOrder)
{
    Machine m;
    ArrayRef a = m.heapAlloc(4);
    std::vector<unsigned> order;
    std::vector<Value> got;
    auto cb = recordingBlock(3, order, got);
    Frame &f = m.falloc(cb.get());

    // Arrival order differs from inlet order.
    m.ifetch(a, 0, m.cont(f, 2));
    m.ifetch(a, 0, m.cont(f, 0));
    m.ifetch(a, 0, m.cont(f, 1));
    EXPECT_TRUE(order.empty());

    m.istore(a, 0, 555);
    EXPECT_EQ(order, (std::vector<unsigned>{2, 0, 1}));
    EXPECT_EQ(got, std::vector<Value>(3, 555.0));
    EXPECT_EQ(m.arrayState(a, 0), Presence::full);
    EXPECT_EQ(m.arrayPeek(a, 0), 555.0);
}

TEST(IStruct, ReadAfterDeferredWriteIsImmediate)
{
    Machine m;
    ArrayRef a = m.heapAlloc(2);
    std::vector<unsigned> order;
    std::vector<Value> got;
    auto cb = recordingBlock(2, order, got);
    Frame &f = m.falloc(cb.get());

    m.ifetch(a, 0, m.cont(f, 0));
    m.istore(a, 0, 7);
    m.ifetch(a, 0, m.cont(f, 1));
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(got, (std::vector<Value>{7.0, 7.0}));
    EXPECT_EQ(m.stats().msg(MsgKind::preadFull), 1u);
    EXPECT_EQ(m.stats().replies, 2u);
}

// Property sweep: one store releases n deferred readers, each on its
// own inlet, in the order they arrived: the PWrite(deferred) handler's
// n-iteration forwarding loop.
class DeferredSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DeferredSweep, AllReadersReleased)
{
    const unsigned n = static_cast<unsigned>(GetParam());
    Machine m;
    ArrayRef a = m.heapAlloc(1);
    std::vector<unsigned> order;
    std::vector<Value> got;
    auto cb = recordingBlock(n, order, got);
    Frame &f = m.falloc(cb.get());

    for (unsigned i = 0; i < n; ++i)
        m.ifetch(a, 0, m.cont(f, i));
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(m.stats().msg(MsgKind::preadEmpty), n ? 1u : 0u);
    EXPECT_EQ(m.stats().msg(MsgKind::preadDeferred), n ? n - 1 : 0u);

    m.istore(a, 0, 42.5);
    std::vector<unsigned> arrival(n);
    for (unsigned i = 0; i < n; ++i)
        arrival[i] = i;
    EXPECT_EQ(order, arrival);
    EXPECT_EQ(got, std::vector<Value>(n, 42.5));
    EXPECT_EQ(m.stats().replies, n);
    EXPECT_EQ(m.stats().pwriteReleases, n);
    EXPECT_EQ(m.stats().pwriteWithDeferred, n ? 1u : 0u);
    EXPECT_EQ(m.arrayState(a, 0), Presence::full);
}

INSTANTIATE_TEST_SUITE_P(Counts, DeferredSweep,
                         ::testing::Values(0, 1, 2, 5, 16, 100));

// A released reader may fetch the element it was waiting on (FULL by
// then) and allocate new arrays; the readers queued after it are still
// released, once each.
TEST(TamIStruct, ReleasedReaderMayFetchAgainAndAllocate)
{
    Machine m;
    ArrayRef a = m.heapAlloc(1);
    std::vector<unsigned> order;
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "readers";
    cb->numLocals = 1;
    cb->inlets.push_back(
        [&order, a](Machine &mm, Frame &f, const Payload &) {
            order.push_back(0);
            for (int i = 0; i < 64; ++i)
                mm.heapAlloc(16);
            mm.ifetch(a, 0, mm.cont(f, 2));
        });
    cb->inlets.push_back([&order](Machine &, Frame &, const Payload &) {
        order.push_back(1);
    });
    cb->inlets.push_back([&order](Machine &, Frame &, const Payload &) {
        order.push_back(2);
    });
    Frame &f = m.falloc(cb.get());

    m.ifetch(a, 0, m.cont(f, 0));
    m.ifetch(a, 0, m.cont(f, 1));
    m.istore(a, 0, 3);
    // Inlet 0's fetch is FULL and replies before inlet 1 is released.
    EXPECT_EQ(order, (std::vector<unsigned>{0, 2, 1}));
    EXPECT_EQ(m.stats().pwriteReleases, 2u);
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
    cb->name = "totals";
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
