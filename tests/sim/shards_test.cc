#include <gtest/gtest.h>

#include <vector>

#include "sim/shards.hh"

using namespace tcpni;

namespace
{

struct Recorder : public Event
{
    Recorder(std::vector<int> &log, int id,
             int pri = Event::defaultPri)
        : Event(pri), log_(log), id_(id)
    {}
    void process() override { log_.push_back(id_); }
    std::string name() const override
    {
        return "rec" + std::to_string(id_);
    }

    std::vector<int> &log_;
    int id_;
};

/** Fires once, then pings an event on another queue one tick after
 *  its own now (the mesh's cross-shard push shape). */
struct CrossPush : public Event
{
    CrossPush(ShardedEngine &engine, EventQueue &src,
              unsigned target_shard, Event &target)
        : engine_(engine), src_(src), targetShard_(target_shard),
          target_(target)
    {}
    void
    process() override
    {
        engine_.shard(targetShard_)
            .schedule(&target_, src_.curTick() + 1);
        engine_.noteCrossShardPush();
    }
    std::string name() const override { return "cross-push"; }

    ShardedEngine &engine_;
    EventQueue &src_;
    unsigned targetShard_;
    Event &target_;
};

} // namespace

TEST(ShardPlan, ClampsToValidRange)
{
    EXPECT_EQ(ShardPlan::rows(4, 4, 0).shards, 1u);
    EXPECT_EQ(ShardPlan::rows(4, 4, 3).shards, 3u);
    EXPECT_EQ(ShardPlan::rows(4, 4, 9).shards, 4u);
}

TEST(ShardPlan, RowsAreContiguousAndMonotone)
{
    for (unsigned shards : {1u, 2u, 3u, 5u, 8u}) {
        ShardPlan p = ShardPlan::rows(3, 8, shards);
        unsigned prev = 0;
        for (unsigned r = 0; r < p.height; ++r) {
            unsigned s = p.shardOfRow(r);
            EXPECT_GE(s, prev);           // monotone in row order
            EXPECT_LT(s, p.shards);
            prev = s;
        }
        EXPECT_EQ(p.shardOfRow(p.height - 1), p.shards - 1);
        // firstRow() inverts shardOfRow at each band boundary.
        for (unsigned s = 0; s < p.shards; ++s) {
            unsigned fr = p.firstRow(s);
            EXPECT_EQ(p.shardOfRow(fr), s);
            if (fr > 0)
                EXPECT_EQ(p.shardOfRow(fr - 1), s - 1);
        }
    }
}

TEST(ShardPlan, NodeMapsThroughItsRow)
{
    ShardPlan p = ShardPlan::rows(4, 8, 4);
    for (NodeId n = 0; n < 32; ++n)
        EXPECT_EQ(p.shardOfNode(n), p.shardOfRow(n / 4));
}

TEST(ShardedEngine, SingleShardMatchesEventQueueRun)
{
    ShardedEngine engine(1);
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), c(log, 3);
    engine.shard(0).schedule(&b, 20);
    engine.shard(0).schedule(&a, 10);
    engine.shard(0).schedule(&c, 30);
    EXPECT_EQ(engine.run(), 30u);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.curTick(), 30u);
    EXPECT_TRUE(engine.empty());
}

TEST(ShardedEngine, LockstepRoundsMergeInShardOrder)
{
    ShardedEngine engine(3);
    std::vector<int> log;
    // Same tick on every shard: must fire in ascending shard order.
    Recorder s0(log, 0), s1(log, 1), s2(log, 2);
    engine.shard(2).schedule(&s2, 5);
    engine.shard(0).schedule(&s0, 5);
    engine.shard(1).schedule(&s1, 5);
    engine.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngine, InterleavedTicksFireInTimeOrder)
{
    ShardedEngine engine(2);
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), c(log, 3), d(log, 4);
    engine.shard(0).schedule(&a, 10);
    engine.shard(1).schedule(&b, 11);
    engine.shard(0).schedule(&c, 12);
    engine.shard(1).schedule(&d, 13);
    EXPECT_EQ(engine.run(), 13u);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_GE(engine.soloWindows(), 1u);
}

TEST(ShardedEngine, RespectsMaxTickInclusive)
{
    ShardedEngine engine(2);
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), late(log, 3);
    engine.shard(0).schedule(&a, 10);
    engine.shard(1).schedule(&b, 20);
    engine.shard(0).schedule(&late, 21);
    engine.run(20);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_FALSE(engine.empty());
    engine.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(ShardedEngine, CrossShardPushLandsInTheFuture)
{
    ShardedEngine engine(2);
    std::vector<int> log;
    Recorder target(log, 9);
    CrossPush push(engine, engine.shard(0), 1, target);
    // Shard 1 is far ahead-of-schedule when the push happens; the
    // pushed event must still fire at its own tick, never in shard
    // 1's past.
    Recorder busy(log, 1);
    engine.shard(1).schedule(&busy, 3);
    engine.shard(0).schedule(&push, 50);
    engine.run();
    EXPECT_EQ(log, (std::vector<int>{1, 9}));
    EXPECT_EQ(engine.crossShardPushes(), 1u);
    EXPECT_EQ(engine.shard(1).curTick(), 51u);
}

TEST(ShardedEngine, TraceIdLanesAreDisjoint)
{
    ShardedEngine engine(4);
    // Shard s draws s+1, s+1+4, s+1+8, ...: no two shards can ever
    // mint the same id, and shard 0's lane starts at 1 like an
    // unsharded queue.
    EXPECT_EQ(engine.shard(0).nextTraceId(), 1u);
    EXPECT_EQ(engine.shard(0).nextTraceId(), 5u);
    EXPECT_EQ(engine.shard(1).nextTraceId(), 2u);
    EXPECT_EQ(engine.shard(3).nextTraceId(), 4u);
    EXPECT_EQ(engine.shard(3).nextTraceId(), 8u);

    ShardedEngine single(1);
    EXPECT_EQ(single.shard(0).nextTraceId(), 1u);
    EXPECT_EQ(single.shard(0).nextTraceId(), 2u);
}

TEST(EventQueuePeek, NextEventTickTracksSchedule)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    eq.schedule(&a, 30);
    EXPECT_EQ(eq.nextEventTick(), 30u);
    eq.schedule(&b, 10);     // lowers the cached minimum
    EXPECT_EQ(eq.nextEventTick(), 10u);
    eq.deschedule(&b);       // invalidates it again
    EXPECT_EQ(eq.nextEventTick(), 30u);
    eq.run();
    EXPECT_EQ(eq.nextEventTick(), maxTick);
}

TEST(EventQueuePeek, NextEventTickSkipsDescheduled)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 5);
    eq.schedule(&b, 9);
    eq.deschedule(&a);
    EXPECT_EQ(eq.nextEventTick(), 9u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueueRunWindow, StopsAtBoundInclusive)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 5);
    eq.schedule(&b, 10);
    eq.schedule(&c, 11);
    bool stop = false;
    eq.runWindow(10, stop);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.nextEventTick(), 11u);
}

namespace
{

/** Sets a flag when fired, modelling a cross-shard push mid-window. */
struct FlagSetter : public Event
{
    FlagSetter(std::vector<int> &log, int id, bool &flag)
        : log_(log), id_(id), flag_(flag)
    {}
    void
    process() override
    {
        log_.push_back(id_);
        flag_ = true;
    }
    std::string name() const override { return "flag-setter"; }

    std::vector<int> &log_;
    int id_;
    bool &flag_;
};

} // namespace

TEST(EventQueueRunWindow, StopFlagFinishesCurrentTickOnly)
{
    EventQueue eq;
    std::vector<int> log;
    bool stop = false;
    FlagSetter trigger(log, 1, stop);
    Recorder same_tick(log, 2), later(log, 3);
    eq.schedule(&trigger, 5);
    eq.schedule(&same_tick, 5);   // same tick: still fires
    eq.schedule(&later, 6);       // next tick: window is over
    eq.runWindow(100, stop);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.nextEventTick(), 6u);
}
