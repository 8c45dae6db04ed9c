#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "sim/event_queue.hh"

using namespace tcpni;

namespace
{

struct Recorder : public Event
{
    Recorder(std::vector<int> &log, int id, int pri = Event::defaultPri)
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

} // namespace

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&b, 20);
    eq.schedule(&a, 10);
    eq.schedule(&c, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.schedule(&c, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityWithinTick)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder lo(log, 1, Event::cpuPri);
    Recorder hi(log, 2, Event::networkPri);
    eq.schedule(&lo, 5);
    eq.schedule(&hi, 5);
    eq.run();
    // Lower priority value fires first.
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, ScheduleInPastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.run();
    EXPECT_THROW(eq.schedule(&b, 5), PanicError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.schedule(&a, 10);
    EXPECT_THROW(eq.schedule(&a, 20), PanicError);
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, DescheduleUnscheduledPanics)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    EXPECT_THROW(eq.deschedule(&a), PanicError);
}

TEST(EventQueue, Reschedule)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 30);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleAfterSquashReuses)
{
    // Deschedule then reschedule the same event: the squashed queue
    // entry must not cause a double fire.
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.schedule(&a, 10);
    eq.deschedule(&a);
    eq.schedule(&a, 15);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueue, SelfRescheduling)
{
    EventQueue eq;

    struct Ticker : public Event
    {
        EventQueue &eq;
        int count = 0;
        explicit Ticker(EventQueue &q) : eq(q) {}
        void process() override
        {
            if (++count < 5)
                eq.schedule(this, eq.curTick() + 2);
        }
    } t(eq);

    eq.schedule(&t, 0);
    eq.run();
    EXPECT_EQ(t.count, 5);
    EXPECT_EQ(eq.curTick(), 8u);
}

TEST(EventQueue, RunWithMaxTick)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 100);
    eq.run(50);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, StepOne)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, LambdaEvent)
{
    EventQueue eq;
    int hits = 0;
    LambdaEvent ev([&] { ++hits; });
    eq.schedule(&ev, 3);
    eq.run();
    EXPECT_EQ(hits, 1);
}

TEST(EventQueue, SizeTracksScheduled)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    EXPECT_TRUE(eq.empty());
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    EXPECT_EQ(eq.size(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueuePeek, NextEventTickTracksSchedule)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    eq.schedule(&a, 30);
    EXPECT_EQ(eq.nextEventTick(), 30u);
    eq.schedule(&b, 10);     // a new earliest event
    EXPECT_EQ(eq.nextEventTick(), 10u);
    eq.deschedule(&b);       // and gone again
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
