/**
 * @file
 * Differential property test for the event kernel: randomized
 * (tick, priority) event streams -- including in-process()
 * reschedules, deschedules, and cross-scheduling -- are driven
 * through the calendar EventQueue and the test-only binary-heap
 * ReferenceQueue (reference_queue.hh), which must produce
 * bit-identical firing orders.  The corpus forces same-tick/
 * same-priority ties, far-future overflow traffic, ring-window
 * boundary crossings, and maxTick edges.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "reference_queue.hh"
#include "sim/event_queue.hh"

using namespace tcpni;

namespace
{

template <class Queue>
struct World;

template <class Queue>
class FuzzEvent : public Event
{
  public:
    FuzzEvent(World<Queue> &w, int id, int pri)
        : Event(pri), world_(w), id_(id)
    {}

    void process() override;
    std::string name() const override
    {
        return "fuzz" + std::to_string(id_);
    }

  private:
    World<Queue> &world_;
    int id_;
};

/** One queue plus its identically-seeded decision stream and firing
 *  log. */
template <class Queue>
struct World
{
    World(uint64_t seed, size_t nevents, size_t budget)
        : rng(seed), budget_(budget)
    {
        // Priority pool: the simulator's bands plus odd stragglers,
        // repeated so same-priority ties are common.
        static const int pris[] = {10, 10, 20, 30, 50, 50, 90, 7, 50};
        for (size_t i = 0; i < nevents; ++i) {
            events.push_back(std::make_unique<FuzzEvent<Queue>>(
                *this, static_cast<int>(i),
                pris[i % (sizeof(pris) / sizeof(pris[0]))]));
        }
    }

    ~World()
    {
        for (auto &ev : events)
            if (scheduled(*ev))
                eq.deschedule(ev.get());
    }

    /** The reference queue keeps this bookkeeping itself rather than
     *  in the Event. */
    bool
    scheduled(const Event &ev) const
    {
        if constexpr (std::is_same_v<Queue, ReferenceQueue>)
            return eq.scheduled(&ev);
        else
            return ev.scheduled();
    }

    /** Initial schedule: clustered near ticks (ties), sprinkled
     *  across the ring window edge and deep into overflow range. */
    void
    seedSchedule()
    {
        for (auto &ev : events) {
            uint32_t bucket = rng.uniform(0, 9);
            Tick when;
            if (bucket < 5)
                when = rng.uniform(0, 8);           // heavy ties
            else if (bucket < 7)
                when = rng.uniform(0, 2000);        // window span
            else if (bucket < 9)
                when = 1020 + rng.uniform(0, 8);    // ring boundary
            else
                when = 100000 + rng.uniform(0, 500); // far overflow
            eq.schedule(ev.get(), when);
        }
    }

    bool
    spendBudget()
    {
        if (budget_ == 0)
            return false;
        --budget_;
        return true;
    }

    Queue eq;
    Random rng;
    std::vector<std::unique_ptr<FuzzEvent<Queue>>> events;
    std::vector<std::pair<int, Tick>> log;

  private:
    size_t budget_;
};

template <class Queue>
void
FuzzEvent<Queue>::process()
{
    World<Queue> &w = world_;
    w.log.emplace_back(id_, w.eq.curTick());

    if (!w.spendBudget())
        return;     // drain: stop generating new work

    Tick now = w.eq.curTick();
    uint32_t action = w.rng.uniform(0, 9);
    if (action < 4) {
        // Reschedule self: same tick, near future, or past the ring
        // window into the overflow heap.
        static const Tick deltas[] = {0, 1, 3, 40, 1023, 1024, 1025,
                                      5000};
        w.eq.schedule(this, now + deltas[w.rng.uniform(0, 7)]);
    } else if (action < 7) {
        // Schedule an idle peer (possibly for the current tick, which
        // must fire later this tick in seq order).
        FuzzEvent<Queue> &p = *w.events[w.rng.uniform(
            0, static_cast<uint32_t>(w.events.size()) - 1)];
        if (!w.scheduled(p))
            w.eq.schedule(&p, now + w.rng.uniform(0, 6));
    } else if (action < 9) {
        // Deschedule a random scheduled peer (stale-entry pressure).
        FuzzEvent<Queue> &p = *w.events[w.rng.uniform(
            0, static_cast<uint32_t>(w.events.size()) - 1)];
        if (&p != this && w.scheduled(p))
            w.eq.deschedule(&p);
    } else {
        // Deschedule + immediately reschedule (seq bump).
        FuzzEvent<Queue> &p = *w.events[w.rng.uniform(
            0, static_cast<uint32_t>(w.events.size()) - 1)];
        if (&p != this && w.scheduled(p))
            w.eq.reschedule(&p, now + w.rng.uniform(0, 100));
    }
}

/** Drive both worlds with an identical interleaving of bounded run()
 *  and step() calls, then compare every observable. */
void
runDifferential(uint64_t seed, size_t nevents, size_t budget)
{
    World<EventQueue> cal(seed, nevents, budget);
    World<ReferenceQueue> heap(seed, nevents, budget);
    cal.seedSchedule();
    heap.seedSchedule();

    // Shared driver decisions from a third stream.
    Random driver(seed ^ 0xdecafbadULL);
    while (!cal.eq.empty() || !heap.eq.empty()) {
        uint32_t mode = driver.uniform(0, 3);
        if (mode == 0) {
            // A few single steps.
            unsigned steps = driver.uniform(1, 5);
            for (unsigned i = 0; i < steps; ++i) {
                bool a = cal.eq.step();
                bool b = heap.eq.step();
                ASSERT_EQ(a, b);
            }
        } else if (mode == 1) {
            // Bounded run ending between events (max_tick edges).
            Tick bound = cal.eq.curTick() + driver.uniform(0, 1500);
            cal.eq.run(bound);
            heap.eq.run(bound);
        } else {
            cal.eq.run();
            heap.eq.run();
        }
        ASSERT_EQ(cal.eq.curTick(), heap.eq.curTick());
        ASSERT_EQ(cal.eq.size(), heap.eq.size());
        ASSERT_EQ(cal.log.size(), heap.log.size());
    }

    EXPECT_EQ(cal.log, heap.log);
    EXPECT_EQ(cal.eq.numProcessed(), heap.eq.numProcessed());
    EXPECT_GT(cal.eq.numProcessed(), nevents);  // reschedules happened
}

} // namespace

class EventKernelFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EventKernelFuzz, CalendarMatchesHeapExactly)
{
    runDifferential(GetParam(), 40, 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventKernelFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           0xdeadbeefULL,
                                           0x1234567890ULL));

namespace
{

template <class Queue>
void
maxTickEventsFire()
{
    // maxTick is a legal schedule target; the calendar queue must park
    // it in the overflow heap (the ring window saturates) and still
    // fire it last, in (priority, seq) order.
    Queue eq;
    std::vector<int> order;
    LambdaEvent near([&] { order.push_back(0); });
    LambdaEvent atMax1([&] { order.push_back(1); }, Event::defaultPri);
    LambdaEvent atMax2([&] { order.push_back(2); }, Event::networkPri);
    eq.schedule(&near, 10);
    eq.schedule(&atMax1, maxTick);
    eq.schedule(&atMax2, maxTick);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(eq.curTick(), maxTick);
    EXPECT_TRUE(eq.empty());
}

template <class Queue>
void
boundedRunStopsBeforeLaterEvents()
{
    // run(max_tick) must not fire events past the bound, must not
    // advance curTick to the bound, and must resume correctly -- both
    // for ring-window events and overflow events.
    Queue eq;
    std::vector<int> order;
    LambdaEvent a([&] { order.push_back(0); });
    LambdaEvent b([&] { order.push_back(1); });
    LambdaEvent c([&] { order.push_back(2); });
    eq.schedule(&a, 100);
    eq.schedule(&b, 2000);      // beyond the first ring window
    eq.schedule(&c, 100000);    // overflow
    EXPECT_EQ(eq.run(99), 0u);
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(eq.run(100), 100u);
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(eq.run(99999), 2000u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.curTick(), 100000u);
}

template <class Queue>
void
ringBoundaryTies()
{
    // Events straddling the 1024-tick ring boundary with equal
    // priorities keep insertion order per tick.
    Queue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<LambdaEvent>> evs;
    // Interleave schedule ticks 1023, 1024, 1025 repeatedly; all
    // equal priority, so per-tick order must follow seq.
    for (int i = 0; i < 12; ++i) {
        evs.push_back(std::make_unique<LambdaEvent>(
            [&order, i] { order.push_back(i); }));
        eq.schedule(evs.back().get(), 1023 + static_cast<Tick>(i % 3));
    }
    eq.run();
    std::vector<int> expect{0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11};
    EXPECT_EQ(order, expect);
}

} // namespace

// Each edge runs on the calendar queue and on the reference, so the
// oracle itself is pinned at the edges it arbitrates.
TEST(EventKernelEdge, MaxTickEventsFire)
{
    maxTickEventsFire<EventQueue>();
    maxTickEventsFire<ReferenceQueue>();
}

TEST(EventKernelEdge, BoundedRunStopsBeforeLaterEvents)
{
    boundedRunStopsBeforeLaterEvents<EventQueue>();
    boundedRunStopsBeforeLaterEvents<ReferenceQueue>();
}

TEST(EventKernelEdge, RingBoundaryTies)
{
    ringBoundaryTies<EventQueue>();
    ringBoundaryTies<ReferenceQueue>();
}
