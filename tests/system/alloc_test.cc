/**
 * @file
 * Zero-allocation proof for the simulation hot path.
 *
 * This binary replaces the global allocation operators with counting
 * wrappers (which is why these tests live in their own executable):
 * between warm-up and teardown, a running System -- event kernel,
 * mesh routing, NI rings, traffic drivers -- must perform no heap
 * allocations at all, at one shard and at four.
 *
 * The workload is deterministic (fixed seeds, single-threaded), so
 * the assertion is exact, not statistical: the steady-state windows
 * measured here allocate zero bytes on every run or the design is
 * broken (a vector growing, a deque node, a histogram bucket).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#ifdef TCPNI_ALLOC_BACKTRACE
#include <cstdio>
#include <execinfo.h>
#endif
#include <memory>
#include <new>
#include <vector>

#include "sim/event_queue.hh"
#include "system/system.hh"
#include "system/traffic.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void
noteAlloc()
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
#ifdef TCPNI_ALLOC_BACKTRACE
        g_counting.store(false, std::memory_order_relaxed);
        void *frames[32];
        int n = backtrace(frames, 32);
        backtrace_symbols_fd(frames, n, 2);
        fprintf(stderr, "----\n");
        g_counting.store(true, std::memory_order_relaxed);
#endif
    }
}

/** RAII window: count allocations while alive. */
struct CountScope
{
    CountScope()
    {
        g_allocs.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
    }
    ~CountScope() { g_counting.store(false, std::memory_order_relaxed); }
    uint64_t count() const
    {
        return g_allocs.load(std::memory_order_relaxed);
    }
};

} // namespace

// Counting replacements for the global allocation functions.  All
// flavors funnel through malloc/free so mismatched pairs stay safe.
void *
operator new(std::size_t size)
{
    noteAlloc();
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    noteAlloc();
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align),
                       size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace tcpni;

namespace
{

/** A self-rescheduling near-future event (the simulator's dominant
 *  scheduling shape). */
struct Churn : public Event
{
    Churn(EventQueue &eq, uint64_t seed) : eq_(eq), state_(seed) {}
    void
    process() override
    {
        state_ = state_ * 6364136223846793005ULL +
                 1442695040888963407ULL;
        eq_.schedule(this, eq_.curTick() + 1 +
                               static_cast<Tick>(state_ >> 61));
    }
    std::string name() const override { return "churn"; }

    EventQueue &eq_;
    uint64_t state_;
};

void
expectZeroAllocSystem(unsigned shards)
{
    constexpr unsigned width = 4, height = 4, nodes = width * height;
    sys::NodeConfig cfg;
    cfg.memBytes = 1 << 12;
    cfg.ni.inputQueueDepth = 8;
    cfg.ni.outputQueueDepth = 8;
    cfg.ni.inputThreshold = 6;
    cfg.ni.outputThreshold = 6;

    sys::TrafficConfig tc;
    tc.messages = 2000;   // long enough for a wide steady window
    tc.meanGap = 4;       // keep the fabric saturated
    tc.seed = 42;

    sys::System machine("alloc", width, height,
                        std::vector<sys::NodeConfig>(nodes, cfg),
                        shards);
    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    for (NodeId n = 0; n < nodes; ++n)
        gens.push_back(
            std::make_unique<sys::TrafficGen>(machine, n, tc));
    for (auto &g : gens)
        g->start();

    // Warm-up: calendar buckets, histogram ranges, pool slabs, and
    // ring stores all reach their high-water marks.
    machine.run(6000);

    uint64_t count;
    {
        CountScope scope;
        machine.run(3000);
        count = scope.count();
    }
    EXPECT_EQ(count, 0u)
        << count << " heap allocations in the steady-state window at "
        << shards << " shard(s)";

    // Let the run finish and prove the workload was real.
    EXPECT_TRUE(machine.run());
    uint64_t sent = 0, drained = 0;
    for (auto &g : gens) {
        sent += g->sent();
        drained += g->drained();
    }
    EXPECT_EQ(sent, uint64_t(nodes) * tc.messages);
    EXPECT_EQ(drained, sent);
}

} // namespace

TEST(AllocSteadyState, SystemIsAllocationFreeSingleShard)
{
    expectZeroAllocSystem(1);
}

TEST(AllocSteadyState, SystemIsAllocationFreeFourShards)
{
    expectZeroAllocSystem(4);
}

TEST(AllocSteadyState, EventKernelChurnIsAllocationFree)
{
    EventQueue eq;
    std::vector<std::unique_ptr<Churn>> events;
    for (unsigned i = 0; i < 64; ++i) {
        events.push_back(std::make_unique<Churn>(
            eq, 0x9e3779b97f4a7c15ULL * (i + 1)));
        eq.schedule(events[i].get(), 1 + i % 8);
    }
    eq.run(20'000);   // warm the bucket ring storage

    uint64_t count;
    {
        CountScope scope;
        eq.run(40'000);
        count = scope.count();
    }
    EXPECT_EQ(count, 0u) << count << " allocations in event-kernel churn";
    for (auto &e : events)
        if (e->scheduled())
            eq.deschedule(e.get());
}

TEST(AllocSteadyState, CountersActuallyCount)
{
    // Sanity-check the harness itself: an allocation inside a window
    // must be observed.
    uint64_t count;
    {
        CountScope scope;
        auto p = std::make_unique<int>(5);
        (void)*p;
        count = g_allocs.load();
    }
    EXPECT_GE(count, 1u);
}
