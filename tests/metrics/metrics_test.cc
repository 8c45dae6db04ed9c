/**
 * @file
 * Unit tests for the metrics registry, group retirement, cross-
 * simulation aggregation, the periodic Sampler, and the determinism
 * contract: the Collector's JSON/CSV output must be byte-identical
 * whether the sweep tasks ran serially or on a 4-worker pool.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/sweep.hh"

namespace tcpni::metrics
{
namespace
{

/** A tiny fake component: registers a group, bumps counters from
 *  events, and retires its group on destruction like real SimObjects
 *  do. */
struct FakeNic
{
    FakeNic(const std::string &name, EventQueue &eq)
    {
        if (auto *r = registry()) {
            group = r->addGroup(name, eq);
            group->addCounter("sent", [this] { return sent; });
            group->addGauge("depth", [this] { return depth; });
            group->addHistogram("lat", &lat);
        }
    }

    ~FakeNic()
    {
        if (group)
            group->retire();
    }

    uint64_t sent = 0;
    uint64_t depth = 0;
    Histogram lat;
    std::shared_ptr<Group> group;
};

TEST(Metrics, NoRegistryMeansNoGroup)
{
    ASSERT_EQ(registry(), nullptr);
    EventQueue eq;
    FakeNic nic("ni0", eq);
    EXPECT_EQ(nic.group, nullptr);
}

TEST(Metrics, RetireSnapshotsFinalValues)
{
    Registry reg(0);
    setRegistry(&reg);
    {
        EventQueue eq;
        FakeNic nic("ni0", eq);
        nic.sent = 42;
        nic.depth = 7;
        nic.lat.record(100);
    }
    setRegistry(nullptr);
    // The component is gone; finalize must report the values captured
    // at retire time without touching any dead closure.
    TaskMetrics tm = reg.finalize("t");
    ASSERT_EQ(tm.groups.size(), 1u);
    EXPECT_EQ(tm.groups[0].name, "ni0");
    ASSERT_EQ(tm.groups[0].series.size(), 3u);
    EXPECT_EQ(tm.groups[0].series[0].name, "sent");
    EXPECT_EQ(tm.groups[0].series[0].value, 42u);
    EXPECT_EQ(tm.groups[0].series[1].value, 7u);
    EXPECT_EQ(tm.groups[0].series[2].hist.count(), 1u);
}

TEST(Metrics, GroupsMergeAcrossSimulations)
{
    // Two simulations in one task (two queues): same-named groups
    // merge -- counters sum, gauges keep last/peak, histograms fold.
    Registry reg(0);
    setRegistry(&reg);
    for (int sim = 0; sim < 2; ++sim) {
        EventQueue eq;
        FakeNic nic("ni0", eq);
        nic.sent = sim == 0 ? 10 : 32;
        nic.depth = sim == 0 ? 9 : 4;
        nic.lat.record(sim == 0 ? 50 : 500);
    }
    setRegistry(nullptr);
    TaskMetrics tm = reg.finalize("t");
    EXPECT_EQ(tm.sims, 2u);
    ASSERT_EQ(tm.groups.size(), 1u);
    const auto &s = tm.groups[0].series;
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].value, 42u);      // counter: 10 + 32
    EXPECT_EQ(s[1].value, 4u);       // gauge: last simulation's value
    EXPECT_EQ(s[1].peak, 9u);        // gauge: peak across both
    EXPECT_EQ(s[2].hist.count(), 2u);
    EXPECT_EQ(s[2].hist.min(), 50u);
    EXPECT_EQ(s[2].hist.max(), 500u);
}

TEST(Metrics, SamplerRecordsTimeSeries)
{
    Registry reg(100);  // sample every 100 ticks
    setRegistry(&reg);
    {
        EventQueue eq;
        FakeNic nic("ni0", eq);
        // Ramp the counter over 350 ticks; depth spikes across the
        // tick-200 sample boundary so only sampling can observe the
        // peak (it is back down before the run ends).
        std::vector<std::unique_ptr<LambdaEvent>> events;
        for (Tick t = 1; t <= 350; ++t) {
            events.push_back(std::make_unique<LambdaEvent>([&nic, t] {
                ++nic.sent;
                nic.depth = t >= 150 && t < 250 ? 99 : 1;
            }));
            eq.schedule(events.back().get(), t);
        }
        eq.run();
        // Sampling is passive: it neither advanced the clock past the
        // last event nor added events of its own.
        EXPECT_EQ(eq.curTick(), 350u);
        EXPECT_EQ(eq.numProcessed(), 350u);
        nic.depth = 0;
    }
    setRegistry(nullptr);
    TaskMetrics tm = reg.finalize("t");

    // The automatic "eventq" group plus the component's group.
    ASSERT_EQ(tm.groups.size(), 2u);
    EXPECT_EQ(tm.groups[0].name, "eventq");
    EXPECT_EQ(tm.groups[1].name, "ni0");
    // The gauge peak was caught by the tick-200 sample (taken once
    // every event of tick 200 has fired).
    const auto &depth = tm.groups[1].series[1];
    EXPECT_EQ(depth.name, "depth");
    EXPECT_EQ(depth.value, 0u);
    EXPECT_EQ(depth.peak, 99u);

    // Samples landed on exact interval boundaries, plus the final
    // sample at the end of the run (tick 350), with monotone counter
    // values.
    ASSERT_FALSE(tm.rows.empty());
    uint32_t sent_id = UINT32_MAX;
    for (uint32_t i = 0; i < tm.seriesNames.size(); ++i) {
        if (tm.seriesNames[i] == "ni0.sent")
            sent_id = i;
    }
    ASSERT_NE(sent_id, UINT32_MAX);
    uint64_t prev = 0;
    unsigned seen = 0;
    for (const SampleRow &row : tm.rows) {
        EXPECT_TRUE(row.tick % 100 == 0 || row.tick == 350) << row.tick;
        if (row.series == sent_id) {
            EXPECT_GE(row.value, prev);
            // One functional event per tick has fired by the sample.
            EXPECT_EQ(row.value, std::min<uint64_t>(row.tick, 350));
            prev = row.value;
            ++seen;
        }
    }
    EXPECT_EQ(seen, 4u);   // ticks 100, 200, 300 and 350
    EXPECT_EQ(prev, 350u);
    EXPECT_EQ(tm.droppedRows, 0u);
}

TEST(Metrics, InertTaskScopeInstallsNothing)
{
    ASSERT_EQ(registry(), nullptr);
    {
        TaskScope scope(nullptr, 0, "off");
        EXPECT_EQ(registry(), nullptr);
    }
    EXPECT_EQ(registry(), nullptr);
}

TEST(Metrics, TaskScopeInstallsAndRestoresRegistry)
{
    Collector collector(0);
    ASSERT_EQ(registry(), nullptr);
    {
        TaskScope scope = collector.task(0, "a");
        EXPECT_NE(registry(), nullptr);
    }
    EXPECT_EQ(registry(), nullptr);
}

/** One synthetic sweep task: its own queue, component, and a
 *  deterministic event pattern derived from the slot index. */
void
sweepTask(Collector &collector, size_t slot)
{
    TaskScope scope =
        collector.task(slot, "task" + std::to_string(slot));
    EventQueue eq;
    FakeNic nic("ni0", eq);
    std::vector<std::unique_ptr<LambdaEvent>> events;
    const Tick span = 200 + 40 * static_cast<Tick>(slot);
    for (Tick t = 1; t <= span; t += 3) {
        events.push_back(std::make_unique<LambdaEvent>([&nic, t, slot] {
            ++nic.sent;
            nic.depth = (t + slot) % 17;
            nic.lat.record(t * (slot + 1));
        }));
        eq.schedule(events.back().get(), t);
    }
    eq.run();
}

std::string
runSweep(unsigned jobs, const std::function<std::string(
                            const Collector &)> &render)
{
    Collector collector(64);
    SweepRunner sweep(jobs);
    sweep.run(6, [&](size_t slot) { sweepTask(collector, slot); });
    return render(collector);
}

TEST(Metrics, OutputByteIdenticalSerialVsParallel)
{
    auto json = [](const Collector &c) {
        std::ostringstream os;
        c.writeJson(os);
        return os.str();
    };
    auto csv = [](const Collector &c) {
        std::ostringstream os;
        c.writeCsv(os);
        return os.str();
    };
    std::string json1 = runSweep(1, json);
    std::string json4 = runSweep(4, json);
    EXPECT_EQ(json1, json4);
    EXPECT_FALSE(json1.empty());
    EXPECT_NE(json1.find("\"schema\":\"tcpni-metrics-1\""),
              std::string::npos);
    EXPECT_NE(json1.find("\"label\":\"task5\""), std::string::npos);

    std::string csv1 = runSweep(1, csv);
    std::string csv4 = runSweep(4, csv);
    EXPECT_EQ(csv1, csv4);
    EXPECT_EQ(csv1.substr(0, csv1.find('\n')),
              "label,sim,tick,metric,value");
    EXPECT_NE(csv1.find("task3,0,"), std::string::npos);
}

} // namespace
} // namespace tcpni::metrics
