/**
 * @file
 * Host-side performance of the simulator itself (not of the modeled
 * machine): wall-time for the Table-1 model sweep run serially vs on
 * the SweepRunner thread pool, raw event-kernel throughput
 * (events/second) at several pending-event populations, a
 * per-event-type self-profile of where the simulator's own
 * wall-time goes, and the sweep pool's work-stealing balance.
 * Results go to stdout and to a JSON file for CI tracking.
 *
 * The JSON leads with the host's hardware concurrency; a machine with
 * fewer than two hardware threads cannot demonstrate a sweep speedup,
 * so the record is marked "degraded": true and the speedup numbers
 * should not be compared across hosts.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "experiments.hh"
#include "ni/model_registry.hh"
#include "sim/event_queue.hh"
#include "sim/shards.hh"
#include "sim/sweep.hh"
#include "tam/expand.hh"

namespace tcpni
{
namespace bench
{

namespace
{

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Wall-time of the full registered-model Table-1 kernel sweep.
 *  When @p stats is non-null the pool's work-claiming accounting for
 *  the run is copied out. */
double
timeModelSweep(unsigned jobs, SweepRunner::RunStats *stats = nullptr)
{
    const auto &models = ni::registeredModels();
    SweepRunner sweep(jobs);
    auto t0 = std::chrono::steady_clock::now();
    sweep.run(models.size(), [&](size_t i) {
        tam::measureCommCosts(models[i].model);
    });
    double sec = seconds(t0);
    if (stats)
        *stats = sweep.lastRunStats();
    return sec;
}

/** Re-run the model sweep serially with per-event-type profiling
 *  enabled: every EventQueue constructed on this thread times each
 *  process() call and attributes it to the event's name().  The
 *  timing overhead perturbs the run, so this is kept separate from
 *  the wall-time measurements above. */
evprof::Profile
profileModelSweep()
{
    const auto &models = ni::registeredModels();
    evprof::setEnabled(true);
    evprof::take();  // drop anything a previous run accumulated
    SweepRunner(1).run(models.size(), [&](size_t i) {
        tam::measureCommCosts(models[i].model);
    });
    evprof::setEnabled(false);
    return evprof::take();
}

/** A self-rescheduling event with a cheap deterministic PRNG choosing
 *  the next delta: mostly short hops inside the calendar ring, with
 *  an occasional far-future jump into the overflow heap. */
class ChurnEvent : public Event
{
  public:
    ChurnEvent(EventQueue &eq, uint64_t seed, uint64_t budget)
        : eq_(eq), state_(seed), left_(budget)
    {}

    void
    process() override
    {
        if (--left_ == 0)
            return;
        state_ = state_ * 6364136223846793005ULL +
                 1442695040888963407ULL;
        uint32_t r = static_cast<uint32_t>(state_ >> 56);
        Tick delta = (r & 0xf0) == 0xf0 ? 2000 + (r & 0xf)
                                        : 1 + (r & 0x7);
        eq_.schedule(this, eq_.curTick() + delta);
    }

    std::string name() const override { return "churn"; }

  private:
    EventQueue &eq_;
    uint64_t state_;
    uint64_t left_;
};

/** Event-kernel events/second at a given pending-event population. */
double
timeEventKernel(uint64_t total_events, unsigned population)
{
    EventQueue eq;
    std::vector<std::unique_ptr<ChurnEvent>> events;
    for (unsigned i = 0; i < population; ++i) {
        events.push_back(std::make_unique<ChurnEvent>(
            eq, 0x9e3779b97f4a7c15ULL * (i + 1),
            total_events / population));
        eq.schedule(events.back().get(), i % 8);
    }
    auto t0 = std::chrono::steady_clock::now();
    eq.run();
    double sec = seconds(t0);
    return static_cast<double>(eq.numProcessed()) / sec;
}

/** The same churn workload spread round-robin over a ShardedEngine's
 *  queues: events never cross shards, so this isolates the lookahead
 *  scheduler's bookkeeping cost relative to a single queue. */
double
timeShardedKernel(unsigned shards, uint64_t total_events,
                  unsigned population)
{
    ShardedEngine engine(shards);
    std::vector<std::unique_ptr<ChurnEvent>> events;
    for (unsigned i = 0; i < population; ++i) {
        EventQueue &eq = engine.shard(i % shards);
        events.push_back(std::make_unique<ChurnEvent>(
            eq, 0x9e3779b97f4a7c15ULL * (i + 1),
            total_events / population));
        eq.schedule(events.back().get(), i % 8);
    }
    auto t0 = std::chrono::steady_clock::now();
    engine.run();
    double sec = seconds(t0);
    return static_cast<double>(engine.numProcessed()) / sec;
}

int
runHostPerf(const exp::Context &ctx)
{
    uint64_t events = static_cast<uint64_t>(ctx.num("--events"));
    std::string out_file = ctx.str("--out");
    const unsigned hw_threads = SweepRunner::defaultJobs();
    const bool degraded = hw_threads < 2;
    // SweepRunner clamps to serial on a sub-2-thread host whatever
    // --jobs asked for; report the count actually used.
    unsigned jobs = SweepRunner(ctx.jobs).jobs();

    std::cout << "Host performance (simulator wall-time; "
              << hw_threads << " hardware thread"
              << (hw_threads == 1 ? "" : "s") << ")\n";
    if (degraded) {
        std::cout << "WARNING: fewer than 2 hardware threads -- the "
                     "sweep speedup cannot be\ndemonstrated on this "
                     "host; jobs clamped to " << jobs
                  << " and results marked degraded.\n";
    }
    std::cout << "\n";

    // Warm up allocators and code paths, then measure.
    timeModelSweep(1);
    double serial = timeModelSweep(1);
    SweepRunner::RunStats pool;
    double parallel = timeModelSweep(jobs, &pool);
    double speedup = serial / parallel;
    std::printf("Table-1 model sweep: serial %.3fs, --jobs %u %.3fs "
                "(%.2fx speedup)\n",
                serial, jobs, parallel, speedup);
    for (unsigned w = 0; w < pool.workers; ++w) {
        std::printf("  worker %u: %llu tasks claimed, %.3fs busy "
                    "(%.0f%% of wall)\n",
                    w,
                    static_cast<unsigned long long>(pool.claimed[w]),
                    pool.busySeconds[w],
                    pool.wallSeconds > 0
                        ? pool.busySeconds[w] / pool.wallSeconds * 100
                        : 0.0);
    }

    // Where the simulator's own time goes, by event type.
    evprof::Profile prof = profileModelSweep();
    uint64_t prof_events = 0;
    double prof_seconds = 0;
    for (const auto &[type, ts] : prof) {
        prof_events += ts.count;
        prof_seconds += ts.seconds;
    }
    std::printf("\nSelf-profile (serial model sweep, instrumented): "
                "%llu events, %.3fs in process()\n",
                static_cast<unsigned long long>(prof_events),
                prof_seconds);
    for (const auto &[type, ts] : prof) {
        std::printf("  %-16s %10llu events  %8.3fs  (%.1f%%)\n",
                    type.c_str(),
                    static_cast<unsigned long long>(ts.count),
                    ts.seconds,
                    prof_seconds > 0 ? ts.seconds / prof_seconds * 100
                                     : 0.0);
    }

    // The population sweep: the calendar ring's per-event cost should
    // not grow with the pending-event count.
    static const unsigned pops[] = {64, 512, 4096};
    double cal[3];
    timeEventKernel(events / 10, 64);
    for (size_t i = 0; i < 3; ++i) {
        cal[i] = timeEventKernel(events, pops[i]);
        std::printf("Event kernel (%llu events, %u pending): "
                    "%.2fM ev/s\n",
                    static_cast<unsigned long long>(events), pops[i],
                    cal[i] / 1e6);
    }

    // Scheduler overhead of the sharded engine on the same churn: the
    // shards never interact, so any gap to the 1-shard row is pure
    // lookahead bookkeeping.
    static const unsigned shard_counts[] = {1, 4};
    double sharded[2];
    for (size_t i = 0; i < 2; ++i) {
        sharded[i] = timeShardedKernel(shard_counts[i], events, 512);
        std::printf("Sharded kernel (%llu events, 512 pending, %u "
                    "shard%s): %.2fM ev/s\n",
                    static_cast<unsigned long long>(events),
                    shard_counts[i], shard_counts[i] == 1 ? "" : "s",
                    sharded[i] / 1e6);
    }

    // Splice our sections into --out, preserving anything another
    // producer (the scale experiment) owns there.
    std::ostringstream sec;
    jsonio::Sections out;
    jsonio::readSections(out_file, out);

    sec << "{\"hardwareConcurrency\":" << hw_threads << ",\"jobs\":"
        << jobs << ",\"degraded\":" << (degraded ? "true" : "false")
        << "}";
    jsonio::upsert(out, "host", sec.str());

    sec.str("");
    sec << "{\"jobs\":" << jobs << ",\"serialSec\":" << serial
        << ",\"parallelSec\":" << parallel << ",\"speedup\":"
        << speedup << "}";
    jsonio::upsert(out, "table1Sweep", sec.str());

    sec.str("");
    sec << "{\"workers\":" << pool.workers << ",\"tasks\":"
        << pool.tasks << ",\"wallSec\":" << pool.wallSeconds
        << ",\"perWorker\":[";
    for (unsigned w = 0; w < pool.workers; ++w) {
        sec << (w ? "," : "") << "{\"claimed\":" << pool.claimed[w]
            << ",\"busySec\":" << pool.busySeconds[w] << "}";
    }
    sec << "]}";
    jsonio::upsert(out, "sweepRunner", sec.str());

    sec.str("");
    sec << "{\"events\":" << prof_events << ",\"processSec\":"
        << prof_seconds << ",\"eventsPerSec\":"
        << (prof_seconds > 0 ? prof_events / prof_seconds : 0)
        << ",\"byType\":{";
    {
        bool first = true;
        for (const auto &[type, ts] : prof) {
            sec << (first ? "" : ",") << "\n\""
                << stats::jsonEscape(type) << "\":{\"count\":"
                << ts.count << ",\"seconds\":" << ts.seconds << "}";
            first = false;
        }
    }
    sec << "}}";
    jsonio::upsert(out, "selfProfile", sec.str());

    sec.str("");
    sec << "{\"events\":" << events << ",\"populations\":[";
    for (size_t i = 0; i < 3; ++i) {
        sec << (i ? ",\n" : "\n") << "{\"pending\":" << pops[i]
            << ",\"calendarEventsPerSec\":" << cal[i] << "}";
    }
    sec << "],\"sharded\":[";
    for (size_t i = 0; i < 2; ++i) {
        sec << (i ? "," : "") << "{\"shards\":" << shard_counts[i]
            << ",\"eventsPerSec\":" << sharded[i] << "}";
    }
    sec << "]}";
    jsonio::upsert(out, "eventKernel", sec.str());

    std::ofstream os(out_file);
    if (!os)
        fatal("cannot open --out file '%s'", out_file.c_str());
    os << jsonio::renderSections(out);
    std::cout << "wrote " << out_file << "\n";
    return 0;
}

} // namespace

void
registerHostPerf(exp::ExperimentRegistry &reg)
{
    reg.add({
        "host_perf",
        "Host wall-time: sweep-pool speedup and event-kernel "
        "throughput",
        {
            {"--events", "N", "events per kernel-throughput "
             "measurement", "1000000", false},
            {"--out", "FILE", "JSON output file", "BENCH_host.json",
             false},
        },
        false,  // JSON goes to --out, not --json
        false,  // no --trace
        runHostPerf,
    });
}

} // namespace bench
} // namespace tcpni
