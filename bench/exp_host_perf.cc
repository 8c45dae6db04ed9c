/**
 * @file
 * Host-side performance of the simulator itself (not of the modeled
 * machine): wall-time for the Table-1 model sweep run serially vs on
 * the SweepRunner thread pool, the setup layer (host time per queue
 * construction, kernel assembly, program load and Table-1 cell), raw
 * event-kernel throughput (events/second) at several pending-event
 * populations, a per-event-type self-profile of where the
 * simulator's own wall-time goes, and the sweep pool's work-stealing
 * balance.
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
#include "cost/table1.hh"
#include "cpu/cpu.hh"
#include "experiments.hh"
#include "msg/kernels.hh"
#include "ni/model_registry.hh"
#include "sim/event_queue.hh"
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

/** Host microseconds per call of each setup step a Table-1 run
 *  makes, for the first registered model's handler kernel. */
struct SetupCosts
{
    std::string model;
    double eventQueueUs = 0;
    double assembleHandlerUs = 0;
    double loadProgramUs = 0;
    double processingCostReadUs = 0;
};

/** Host seconds one call of @p fn takes. */
template <typename Fn>
double
timed(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return seconds(t0);
}

/** Microseconds per call: the best of five batches of @p reps
 *  samples, each the host seconds @p sample returns for one call (the
 *  minimum drops other tenants' interference). */
template <typename Sample>
double
usPerCall(unsigned reps, Sample &&sample)
{
    double best = 0;
    for (int batch = 0; batch < 5; ++batch) {
        double sec = 0;
        for (unsigned i = 0; i < reps; ++i)
            sec += sample();
        double us = sec * 1e6 / reps;
        if (batch == 0 || us < best)
            best = us;
    }
    return best;
}

SetupCosts
timeSetup()
{
    const ni::ModelInfo &info = ni::registeredModels().front();
    const std::string src = msg::handlerProgram(info.model);
    const isa::Program handler = msg::assembleKernel(src);
    cost::Table1Harness harness(info.model);
    EventQueue eq;
    Memory mem(1 << 20);

    SetupCosts c;
    c.model = info.shortName;
    c.eventQueueUs =
        usPerCall(200, [] { return timed([] { EventQueue q; }); });
    c.assembleHandlerUs = usPerCall(20, [&] {
        return timed([&] { (void)msg::assembleKernel(src); });
    });
    // A fresh CPU per load, as in a Table-1 run; only the load is
    // timed.
    c.loadProgramUs = usPerCall(50, [&] {
        Cpu cpu("cpu", eq, mem, nullptr);
        return timed([&] { cpu.loadProgram(handler); });
    });
    c.processingCostReadUs = usPerCall(5, [&] {
        return timed(
            [&] { harness.processingCost(cost::ProcCase::read); });
    });
    return c;
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

/** Pending-event populations of the kernel throughput sweep. */
constexpr unsigned churnPops[] = {64, 512, 4096};

int
runHostPerf(const exp::Context &ctx)
{
    uint64_t events = static_cast<uint64_t>(ctx.num("--events"));
    // Each churn event fires events / population times: a budget of
    // 0 would never run out.
    if (ctx.num("--events") < long(churnPops[2]))
        fatal("host_perf: --events must be at least %u (the largest "
              "churn population), got %ld",
              churnPops[2], ctx.num("--events"));
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

    // The setup layer: what a Table-1 run pays before it simulates.
    SetupCosts setup = timeSetup();
    std::printf("\nSetup layer (%s handler kernel, us per call): "
                "EventQueue %.1f, assembleKernel %.1f, "
                "Cpu::loadProgram %.1f, processingCost(read) %.1f\n",
                setup.model.c_str(), setup.eventQueueUs,
                setup.assembleHandlerUs, setup.loadProgramUs,
                setup.processingCostReadUs);

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
    double cal[3];
    timeEventKernel(events / 10, churnPops[0]);
    for (size_t i = 0; i < 3; ++i) {
        cal[i] = timeEventKernel(events, churnPops[i]);
        std::printf("Event kernel (%llu events, %u pending): "
                    "%.2fM ev/s\n",
                    static_cast<unsigned long long>(events),
                    churnPops[i], cal[i] / 1e6);
    }

    // Splice our sections into --out, preserving anything another
    // producer (the scale experiment) owns there.
    std::ostringstream sec;
    jsonio::Sections out;
    jsonio::readSections(out_file, out);

    sec << "{\"hardwareConcurrency\":" << hw_threads << ",\"jobs\":"
        << jobs << ",\"degraded\":" << (degraded ? "true" : "false")
        << ",\"provenance\":" << provenanceJson(ctx, "host_perf")
        << "}";
    jsonio::upsert(out, "host", sec.str());

    sec.str("");
    sec << "{\"jobs\":" << jobs << ",\"serialSec\":" << serial
        << ",\"parallelSec\":" << parallel << ",\"speedup\":"
        << speedup << "}";
    jsonio::upsert(out, "table1Sweep", sec.str());

    sec.str("");
    sec << "{\"model\":\"" << stats::jsonEscape(setup.model)
        << "\",\"eventQueueUs\":" << setup.eventQueueUs
        << ",\"assembleHandlerUs\":" << setup.assembleHandlerUs
        << ",\"loadProgramUs\":" << setup.loadProgramUs
        << ",\"processingCostReadUs\":" << setup.processingCostReadUs
        << "}";
    jsonio::upsert(out, "setup", sec.str());

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
        sec << (i ? ",\n" : "\n") << "{\"pending\":" << churnPops[i]
            << ",\"calendarEventsPerSec\":" << cal[i] << "}";
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
