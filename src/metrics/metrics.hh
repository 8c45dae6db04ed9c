/**
 * @file
 * Hardware-style performance-counter telemetry for the simulator.
 *
 * The design has three layers:
 *
 *  - **Group / Registry** (per worker thread, per sweep task).  While
 *    a task's Registry is installed (thread-local, see registry() /
 *    setRegistry()), every instrumented SimObject constructor hangs a
 *    Group of named counters, gauges and histograms off it.  With no
 *    registry installed -- the default, and always the case when the
 *    driver runs without --metrics -- registration is a single
 *    null-pointer test and the simulation is bit-identical to an
 *    uninstrumented build.
 *
 *  - **Sampler** (one per simulation, created automatically by the
 *    Registry when a sample interval is configured).  The queue's
 *    passive observer (never an event) that snapshots every live
 *    counter/gauge of its simulation on a fixed tick interval and at
 *    the end of the run, producing the time-series rows behind the
 *    per-link utilization heatmap.
 *
 *  - **Collector / TaskScope** (per experiment run).  A TaskScope is
 *    an RAII guard a sweep task holds for its whole body: it installs
 *    a fresh Registry on entry and, on exit, folds the task's merged
 *    counters and sample rows into the process-wide Collector, keyed
 *    by the task's slot index so the final JSON/CSV is byte-identical
 *    whether the sweep ran serially or on N worker threads.
 *
 * Ownership and lifetime rules (the part that keeps this safe):
 * counter/gauge read functions capture their component, so a
 * component MUST call Group::retire() from its destructor; retire()
 * snapshots the final values into the Group and drops the closures.
 * The Group itself is shared_ptr-held by both the component and the
 * Registry, so either side may die first.  A TaskScope must be
 * declared BEFORE the simulation objects it observes (scope exits
 * last), so every group is retired by the time the scope aggregates.
 */

#ifndef TCPNI_METRICS_METRICS_HH
#define TCPNI_METRICS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/histogram.hh"
#include "sim/types.hh"

namespace tcpni
{

class EventQueue;

namespace metrics
{

class Registry;
class Sampler;

/** What a series measures; fixes its merge rule across simulations. */
enum class Kind : uint8_t
{
    counter,    //!< monotonic count; merged by summing
    gauge,      //!< instantaneous level; merged as {last, peak}
    histogram,  //!< latency histogram; merged by bucket addition
};

/**
 * One component's named metric series ("node0.ni" owning "sent",
 * "oq.stall_cycles", ...).  Obtained from Registry::addGroup(); the
 * component keeps the shared_ptr and calls retire() in its destructor.
 */
class Group
{
  public:
    void addCounter(const std::string &name,
                    std::function<uint64_t()> read,
                    const std::string &desc = "");
    void addGauge(const std::string &name,
                  std::function<uint64_t()> read,
                  const std::string &desc = "");
    void addHistogram(const std::string &name, const Histogram *hist,
                      const std::string &desc = "");

    /**
     * Snapshot final values and drop the read closures.  Call from
     * the owning component's destructor; idempotent.
     */
    void retire();

    bool retired() const { return retired_; }
    const std::string &name() const { return name_; }

  private:
    friend class Registry;

    Group(Registry *owner, std::string name, unsigned sim,
          uint64_t queue_id)
        : owner_(owner), name_(std::move(name)), sim_(sim),
          queueId_(queue_id)
    {}

    struct Series
    {
        Kind kind;
        std::string name;
        std::string desc;
        uint32_t id;         //!< interned "group.series" name
        std::function<uint64_t()> read;  //!< counter/gauge, until retire
        const Histogram *live = nullptr; //!< histogram, until retire
        uint64_t value = 0;  //!< counter total / gauge last
        uint64_t peak = 0;   //!< gauge: max over samples and retire
        Histogram hist;      //!< histogram snapshot at retire
    };

    void add(Kind kind, const std::string &name,
             std::function<uint64_t()> read, const Histogram *hist,
             const std::string &desc);

    Registry *owner_;
    std::string name_;
    unsigned sim_;
    uint64_t queueId_;
    bool retired_ = false;
    std::vector<Series> series_;
};

/** One time-series sample: series @p series had @p value at @p tick
 *  in simulation @p sim of the task. */
struct SampleRow
{
    uint32_t sim;
    Tick tick;
    uint32_t series;
    uint64_t value;
};

/** A task's aggregated telemetry, produced when its TaskScope exits. */
struct TaskMetrics
{
    struct SeriesResult
    {
        Kind kind;
        std::string name;
        std::string desc;
        uint64_t value = 0;  //!< counter sum / gauge last
        uint64_t peak = 0;   //!< gauge peak
        Histogram hist;      //!< histogram merge
    };

    struct GroupResult
    {
        std::string name;
        std::vector<SeriesResult> series;
    };

    std::string label;
    unsigned sims = 0;                 //!< simulations observed
    std::vector<GroupResult> groups;   //!< merged across sims by name
    std::vector<std::string> seriesNames;  //!< SampleRow::series -> name
    std::vector<SampleRow> rows;
    uint64_t droppedRows = 0;
};

/**
 * The per-task registry instrumented components register with.
 *
 * Detects simulation boundaries by EventQueue identity: the first
 * group registered against a never-before-seen queue starts a new
 * simulation index and (when a sample interval is configured) spawns a
 * Sampler on that queue; later groups registered against the same
 * queue join its simulation regardless of registration order.
 */
class Registry
{
  public:
    /** @p sample_interval of 0 disables time-series sampling. */
    explicit Registry(Tick sample_interval);
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register a component's metric group named @p name (the
     *  SimObject name) in the simulation owning @p eq. */
    std::shared_ptr<Group> addGroup(const std::string &name,
                                    EventQueue &eq);

    Tick sampleInterval() const { return interval_; }

    /** Called by the Sampler: record one sample of every live series
     *  of the simulation owning @p queue_id. */
    void sampleNow(uint64_t queue_id, Tick tick);

    /** Retire anything still live and aggregate across simulations.
     *  The registry is inert afterwards. */
    TaskMetrics finalize(std::string label);

  private:
    friend class Group;

    uint32_t internSeries(const std::string &full_name);

    /** Bound on stored rows so a tight sample interval on a long run
     *  cannot exhaust host memory; overflow is counted. */
    static constexpr size_t maxRows = 1u << 20;

    Tick interval_;
    std::map<uint64_t, unsigned> simOfQueue_;
    unsigned sims_ = 0;
    std::vector<std::shared_ptr<Group>> groups_;
    std::vector<std::unique_ptr<Sampler>> samplers_;
    std::vector<std::string> seriesNames_;
    std::map<std::string, uint32_t> seriesIds_;
    std::vector<SampleRow> rows_;
    uint64_t droppedRows_ = 0;
};

/**
 * This thread's installed registry, or nullptr when telemetry is off.
 * Thread-local for the same reason the trace sink is: every parallel
 * sweep worker observes only its own task's simulations, lock-free.
 */
Registry *registry();

/** Install (or, with nullptr, remove) this thread's registry. */
void setRegistry(Registry *r);

class TaskScope;

/**
 * Process-wide accumulator of per-task telemetry for one experiment
 * run.  Tasks deposit under a mutex, keyed by slot index, so output
 * order is independent of worker scheduling.
 */
class Collector
{
  public:
    explicit Collector(Tick sample_interval)
        : interval_(sample_interval)
    {}

    /** Begin telemetry for sweep slot @p slot labelled @p label.
     *  Hold the returned scope for the whole task body, declared
     *  before the task's simulation objects. */
    TaskScope task(size_t slot, std::string label);

    Tick sampleInterval() const { return interval_; }

    /**
     * Write all deposited tasks as the documented
     * "tcpni-metrics-1" JSON schema.
     */
    void writeJson(std::ostream &os) const;

    /** Write the time-series rows as long-format CSV:
     *  label,sim,tick,metric,value. */
    void writeCsv(std::ostream &os) const;

  private:
    friend class TaskScope;

    void deposit(size_t slot, TaskMetrics &&m);

    Tick interval_;
    mutable std::mutex mutex_;
    std::map<size_t, TaskMetrics> tasks_;
};

/**
 * RAII guard installing a task's Registry on this thread.  Inert when
 * created from a null collector (the --metrics-off path).
 */
class TaskScope
{
  public:
    TaskScope(Collector *collector, size_t slot, std::string label);
    ~TaskScope();

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

  private:
    Collector *collector_;
    size_t slot_;
    std::string label_;
    std::unique_ptr<Registry> registry_;
    Registry *prev_ = nullptr;
};

} // namespace metrics
} // namespace tcpni

#endif // TCPNI_METRICS_METRICS_HH
