/**
 * @file
 * The experiment framework: one place for everything the benchmark
 * drivers used to copy-paste — CLI parsing, SweepRunner job selection,
 * message-lifecycle trace gating, and JSON output plumbing.
 *
 * An experiment is a named definition: a description, the parameters
 * it accepts, whether it supports --json / --trace, and a run
 * function.  Definitions register in an ExperimentRegistry; the
 * shared driver (`tcpni_bench <name> [flags]`) dispatches through
 * runExperiment(), so every experiment gets uniform
 * `--jobs/--json/--trace` handling for free.
 *
 * Invariants the driver maintains:
 *  - Every output file the run will write (`--json`, `--trace`, the
 *    `--metrics-out` pair, and an experiment's own `--out`) is checked
 *    for writability before run() starts; a bad path exits 1 before
 *    any work.
 *  - `--trace FILE` installs a thread-local lifecycle sink and forces
 *    --jobs 1 before run() starts; after run() returns, the driver
 *    writes the Chrome trace and prints the standard epilogue line.
 *  - logging::quiet is set for the duration of the run.
 *  - Context::writeJson() opens the --json file (fatal on failure),
 *    invokes the writer, and prints the standard epilogue line.
 *  - `--metrics` (or `--metrics-out` / `--sample-interval`, which
 *    imply it) creates a metrics::Collector for the run; experiments
 *    opt their sweep tasks in with Context::taskMetrics().  After
 *    run() returns -- or throws -- the driver writes BASE.json and
 *    BASE.csv in the "tcpni-metrics-1" schema.  With metrics off the
 *    collector is null and every instrumentation site reduces to one
 *    null-pointer test, keeping stdout and JSON bit-identical.
 *  - run() is exception-guarded: a SimError escaping an experiment
 *    still flushes the Chrome trace (valid, closed JSON) and the
 *    metrics files before the driver reports the error and returns 1.
 */

#ifndef TCPNI_SIM_EXPERIMENT_HH
#define TCPNI_SIM_EXPERIMENT_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/types.hh"

namespace tcpni
{
namespace exp
{

/** One experiment-specific CLI parameter. */
struct ParamSpec
{
    std::string flag;       //!< e.g. "--n"
    std::string valueName;  //!< metavar for help; empty for switches
    std::string help;
    std::string def;        //!< default value (ignored for switches)
    bool isSwitch = false;  //!< boolean flag taking no value
};

/** Parsed invocation handed to an experiment's run function. */
class Context
{
  public:
    unsigned jobs = 0;      //!< --jobs (0: hardware concurrency)
    std::string jsonFile;   //!< --json FILE ("" when absent)
    std::string traceFile;  //!< --trace FILE ("" when absent)

    /** Run-wide telemetry accumulator; null unless --metrics (or a
     *  flag implying it) was given. */
    metrics::Collector *metricsCollector = nullptr;

    /**
     * Begin telemetry for sweep slot @p slot labelled @p label.
     * Declare the returned scope FIRST in the task body, before any
     * simulation objects, so it outlives (and thus observes the
     * retirement of) everything it registers.  Inert when metrics are
     * off.
     */
    metrics::TaskScope taskMetrics(size_t slot,
                                   std::string label) const;

    /** Parameter value by flag (e.g. "--n"); default when unset. */
    const std::string &str(const std::string &flag) const;
    long num(const std::string &flag) const;
    bool on(const std::string &flag) const;     //!< switch given?

    /** Was the parameter explicitly passed on the command line? */
    bool given(const std::string &flag) const;

    /**
     * If --json was given: open the file (fatal on failure), hand the
     * stream to @p writer, then print the standard
     * "wrote JSON results to FILE" epilogue.  No-op otherwise.
     */
    void writeJson(
        const std::function<void(std::ostream &)> &writer) const;

    std::map<std::string, std::string> values;
    std::set<std::string> explicitFlags;
};

/** A registered experiment definition. */
struct Experiment
{
    std::string name;
    std::string description;
    std::vector<ParamSpec> params;
    bool acceptsJson = false;
    bool acceptsTrace = false;
    std::function<int(const Context &)> run;
};

class ExperimentRegistry
{
  public:
    /** Register @p e; fatal()s on a duplicate name. */
    void add(Experiment e);

    const Experiment *find(const std::string &name) const;
    const std::vector<Experiment> &all() const { return entries_; }

  private:
    std::vector<Experiment> entries_;
};

/**
 * Parse @p argv (flags only, the experiment name already consumed)
 * against @p name's definition and run it with shared
 * --jobs/--json/--trace handling.  Returns the process exit code;
 * unknown flags or a missing experiment report an error and return 1.
 */
int runExperiment(const ExperimentRegistry &reg,
                  const std::string &name, int argc, char **argv);

/**
 * Full driver entry point for `tcpni_bench`: argv[1] selects the
 * experiment ("list" / --list prints the registry), remaining flags
 * go to runExperiment().
 */
int driverMain(const ExperimentRegistry &reg, int argc, char **argv);

} // namespace exp
} // namespace tcpni

#endif // TCPNI_SIM_EXPERIMENT_HH
