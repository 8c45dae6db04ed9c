#include "sim/experiment.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/trace.hh"
#include "metrics/metrics.hh"

namespace tcpni
{
namespace exp
{

namespace
{

const ParamSpec *
findParam(const Experiment &e, const char *flag)
{
    for (const ParamSpec &p : e.params) {
        if (p.flag == flag)
            return &p;
    }
    return nullptr;
}

void
printUsage(const Experiment &e, const char *prog)
{
    std::fprintf(stderr, "usage: %s %s [flags]\n  %s\n", prog,
                 e.name.c_str(), e.description.c_str());
    std::fprintf(stderr,
                 "  --jobs N       worker threads (default: hardware "
                 "concurrency)\n");
    std::fprintf(stderr,
                 "  --metrics      collect performance-counter "
                 "telemetry\n"
                 "  --metrics-out BASE\n"
                 "                 telemetry file base: writes "
                 "BASE.json + BASE.csv\n"
                 "                 (default: <json file>.metrics, or "
                 "'metrics'; implies --metrics)\n"
                 "  --sample-interval N\n"
                 "                 time-series sample period in ticks, "
                 "0 disables\n"
                 "                 (default 1024; implies --metrics)\n");
    if (e.acceptsJson)
        std::fprintf(stderr, "  --json FILE    write results as JSON\n");
    if (e.acceptsTrace) {
        std::fprintf(stderr,
                     "  --trace FILE   write a Chrome trace of the "
                     "kernel messages (forces --jobs 1)\n");
    }
    for (const ParamSpec &p : e.params) {
        std::string left = p.flag;
        if (!p.valueName.empty())
            left += " " + p.valueName;
        std::fprintf(stderr, "  %-14s %s%s\n", left.c_str(),
                     p.help.c_str(),
                     p.def.empty() || p.isSwitch
                         ? ""
                         : (" (default " + p.def + ")").c_str());
    }
}

/** Can @p path be opened for writing?  The probe appends nothing and
 *  truncates nothing, and removes the file again if it created it. */
bool
writable(const std::string &path)
{
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    if (!std::ofstream(path, std::ios::app))
        return false;
    if (!existed)
        std::filesystem::remove(path, ec);
    return true;
}

} // namespace

const std::string &
Context::str(const std::string &flag) const
{
    auto it = values.find(flag);
    if (it == values.end())
        panic("experiment read undeclared parameter '%s'", flag.c_str());
    return it->second;
}

long
Context::num(const std::string &flag) const
{
    return std::atol(str(flag).c_str());
}

bool
Context::on(const std::string &flag) const
{
    return str(flag) == "1";
}

bool
Context::given(const std::string &flag) const
{
    return explicitFlags.count(flag) != 0;
}

metrics::TaskScope
Context::taskMetrics(size_t slot, std::string label) const
{
    // TaskScope tolerates a null collector (inert scope), so the
    // metrics-off path costs one pointer store per task.
    return metrics::TaskScope(metricsCollector, slot, std::move(label));
}

void
Context::writeJson(
    const std::function<void(std::ostream &)> &writer) const
{
    if (jsonFile.empty())
        return;
    std::ofstream os(jsonFile);
    if (!os)
        fatal("cannot open --json file '%s'", jsonFile.c_str());
    writer(os);
    std::cout << "\nwrote JSON results to " << jsonFile << "\n";
}

void
ExperimentRegistry::add(Experiment e)
{
    if (find(e.name))
        fatal("experiment registry: duplicate name '%s'", e.name.c_str());
    entries_.push_back(std::move(e));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    for (const Experiment &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

int
runExperiment(const ExperimentRegistry &reg, const std::string &name,
              int argc, char **argv)
{
    const Experiment *e = reg.find(name);
    if (!e) {
        std::fprintf(stderr, "unknown experiment '%s'\n", name.c_str());
        return 1;
    }

    Context ctx;
    ctx.args.assign(argv, argv + argc);
    for (const ParamSpec &p : e->params)
        ctx.values[p.flag] = p.isSwitch ? "0" : p.def;

    bool metrics_on = false;
    std::string metrics_out;
    Tick sample_interval = 1024;

    for (int i = 0; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--jobs") && i + 1 < argc) {
            ctx.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (!std::strcmp(a, "--metrics")) {
            metrics_on = true;
        } else if (!std::strcmp(a, "--metrics-out") && i + 1 < argc) {
            metrics_out = argv[++i];
            metrics_on = true;
        } else if (!std::strcmp(a, "--sample-interval") &&
                   i + 1 < argc) {
            sample_interval =
                static_cast<Tick>(std::strtoull(argv[++i], nullptr, 10));
            metrics_on = true;
        } else if (e->acceptsJson && !std::strcmp(a, "--json") &&
                   i + 1 < argc) {
            ctx.jsonFile = argv[++i];
        } else if (e->acceptsTrace && !std::strcmp(a, "--trace") &&
                   i + 1 < argc) {
            ctx.traceFile = argv[++i];
        } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            printUsage(*e, "tcpni_bench");
            return 0;
        } else if (const ParamSpec *p = findParam(*e, a)) {
            if (p->isSwitch) {
                ctx.values[p->flag] = "1";
            } else if (i + 1 < argc) {
                ctx.values[p->flag] = argv[++i];
            } else {
                std::fprintf(stderr, "%s needs a value\n", a);
                return 1;
            }
            ctx.explicitFlags.insert(p->flag);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", a);
            printUsage(*e, "tcpni_bench");
            return 1;
        }
    }

    if (metrics_on && metrics_out.empty()) {
        metrics_out = ctx.jsonFile.empty() ? "metrics"
                                           : ctx.jsonFile + ".metrics";
    }

    // Fail before the run, not after it: every file the run will
    // write must be writable now.
    std::vector<std::pair<std::string, std::string>> outputs;
    if (!ctx.jsonFile.empty())
        outputs.emplace_back("--json", ctx.jsonFile);
    if (!ctx.traceFile.empty())
        outputs.emplace_back("--trace", ctx.traceFile);
    if (metrics_on) {
        outputs.emplace_back("--metrics-out", metrics_out + ".json");
        outputs.emplace_back("--metrics-out", metrics_out + ".csv");
    }
    if (findParam(*e, "--out") && !ctx.values["--out"].empty())
        outputs.emplace_back("--out", ctx.values["--out"]);
    for (const auto &[flag, path] : outputs) {
        if (!writable(path)) {
            std::fprintf(stderr, "cannot open %s file '%s'\n",
                         flag.c_str(), path.c_str());
            return 1;
        }
    }

    trace::TraceSink lifecycle_sink;
    if (!ctx.traceFile.empty()) {
        // The lifecycle sink is thread-local: tracing needs every
        // simulation on this thread.
        trace::setSink(&lifecycle_sink);
        ctx.jobs = 1;
    }

    std::unique_ptr<metrics::Collector> collector;
    if (metrics_on) {
        collector =
            std::make_unique<metrics::Collector>(sample_interval);
        ctx.metricsCollector = collector.get();
    }

    logging::quiet = true;

    // Run under an exception guard: a SimError escaping the experiment
    // (a panic in throw mode) must not lose the telemetry gathered so
    // far -- in particular the Chrome trace must still be valid,
    // closed JSON so the run that died is the one you can inspect.
    int rc = 0;
    std::string error;
    try {
        rc = e->run(ctx);
    } catch (const SimError &err) {
        error = err.what();
        rc = 1;
    }

    if (!ctx.traceFile.empty()) {
        trace::setSink(nullptr);
        std::ofstream os(ctx.traceFile);
        if (!os)
            fatal("cannot open --trace file '%s'", ctx.traceFile.c_str());
        lifecycle_sink.writeChromeTrace(os);
        std::cout << "wrote Chrome trace ("
                  << lifecycle_sink.completeLifecycles()
                  << " complete message lifecycles) to " << ctx.traceFile
                  << "\n";
    }

    if (collector) {
        const std::string json_path = metrics_out + ".json";
        const std::string csv_path = metrics_out + ".csv";
        std::ofstream js(json_path);
        if (!js)
            fatal("cannot open metrics file '%s'", json_path.c_str());
        collector->writeJson(js);
        std::ofstream cs(csv_path);
        if (!cs)
            fatal("cannot open metrics file '%s'", csv_path.c_str());
        collector->writeCsv(cs);
        std::cout << "wrote metrics telemetry to " << json_path
                  << " and " << csv_path << "\n";
    }

    if (!error.empty()) {
        std::fprintf(stderr, "experiment '%s' aborted: %s\n",
                     e->name.c_str(), error.c_str());
    }
    return rc;
}

int
driverMain(const ExperimentRegistry &reg, int argc, char **argv)
{
    auto list = [&] {
        std::printf("registered experiments:\n");
        for (const Experiment &e : reg.all())
            std::printf("  %-16s %s\n", e.name.c_str(),
                        e.description.c_str());
        std::printf("\nrun one with: tcpni_bench <name> [flags] "
                    "(--help for per-experiment flags)\n");
    };
    if (argc < 2 || !std::strcmp(argv[1], "list") ||
        !std::strcmp(argv[1], "--list") ||
        !std::strcmp(argv[1], "--help") || !std::strcmp(argv[1], "-h")) {
        list();
        return argc < 2 ? 1 : 0;
    }
    if (!reg.find(argv[1])) {
        std::fprintf(stderr, "unknown experiment '%s'\n\n", argv[1]);
        list();
        return 1;
    }
    return runExperiment(reg, argv[1], argc - 2, argv + 2);
}

} // namespace exp
} // namespace tcpni
