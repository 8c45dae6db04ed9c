/**
 * @file
 * The scaling experiment: how far the simulation core takes one host
 * -- meshes from 64 to 65536 nodes under synthetic uniform-random and
 * hotspot traffic (system/traffic.hh), reporting simulator throughput
 * (events/second) and memory footprint (peak RSS and bytes per
 * event).
 *
 * Every point is one System with per-node TrafficGen drivers: no
 * programs execute, so the cost measured is the simulation core
 * itself -- event kernel, mesh routing, NI queueing.  Node memory is
 * trimmed to 4 KiB (nothing reads it) so a 65536-node machine fits
 * comfortably in host RAM; the footprint that remains is the real
 * per-node simulation state (NI rings, router buffers, statistics).
 *
 * Points run serially in ascending size order.  Peak RSS is the
 * process high-water mark (getrusage), so each row reports the
 * largest machine built so far -- with ascending sizes that is the
 * row's own machine.
 *
 * Results append to the shared BENCH_host.json (the "scale" section;
 * host_perf owns the others) via jsonio section splicing, with the
 * provenance of the run that produced them.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "system/system.hh"
#include "system/traffic.hh"

namespace tcpni
{
namespace bench
{

namespace
{

/** Process peak resident set, in bytes (0 where unsupported). */
uint64_t
peakRssBytes()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#ifdef __APPLE__
    return static_cast<uint64_t>(ru.ru_maxrss);
#else
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
#endif
}

struct ScalePoint
{
    unsigned nodes = 0;
    std::string pattern;
    bool ok = false;
    uint64_t events = 0;
    uint64_t ticks = 0;
    double wallSec = 0;
    double eventsPerSec = 0;
    uint64_t sent = 0;
    uint64_t drained = 0;
    uint64_t stallRetries = 0;
    uint64_t peakRss = 0;
    double bytesPerEvent = 0;
};

/** Near-square mesh dimensions covering @p nodes exactly. */
void
meshDims(unsigned nodes, unsigned &width, unsigned &height)
{
    width = 1;
    for (unsigned w = 1; w * w <= nodes; ++w) {
        if (nodes % w == 0)
            width = w;
    }
    height = nodes / width;
}

ScalePoint
runPoint(unsigned nodes, const sys::TrafficConfig &tc,
         const std::string &pattern)
{
    unsigned width, height;
    meshDims(nodes, width, height);

    sys::NodeConfig cfg;
    // Nothing executes, so node memory only has to exist; 4 KiB keeps
    // 65536 nodes to a few hundred MB of real state.
    cfg.memBytes = 4096;
    cfg.ni.inputQueueDepth = 8;
    cfg.ni.outputQueueDepth = 8;
    cfg.ni.inputThreshold = 6;
    cfg.ni.outputThreshold = 6;

    auto machine = std::make_unique<sys::System>(
        "scale", width, height,
        std::vector<sys::NodeConfig>(nodes, cfg));

    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    gens.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n)
        gens.push_back(
            std::make_unique<sys::TrafficGen>(*machine, n, tc));
    for (auto &g : gens)
        g->start();

    ScalePoint p;
    p.nodes = nodes;
    p.pattern = pattern;

    auto t0 = std::chrono::steady_clock::now();
    bool quiesced = machine->run(50'000'000);
    p.wallSec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

    p.events = machine->eventq().numProcessed();
    p.ticks = machine->curTick();
    p.eventsPerSec =
        p.wallSec > 0 ? static_cast<double>(p.events) / p.wallSec : 0;
    for (auto &g : gens) {
        p.sent += g->sent();
        p.drained += g->drained();
        p.stallRetries += g->stallRetries();
    }
    p.ok = quiesced && p.sent == uint64_t(nodes) * tc.messages &&
           p.drained == p.sent;

    // Sample the high-water mark while the machine is still alive so
    // the row reflects this point's footprint.
    p.peakRss = peakRssBytes();
    p.bytesPerEvent =
        p.events > 0 ? static_cast<double>(p.peakRss) / p.events : 0;
    return p;
}

/** Largest --sizes entry: the default run's top point, whose 64k-node
 *  hotspot already peaks at ~1.4 GB of host memory. */
constexpr unsigned long maxScaleNodes = 65536;

/** Parse --sizes: decimal node counts in [2, maxScaleNodes], strictly
 *  ascending (each row's peak RSS is the process high-water mark). */
std::vector<unsigned>
parseSizes(const std::string &csv)
{
    std::vector<unsigned> sizes;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        // Six digits keep stoul in range and still exceed the cap.
        unsigned long v = 0;
        if (item.size() <= 6 &&
            item.find_first_not_of("0123456789") == std::string::npos)
            v = std::stoul(item);
        if (v < 2 || v > maxScaleNodes)
            fatal("exp_scale: --sizes entries must be node counts in "
                  "[2, %lu], got '%s'", maxScaleNodes, item.c_str());
        if (!sizes.empty() && v <= sizes.back())
            fatal("exp_scale: --sizes must ascend, got %lu after %u", v,
                  sizes.back());
        sizes.push_back(static_cast<unsigned>(v));
    }
    if (sizes.empty())
        fatal("exp_scale: --sizes parsed empty");
    return sizes;
}

int
runScale(const exp::Context &ctx)
{
    const std::vector<unsigned> sizes = parseSizes(ctx.str("--sizes"));
    const unsigned hotspot =
        static_cast<unsigned>(ctx.num("--hotspot-permille"));
    sys::TrafficConfig tc;
    tc.messages = static_cast<uint64_t>(ctx.num("--msgs"));
    tc.meanGap = static_cast<Tick>(ctx.num("--gap"));
    tc.seed = static_cast<uint64_t>(ctx.num("--seed"));
    if (tc.messages == 0)
        fatal("exp_scale: --msgs must be >= 1");
    if (tc.meanGap == 0)
        fatal("exp_scale: --gap must be >= 1");
    if (hotspot > 1000)
        fatal("exp_scale: --hotspot-permille must be <= 1000");
    const std::string out_file = ctx.str("--out");

    std::cout << "Simulation-core scaling: " << tc.messages
              << " msgs/node, mean gap " << tc.meanGap << "\n\n";

    // Serial, ascending sizes: points share the process (peak RSS is
    // cumulative) and a 64k machine wants the whole host to itself.
    std::vector<ScalePoint> points;
    size_t slot = 0;
    for (unsigned n : sizes) {
        struct Pat { const char *name; unsigned permille; };
        std::vector<Pat> pats{{"uniform", 0}};
        if (hotspot > 0)
            pats.push_back({"hotspot", hotspot});
        for (const Pat &pat : pats) {
            std::string label = "scale/" + std::to_string(n) + "/" +
                                pat.name;
            auto ms = ctx.taskMetrics(slot++, label);
            std::fprintf(stderr, "  running %s...\n", label.c_str());
            sys::TrafficConfig ptc = tc;
            ptc.hotspotPermille = pat.permille;
            points.push_back(runPoint(n, ptc, pat.name));
        }
    }

    TextTable tt;
    tt.header({"Nodes", "Pattern", "Events", "Ticks",
               "Wall (s)", "Mev/s", "Peak RSS", "B/event", "Result"});
    char buf[64];
    for (const ScalePoint &p : points) {
        std::snprintf(buf, sizeof(buf), "%.3f", p.wallSec);
        std::string wall = buf;
        std::snprintf(buf, sizeof(buf), "%.2f", p.eventsPerSec / 1e6);
        std::string mevs = buf;
        std::snprintf(buf, sizeof(buf), "%.1fM",
                      static_cast<double>(p.peakRss) / (1 << 20));
        std::string rss = buf;
        std::snprintf(buf, sizeof(buf), "%.1f", p.bytesPerEvent);
        std::string bpe = buf;
        tt.row({std::to_string(p.nodes), p.pattern,
                fmtK(double(p.events)),
                std::to_string(p.ticks), wall, mevs, rss, bpe,
                p.ok ? "ok" : "FAILED"});
    }
    tt.print(std::cout);

    std::ostringstream sec;
    sec << "{\"provenance\":" << provenanceJson(ctx, "scale")
        << ",\n\"config\":{\"msgsPerNode\":" << tc.messages
        << ",\"meanGap\":" << tc.meanGap << ",\"hotspotPermille\":"
        << hotspot << ",\"seed\":" << tc.seed << "},\n\"points\":[";
    for (size_t i = 0; i < points.size(); ++i) {
        const ScalePoint &p = points[i];
        sec << (i ? ",\n" : "\n") << "{\"nodes\":" << p.nodes
            << ",\"pattern\":\"" << p.pattern << "\",\"ok\":"
            << (p.ok ? "true" : "false")
            << ",\"events\":" << p.events << ",\"ticks\":" << p.ticks
            << ",\"wallSec\":" << p.wallSec << ",\"eventsPerSec\":"
            << p.eventsPerSec << ",\"sent\":" << p.sent
            << ",\"drained\":" << p.drained << ",\"stallRetries\":"
            << p.stallRetries << ",\"peakRssBytes\":" << p.peakRss
            << ",\"bytesPerEvent\":" << p.bytesPerEvent << "}";
    }
    sec << "]}";
    if (!jsonio::upsertSection(out_file, "scale", sec.str()))
        fatal("cannot write --out file '%s'", out_file.c_str());
    std::cout << "wrote " << out_file << "\n";

    for (const ScalePoint &p : points)
        if (!p.ok)
            return 1;
    return 0;
}

} // namespace

void
registerScale(exp::ExperimentRegistry &reg)
{
    reg.add({
        "scale",
        "Simulation-core scaling: event throughput and footprint on "
        "growing meshes",
        {
            {"--sizes", "N,N,...",
             "mesh node counts, strictly ascending, each in [2, 65536]",
             "64,4096,65536", false},
            {"--msgs", "N", "messages sent per node", "16", false},
            {"--gap", "T", "mean inter-send gap in ticks", "20",
             false},
            {"--hotspot-permille", "P",
             "run a second pattern aiming P per mille of traffic at "
             "node 0 (0: uniform only)", "50", false},
            {"--seed", "S", "workload seed", "1", false},
            {"--out", "FILE",
             "shared benchmark JSON to splice the \"scale\" section "
             "into", "BENCH_host.json", false},
        },
        false,  // results go to --out
        false,  // no --trace
        runScale,
    });
}

} // namespace bench
} // namespace tcpni
