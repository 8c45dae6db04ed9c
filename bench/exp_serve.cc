/**
 * @file
 * The open-loop serving experiment: tail latency of a mesh under
 * transport policies (src/transport), per arrival process and paper
 * placement.
 *
 * Every node runs an open-loop TrafficGen: intents accrue on an
 * arrival clock that never pauses for backpressure, each message
 * carries its intent tick, and the receiving node records end-to-end
 * sojourn (completion - intent) into an HDR histogram.  Receivers
 * model a server: one message retires every serviceTime ticks, where
 * serviceTime is *measured* -- the Table-1 harness's dispatch +
 * processing cost of a READ under the same placement -- so the serving
 * capacity is the placement's own, not a knob.
 *
 * Scenarios: `uniform`, `poisson`, and `bursty` arrivals over
 * uniform-random destinations, plus `incast`: every node aims at node
 * 0 (Poisson arrivals), the N-clients-one-server shape where the
 * paper's interface -- which has no output-side transport at all --
 * collapses into tree saturation.  The incast offered load defaults to
 * a fixed fraction of the server's measured service capacity, so
 * `naive`, `window`, and `paced` are compared at equal offered load
 * and the difference is pure queueing behavior.
 *
 * Reported per (scenario, policy, placement): sojourn p50/p99/p999,
 * offered vs delivered throughput, SEND stall retries, and the
 * transport policy's own accounting.  All quantities are integers and
 * every simulation input is seeded, so `--json` output is byte-stable
 * across --jobs (pinned under tests/golden/).
 *
 * Results also splice into the shared BENCH_host.json ("serve"
 * section) when --out is given.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "cost/table1.hh"
#include "experiments.hh"
#include "metrics/histogram.hh"
#include "ni/model_registry.hh"
#include "sim/sweep.hh"
#include "system/system.hh"
#include "system/traffic.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace bench
{

namespace
{

struct Scenario
{
    std::string name;
    sys::Arrival arrival;
    sys::Pattern pattern;
};

Scenario
scenarioFromName(const std::string &name)
{
    if (name == "uniform")
        return {name, sys::Arrival::uniform, sys::Pattern::random};
    if (name == "poisson")
        return {name, sys::Arrival::poisson, sys::Pattern::random};
    if (name == "bursty")
        return {name, sys::Arrival::bursty, sys::Pattern::random};
    if (name == "incast")
        return {name, sys::Arrival::poisson, sys::Pattern::incast};
    fatal("exp_serve: unknown scenario '%s' (uniform, poisson, "
          "bursty, incast)", name.c_str());
}

struct ServeResult
{
    bool ok = false;
    bool quiesced = false;
    uint64_t ticks = 0;
    Tick serviceTime = 0;
    Tick meanGap = 0;
    uint64_t arrivals = 0;
    uint64_t sent = 0;
    uint64_t drained = 0;
    uint64_t stallRetries = 0;
    Tick lastArrivalTick = 0;

    /** Merged end-to-end sojourn across every receiving node. */
    uint64_t e2eCount = 0;
    uint64_t e2eSum = 0;
    uint64_t e2eP50 = 0;
    uint64_t e2eP99 = 0;
    uint64_t e2eP999 = 0;
    uint64_t e2eMax = 0;

    /** Transport-policy accounting summed over nodes (0 for naive). */
    int64_t holds = 0;
    int64_t admits = 0;
    int64_t credits = 0;
    int64_t oafullEdges = 0;

    /** NI-side congestion telemetry summed over nodes. */
    uint64_t oafullCycles = 0;
    uint64_t oqOccTicks = 0;
};

/** Integer throughput in messages per 1000 ticks (0 when span 0). */
uint64_t
perKtick(uint64_t count, uint64_t span)
{
    return span ? count * 1000 / span : 0;
}

ServeResult
runServe(const ni::Model &model, const std::string &policy,
         const Scenario &sc, Tick service_time, Tick mean_gap,
         const sys::TrafficConfig &base_tc,
         const transport::TransportConfig &base_xc,
         unsigned width, unsigned height, Tick max_ticks,
         unsigned oafull_threshold)
{
    const unsigned nodes = width * height;

    sys::NodeConfig cfg;
    cfg.memBytes = 4096;        // nothing executes
    cfg.ni = model.config();
    cfg.ni.transport = base_xc;
    cfg.ni.transport.policy = policy;
    // The oafull threshold is a software-settable CONTROL field (Sec
    // 2.2.4); a pacing stack programs it low for an early congestion
    // signal.  Applied to every policy so the hardware is identical
    // across the comparison (naive never reads the signal, so only
    // its telemetry changes).
    if (oafull_threshold)
        cfg.ni.outputThreshold = oafull_threshold;

    sys::System machine("serve", width, height,
                        std::vector<sys::NodeConfig>(nodes, cfg));

    sys::TrafficConfig tc = base_tc;
    tc.arrival = sc.arrival;
    tc.pattern = sc.pattern;
    tc.openLoop = true;
    tc.serviceTime = service_time;
    tc.meanGap = mean_gap;

    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    gens.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n)
        gens.push_back(
            std::make_unique<sys::TrafficGen>(machine, n, tc));
    for (auto &g : gens)
        g->start();

    ServeResult r;
    r.serviceTime = service_time;
    r.meanGap = mean_gap;
    r.quiesced = machine.run(max_ticks);
    r.ticks = machine.curTick();

    metrics::Histogram e2e;
    for (auto &g : gens) {
        r.arrivals += g->arrivals();
        r.sent += g->sent();
        r.drained += g->drained();
        r.stallRetries += g->stallRetries();
        if (g->lastArrivalTick() > r.lastArrivalTick)
            r.lastArrivalTick = g->lastArrivalTick();
        e2e.merge(g->sojourn());
    }
    r.e2eCount = e2e.count();
    r.e2eSum = e2e.sum();
    r.e2eP50 = e2e.percentile(0.50);
    r.e2eP99 = e2e.percentile(0.99);
    r.e2eP999 = e2e.percentile(0.999);
    r.e2eMax = e2e.max();

    for (NodeId n = 0; n < nodes; ++n) {
        if (auto *p = machine.node(n).transportPolicy()) {
            r.holds += p->holds();
            r.admits += p->admits();
            r.credits += p->creditsReturned();
            r.oafullEdges += p->oafullEdges();
        }
        r.oafullCycles += machine.node(n).ni().oafullCycles();
        r.oqOccTicks += machine.node(n).ni().outputOccTicks();
    }

    const uint64_t expect_senders =
        sc.pattern == sys::Pattern::incast ? nodes - 1 : nodes;
    r.ok = r.quiesced &&
           r.arrivals == uint64_t(expect_senders) * tc.messages &&
           r.sent == r.arrivals && r.drained == r.sent &&
           r.e2eCount == r.drained;
    return r;
}

std::vector<Scenario>
parseScenarios(const std::string &csv)
{
    std::vector<Scenario> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(scenarioFromName(item));
    if (out.empty())
        fatal("exp_serve: --scenarios parsed empty");
    return out;
}

std::vector<std::string>
parsePolicies(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        if (!transport::findPolicy(item)) {
            fatal("exp_serve: unknown policy '%s' (registered: %s)",
                  item.c_str(), transport::policyNames().c_str());
        }
        out.push_back(item);
    }
    if (out.empty())
        fatal("exp_serve: --policies parsed empty");
    return out;
}

int
runServeExp(const exp::Context &ctx)
{
    const unsigned width = static_cast<unsigned>(ctx.num("--width"));
    const unsigned height = static_cast<unsigned>(ctx.num("--height"));
    if (width < 1 || height < 1 || width * height < 2)
        fatal("exp_serve: mesh must have at least 2 nodes");
    const Tick max_ticks = static_cast<Tick>(ctx.num("--max-ticks"));

    sys::TrafficConfig tc;
    tc.messages = static_cast<uint64_t>(ctx.num("--msgs"));
    tc.seed = static_cast<uint64_t>(ctx.num("--seed"));
    if (tc.messages == 0)
        fatal("exp_serve: --msgs must be >= 1");
    const Tick gap = static_cast<Tick>(ctx.num("--gap"));
    if (gap == 0)
        fatal("exp_serve: --gap must be >= 1");
    const Tick incast_gap_req =
        static_cast<Tick>(ctx.num("--incast-gap"));

    transport::TransportConfig xc;
    xc.window = static_cast<unsigned>(ctx.num("--window"));
    xc.paceRate = static_cast<unsigned>(ctx.num("--pace-rate"));
    xc.paceBurst = static_cast<unsigned>(ctx.num("--pace-burst"));
    xc.paceAiStep = static_cast<unsigned>(ctx.num("--pace-ai-step"));
    xc.paceAiInterval =
        static_cast<unsigned>(ctx.num("--pace-ai-interval"));
    xc.paceAiHoldoff =
        static_cast<unsigned>(ctx.num("--pace-ai-holdoff"));
    const unsigned oafull_threshold =
        static_cast<unsigned>(ctx.num("--oafull-threshold"));

    const std::vector<Scenario> scenarios =
        parseScenarios(ctx.str("--scenarios"));
    const std::vector<std::string> policies =
        parsePolicies(ctx.str("--policies"));

    // The three optimized paper placements (reg / on-chip / off-chip).
    std::vector<ni::Model> models(ni::paperModels().begin(),
                                  ni::paperModels().begin() + 3);

    // Measured service times: the Table-1 READ dispatch + processing
    // cost under each placement.  Run BEFORE the sweep: the harness
    // simulations must not register into a sweep task's metrics scope.
    std::vector<Tick> svc(models.size());
    for (size_t mi = 0; mi < models.size(); ++mi) {
        cost::ProcCost pc =
            cost::Table1Harness(models[mi]).processingCost(
                cost::ProcCase::read);
        svc[mi] = static_cast<Tick>(
            std::lround(pc.dispatching + pc.processing));
        if (svc[mi] < 1)
            svc[mi] = 1;
    }

    const unsigned clients = width * height - 1;
    std::cout << "Open-loop serving tail latency on a " << width
              << "x" << height << " mesh (" << tc.messages
              << " msgs/sender, measured READ service time)\n";

    const size_t n_m = models.size();
    const size_t n_p = policies.size();
    const size_t n_runs = scenarios.size() * n_p * n_m;

    SweepRunner sweep(ctx.jobs);
    std::vector<ServeResult> results = sweep.map<ServeResult>(
        n_runs, [&](size_t idx) {
            size_t mi = idx % n_m;
            size_t pi = (idx / n_m) % n_p;
            size_t si = idx / (n_m * n_p);
            const Scenario &sc = scenarios[si];
            std::string label = "serve/" + sc.name + "/" +
                                policies[pi] + "/" +
                                models[mi].shortName();
            auto ms = ctx.taskMetrics(idx, label);
            std::fprintf(stderr, "  running %s...\n", label.c_str());
            // Incast offered load is a fixed fraction of the server's
            // measured capacity: aggregate arrival rate C/gap vs
            // service rate 1/svc, so gap = C * svc * 10/9 puts the
            // server at ~90% utilization -- loaded enough that the
            // transport discipline decides the tail, stable enough
            // that the backlog drains.
            Tick mean_gap = gap;
            if (sc.pattern == sys::Pattern::incast) {
                mean_gap = incast_gap_req
                               ? incast_gap_req
                               : (Tick(clients) * svc[mi] * 10 + 8) / 9;
            }
            return runServe(models[mi], policies[pi], sc, svc[mi],
                            mean_gap, tc, xc, width, height,
                            max_ticks, oafull_threshold);
        });
    auto at = [&](size_t si, size_t pi, size_t mi) -> ServeResult & {
        return results[(si * n_p + pi) * n_m + mi];
    };

    TextTable tt;
    tt.header({"Scenario", "Policy", "Placement", "Svc", "p50", "p99",
               "p999", "Offered/kt", "Delivered/kt", "Stalls",
               "Result"});
    for (size_t si = 0; si < scenarios.size(); ++si) {
        for (size_t pi = 0; pi < n_p; ++pi) {
            for (size_t mi = 0; mi < n_m; ++mi) {
                const ServeResult &r = at(si, pi, mi);
                tt.row({scenarios[si].name, policies[pi],
                        models[mi].shortName(),
                        std::to_string(r.serviceTime),
                        std::to_string(r.e2eP50),
                        std::to_string(r.e2eP99),
                        std::to_string(r.e2eP999),
                        std::to_string(
                            perKtick(r.arrivals, r.lastArrivalTick)),
                        std::to_string(perKtick(r.drained, r.ticks)),
                        std::to_string(r.stallRetries),
                        r.ok ? "ok" : "FAILED"});
            }
        }
    }
    tt.print(std::cout);

    auto emit = [&](std::ostream &os) {
        os << "{\"config\":{\"width\":" << width << ",\"height\":"
           << height << ",\"msgsPerSender\":" << tc.messages
           << ",\"gap\":" << gap << ",\"seed\":" << tc.seed
           << ",\"window\":" << xc.window << ",\"paceRate\":"
           << xc.paceRate << ",\"paceBurst\":" << xc.paceBurst
           << ",\"paceAiStep\":" << xc.paceAiStep
           << ",\"paceAiInterval\":" << xc.paceAiInterval
           << ",\"paceAiHoldoff\":" << xc.paceAiHoldoff
           << ",\"oafullThreshold\":" << oafull_threshold
           // Deliberately no engine knob (--jobs) here: the serial
           // and parallel-sweep goldens pin the SAME bytes, so
           // nothing engine-side may show through.
           << "},\n\"scenarios\":{";
        for (size_t si = 0; si < scenarios.size(); ++si) {
            os << (si ? ",\n" : "\n") << "\"" << scenarios[si].name
               << "\":{";
            for (size_t pi = 0; pi < n_p; ++pi) {
                os << (pi ? ",\n " : "\n ") << "\"" << policies[pi]
                   << "\":{";
                for (size_t mi = 0; mi < n_m; ++mi) {
                    const ServeResult &r = at(si, pi, mi);
                    os << (mi ? ",\n  " : "\n  ") << "\""
                       << models[mi].shortName() << "\":{"
                       << "\"ok\":" << (r.ok ? "true" : "false")
                       << ",\"ticks\":" << r.ticks
                       << ",\"serviceTime\":" << r.serviceTime
                       << ",\"meanGap\":" << r.meanGap
                       << ",\"arrivals\":" << r.arrivals
                       << ",\"sent\":" << r.sent
                       << ",\"drained\":" << r.drained
                       << ",\"stallRetries\":" << r.stallRetries
                       << ",\"offeredPerKtick\":"
                       << perKtick(r.arrivals, r.lastArrivalTick)
                       << ",\"deliveredPerKtick\":"
                       << perKtick(r.drained, r.ticks)
                       << ",\"e2e\":{\"count\":" << r.e2eCount
                       << ",\"sum\":" << r.e2eSum
                       << ",\"p50\":" << r.e2eP50
                       << ",\"p99\":" << r.e2eP99
                       << ",\"p999\":" << r.e2eP999
                       << ",\"max\":" << r.e2eMax << "}"
                       << ",\"transport\":{\"holds\":" << r.holds
                       << ",\"admits\":" << r.admits
                       << ",\"creditsReturned\":" << r.credits
                       << ",\"oafullEdges\":" << r.oafullEdges << "}"
                       << ",\"ni\":{\"oafullCycles\":"
                       << r.oafullCycles << ",\"oqOccTicks\":"
                       << r.oqOccTicks << "}}";
                }
                os << "}";
            }
            os << "}";
        }
        os << "\n}}\n";
    };

    ctx.writeJson(emit);

    const std::string out_file = ctx.str("--out");
    if (!out_file.empty()) {
        std::ostringstream sec;
        emit(sec);
        if (!jsonio::upsertSection(out_file, "serve", sec.str()))
            fatal("cannot write --out file '%s'", out_file.c_str());
        std::cout << "wrote " << out_file << "\n";
    }

    for (const ServeResult &r : results)
        if (!r.ok)
            return 1;
    return 0;
}

} // namespace

void
registerServe(exp::ExperimentRegistry &reg)
{
    reg.add({
        "serve",
        "Open-loop serving tail latency per transport policy, arrival "
        "process, and paper placement",
        {
            {"--width", "W", "mesh width", "8", false},
            {"--height", "H", "mesh height", "8", false},
            {"--msgs", "N", "messages per sending node", "64", false},
            {"--gap", "T",
             "mean inter-arrival gap for the random-destination "
             "scenarios", "32", false},
            {"--incast-gap", "T",
             "mean inter-arrival gap per incast client (0: auto, "
             "~90% of the measured service capacity)", "0", false},
            {"--scenarios", "S,S,...",
             "uniform, poisson, bursty, incast",
             "uniform,poisson,bursty,incast", false},
            {"--policies", "P,P,...", "transport policies to compare",
             "naive,window,paced", false},
            {"--window", "N", "window policy: per-destination credit "
             "window", "4", false},
            {"--pace-rate", "R", "paced policy: initial rate "
             "(1024 = 1 msg/tick)", "256", false},
            {"--pace-burst", "B", "paced policy: bucket depth "
             "(messages)", "2", false},
            {"--pace-ai-step", "R", "paced policy: additive-increase "
             "step per clear interval", "4", false},
            {"--pace-ai-interval", "T", "paced policy: adaptation "
             "interval (ticks)", "256", false},
            {"--pace-ai-holdoff", "K", "paced policy: clear intervals "
             "after a decrease before AI resumes", "8", false},
            {"--oafull-threshold", "N",
             "output-queue oafull threshold programmed into every NI "
             "(0: model default)", "0", false},
            {"--max-ticks", "T", "per-run tick budget", "4000000",
             false},
            {"--seed", "S", "workload seed", "1", false},
            {"--out", "FILE",
             "shared benchmark JSON to splice the \"serve\" section "
             "into (empty: skip)", "", false},
        },
        true,   // --json
        false,  // no --trace
        runServeExp,
    });
}

} // namespace bench
} // namespace tcpni
