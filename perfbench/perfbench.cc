/**
 * @file
 * perfbench, the repository benchmark: host time of the simulator on
 * three fixed workloads, end to end and layer by layer.
 *
 * Each workload is one pass function that drives the simulator from
 * outside, through the public calls the bench/exp_*.cc experiments
 * use: cost::Table1Harness, tam::measureCommCosts, apps::runMatMul /
 * runGamteb, tam::expand, sys::System, sys::TrafficGen and
 * System::run.  A run does one untimed reference pass, then
 * repeats the pass until --seconds have elapsed.  A pass fails when
 * one of its own checks fails or when its simulated statistics differ
 * from the reference pass's.
 *
 * Measured passes are cut into the same segments every time
 * (Tracer::lap), and run_s sums each segment's fastest time over the
 * run (lapMinSum).  Machines run in steps of simulated ticks to give
 * them segments; the reference pass runs each in one System::run call.
 *
 * With --trace 1 the passes rotate through three configurations:
 * plain; "metrics", with a metrics::Registry installed (sample interval
 * 0, so no Sampler runs) for counts such as CPU instructions and
 * per-link transfers; and "traced", with evprof per-event-type self
 * time.  The two instruments run in separate passes because the
 * registry's per-link accounting slows the mesh tick that evprof
 * times.  Plain passes give the span times and the baseline of the two
 * overhead ratios.  Every instrumented pass must reproduce the
 * reference statistics exactly.
 *
 * Host time is taken from spans recorded here around each layer call.
 * They stay in memory and are written as Chrome trace JSON to --spans
 * at exit (traced runs only).
 *
 * Output: one JSON object on stdout.  perfbench/run.py builds this
 * program, checks the goldens and prints the benchmark's result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/gamteb.hh"
#include "apps/matmul.hh"
#include "common/stats.hh"
#include "cost/table1.hh"
#include "cpu/cpu.hh"
#include "metrics/metrics.hh"
#include "msg/kernels.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "system/traffic.hh"
#include "tam/expand.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;
using cost::ProcCase;
using msg::Kind;

const Clock::time_point processStart = Clock::now();

double
nowSec()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

/** Host-time spans around each layer call.  Spans nest; totals by
 *  name restart with every pass. */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t), idx_(t.open(name)) {}
        ~Scope() { t_.close(idx_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        size_t idx_;
    };

    void
    beginPass(unsigned pass, const char *phase)
    {
        pass_ = pass;
        phase_ = phase;
        totals_.clear();
        laps_.clear();
        lapStart_ = nowSec();
    }

    /** Close the pass's current segment and start the next.  A pass
     *  cuts the same segments, in the same order, every time. */
    void
    lap()
    {
        double now = nowSec();
        laps_.push_back(now - lapStart_);
        lapStart_ = now;
    }

    /** Host seconds of each segment since beginPass(). */
    const std::vector<double> &laps() const { return laps_; }

    /** Host seconds in spans named @p name since beginPass(). */
    double
    total(const std::string &name) const
    {
        auto it = totals_.find(name);
        return it == totals_.end() ? 0 : it->second;
    }

    const std::map<std::string, double> &totals() const { return totals_; }

    /** Chrome trace-event JSON of every span recorded; @p other holds
     *  the members of its "otherData" object. */
    void
    writeChrome(std::ostream &os, const std::string &other) const
    {
        os << "{\"otherData\":{" << other << "},\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[96];
            std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                          s.start * 1e6, (s.end - s.start) * 1e6);
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
               << ",\"args\":{\"pass\":" << s.pass << ",\"phase\":\""
               << s.phase << "\",\"parent\":" << s.parent << "}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        long parent;        //!< index of the enclosing span, -1 at top
        unsigned pass;
        const char *phase;
        double start;
        double end;
    };

    size_t
    open(const char *name)
    {
        long parent = stack_.empty() ? -1 : long(stack_.back());
        spans_.push_back({name, parent, pass_, phase_, nowSec(), 0});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(size_t idx)
    {
        Span &s = spans_[idx];
        s.end = nowSec();
        totals_[s.name] += s.end - s.start;
        stack_.pop_back();
    }

    std::vector<Span> spans_;
    std::vector<size_t> stack_;
    std::map<std::string, double> totals_;
    std::vector<double> laps_;
    double lapStart_ = 0;
    unsigned pass_ = 0;
    const char *phase_ = "reference";
};

/** What one pass reports besides its host time. */
struct PassResult
{
    bool ok = true;
    std::string failure;        //!< the first check that failed

    /** Simulated statistics; every pass must repeat them exactly. */
    std::vector<double> digest;

    double msgs = 0;            //!< simulated messages delivered
    double simTicks = 0;        //!< simulated makespan, summed
    double simEvents = 0;       //!< events the machines processed
    double sojournP99 = -1;     //!< worst cell's p99 (serve only)
    double table1CellsOff = -1; //!< paper_models only

    /** Deterministic per-layer counts read from the machines. */
    std::map<std::string, double> counts;

    /** Event self time spent inside the cost harness (traced). */
    evprof::Profile harnessProf;

    /** Golden-comparable results (reference pass of paper_models). */
    std::string golden;

    void
    check(bool cond, const std::string &what)
    {
        if (!cond && ok) {
            ok = false;
            failure = what;
        }
    }
};

// ---------------------------------------------------------------------
// paper_models: Table 1 and Figure 12.

const Kind sendKinds[] = {Kind::send0, Kind::send1, Kind::send2,
                          Kind::pread, Kind::pwrite, Kind::read,
                          Kind::write};

const ProcCase procCases[] = {
    ProcCase::send0,      ProcCase::send1,       ProcCase::send2,
    ProcCase::read,       ProcCase::write,       ProcCase::preadFull,
    ProcCase::preadEmpty, ProcCase::preadDeferred,
    ProcCase::pwriteEmpty,
};

using Column = std::map<std::string, cost::PaperCell>;

/** One model's Table-1 column, measured the way bench/exp_table1.cc
 *  measures it. */
Column
table1Column(cost::Table1Harness &h)
{
    Column cells;
    for (Kind k : sendKinds) {
        double copy = h.sendingCost(k);
        double lo = copy;
        if (h.model().policy().directCompose())
            lo = copy - msg::directlyComputableWords(k);
        cells[cost::sendRowKey(k)] = {lo, copy, 0};
    }
    cost::ProcCost read = h.processingCost(ProcCase::read);
    cells["dispatch"] = {read.dispatching, read.dispatching, 0};
    for (ProcCase c : procCases) {
        cost::ProcCost pc = h.processingCost(c);
        cells[cost::procRowKey(c)] = {pc.processing, pc.processing, 0};
    }
    cost::LinearCost lin = h.pwriteDeferredCost();
    cells[cost::procRowKey(ProcCase::pwriteDeferred)] = {lin.base,
                                                         lin.base,
                                                         lin.slope};
    return cells;
}

/** Table-1 cells more than 3 cycles from the paper (the "larger
 *  deviation" count of bench/exp_table1.cc's comparison). */
unsigned
cellsOff(const std::vector<Column> &columns)
{
    unsigned off = 0;
    for (const auto &[key, paper] : cost::paperTable1()) {
        for (size_t i = 0; i < paper.size(); ++i) {
            const cost::PaperCell &mc = columns[i].at(key);
            const cost::PaperCell &pc = paper[i];
            bool same = mc.hi == pc.hi && mc.slope == pc.slope;
            double delta = (mc.hi - pc.hi) + 10 * (mc.slope - pc.slope);
            if (!same && std::abs(delta) > 3.0)
                ++off;
        }
    }
    return off;
}

std::vector<double>
commCostValues(const tam::CommCosts &c)
{
    return {c.sendSend0, c.sendSend1, c.sendSend2, c.sendRead,
            c.sendWrite, c.sendPRead, c.sendPWrite, c.dispatch,
            c.dispSend0, c.dispSend1, c.dispSend2, c.dispRead,
            c.dispWrite, c.dispPReadFull, c.dispPReadEmpty,
            c.dispPReadDeferred, c.dispPWrite, c.procSend0,
            c.procSend1, c.procSend2, c.procRead, c.procWrite,
            c.procPReadFull, c.procPReadEmpty, c.procPReadDeferred,
            c.procPWriteEmpty, c.procPWriteDefBase,
            c.procPWriteDefSlope};
}

std::string
quoted(const std::string &s)
{
    return "\"" + stats::jsonEscape(s) + "\"";
}

/** The measured cells in tests/golden/table1.json's shape:
 *  {row: {model: {lo, hi, slope}}}. */
std::string
table1Json(const std::vector<std::string> &names,
           const std::vector<Column> &columns)
{
    using stats::jsonNum;
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[key, cell0] : columns[0]) {
        os << (first ? "" : ",") << quoted(key) << ":{";
        first = false;
        for (size_t i = 0; i < columns.size(); ++i) {
            const cost::PaperCell &c = columns[i].at(key);
            os << (i ? "," : "") << quoted(names[i]) << ":{\"lo\":"
               << jsonNum(c.lo) << ",\"hi\":" << jsonNum(c.hi)
               << ",\"slope\":" << jsonNum(c.slope) << "}";
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

/** The "models" and "programs" sections of
 *  tests/golden/figure12.json, rendered as bench/exp_figure12.cc
 *  renders them. */
std::string
figure12Json(const std::vector<std::string> &names,
             const std::vector<tam::CommCosts> &costs, unsigned n,
             unsigned particles)
{
    using stats::jsonNum;
    apps::MatMulResult mm = apps::runMatMul(n, 4);
    apps::GamtebResult gt = apps::runGamteb(particles);

    std::ostringstream os;
    os << "{\"models\":{";
    for (size_t i = 0; i < costs.size(); ++i) {
        const tam::CommCosts &c = costs[i];
        os << (i ? "," : "") << quoted(names[i]) << ":{"
           << "\"send\":{\"send0\":" << jsonNum(c.sendSend0)
           << ",\"send1\":" << jsonNum(c.sendSend1)
           << ",\"send2\":" << jsonNum(c.sendSend2)
           << ",\"read\":" << jsonNum(c.sendRead)
           << ",\"write\":" << jsonNum(c.sendWrite)
           << ",\"pread\":" << jsonNum(c.sendPRead)
           << ",\"pwrite\":" << jsonNum(c.sendPWrite) << "},"
           << "\"dispatch\":" << jsonNum(c.dispatch) << ","
           << "\"process\":{\"send0\":" << jsonNum(c.procSend0)
           << ",\"send1\":" << jsonNum(c.procSend1)
           << ",\"send2\":" << jsonNum(c.procSend2)
           << ",\"read\":" << jsonNum(c.procRead)
           << ",\"write\":" << jsonNum(c.procWrite)
           << ",\"preadFull\":" << jsonNum(c.procPReadFull)
           << ",\"preadEmpty\":" << jsonNum(c.procPReadEmpty)
           << ",\"preadDeferred\":" << jsonNum(c.procPReadDeferred)
           << ",\"pwriteEmpty\":" << jsonNum(c.procPWriteEmpty)
           << ",\"pwriteDeferredBase\":" << jsonNum(c.procPWriteDefBase)
           << ",\"pwriteDeferredSlope\":"
           << jsonNum(c.procPWriteDefSlope) << "}}";
    }
    os << "},\"programs\":{";
    auto program = [&](const char *key, const std::string &name,
                       const tam::TamStats &stats, uint64_t flops) {
        os << quoted(key) << ":{\"name\":" << quoted(name)
           << ",\"messages\":" << stats.totalMessages()
           << ",\"flops\":" << flops << ",\"models\":{";
        for (size_t i = 0; i < costs.size(); ++i) {
            tam::Figure12Bar b = tam::expand(stats, costs[i]);
            os << (i ? "," : "") << quoted(names[i]) << ":{"
               << "\"work\":" << jsonNum(b.work)
               << ",\"dispatch\":" << jsonNum(b.dispatch)
               << ",\"sending\":" << jsonNum(b.sending)
               << ",\"otherComm\":" << jsonNum(b.otherComm)
               << ",\"total\":" << jsonNum(b.total())
               << ",\"commFraction\":" << jsonNum(b.commFraction())
               << "}";
        }
        os << "}}";
    };
    program("matmul",
            "Matrix Multiply " + std::to_string(n) + "x" +
                std::to_string(n),
            mm.stats, mm.stats.flops());
    os << ",";
    program("gamteb", "Gamteb " + std::to_string(particles), gt.stats,
            0);
    os << "}}";
    bool ok = mm.verified && gt.conserved();
    return ok ? os.str() : std::string("{\"error\":\"program check\"}");
}

/** The paper's six models and their registry names. */
std::vector<std::string>
paperModelNames()
{
    std::vector<std::string> names;
    for (size_t i = 0; i < ni::paperModels().size(); ++i)
        names.push_back(ni::registeredModels().at(i).name);
    return names;
}

/**
 * One paper_models pass: the Table-1 harness for the six paper
 * models (the Table-1 column plus the Figure-12 message costs), then
 * Figure 12's Matrix Multiply 100x100 and Gamteb 16 expanded under
 * all six.  When @p golden is set, also renders the results the
 * goldens pin (Figure 12 at the golden's n = 8, 2 particles).
 */
PassResult
paperPass(Tracer &t, bool golden)
{
    const auto &models = ni::paperModels();
    PassResult r;
    std::vector<Column> columns;
    std::vector<tam::CommCosts> costs;
    {
        Tracer::Scope harness(t, "cost.harness");
        for (const ni::Model &model : models) {
            std::optional<cost::Table1Harness> h;
            {
                Tracer::Scope build(t, "cost.harness_build");
                h.emplace(model);
            }
            columns.push_back(table1Column(*h));
            costs.push_back(tam::measureCommCosts(model));
            t.lap();
        }
        r.harnessProf = evprof::take();
    }

    apps::MatMulResult mm;
    apps::GamtebResult gt;
    {
        Tracer::Scope s(t, "tam.matmul");
        mm = apps::runMatMul(100, 4);
    }
    t.lap();
    {
        Tracer::Scope s(t, "tam.gamteb");
        gt = apps::runGamteb(16);
    }
    t.lap();
    std::vector<tam::Figure12Bar> bars;
    {
        Tracer::Scope s(t, "tam.expand");
        for (const tam::CommCosts &c : costs) {
            bars.push_back(tam::expand(mm.stats, c));
            bars.push_back(tam::expand(gt.stats, c));
        }
    }
    t.lap();
    r.check(mm.verified, "matrix multiply failed verification");
    r.check(gt.conserved(), "gamteb particle accounting failed");

    for (const Column &col : columns)
        for (const auto &[key, c] : col)
            r.digest.insert(r.digest.end(), {c.lo, c.hi, c.slope});
    for (const tam::CommCosts &c : costs) {
        std::vector<double> v = commCostValues(c);
        r.digest.insert(r.digest.end(), v.begin(), v.end());
    }
    for (const tam::Figure12Bar &b : bars) {
        r.digest.insert(r.digest.end(),
                        {b.work, b.dispatch, b.sending, b.otherComm});
        r.simTicks += b.total();
    }
    r.msgs = double(mm.stats.totalMessages() + gt.stats.totalMessages());
    r.digest.push_back(r.msgs);
    r.table1CellsOff = cellsOff(columns);

    if (golden) {
        std::vector<std::string> names = paperModelNames();
        r.golden = "{\"table1\":" + table1Json(names, columns) +
                   ",\"figure12\":" + figure12Json(names, costs, 8, 2) +
                   "}";
    }
    return r;
}

/**
 * The setup calls a paper_models pass makes inside the harness,
 * replayed from outside so assembly and program load get their own
 * host time: per model, two harnesses (the Table-1 column and
 * tam::measureCommCosts's) each assemble the handler kernel, load it
 * once per server run, and assemble and load a sender kernel per
 * sender run.
 */
void
replaySetup(Tracer &t)
{
    // Server runs per harness: 12 processing costs x (K=4, K=12) for
    // the Table-1 column, 11 x 2 for measureCommCosts.
    static const unsigned serverRuns[] = {24, 22};
    static const unsigned senderCounts[] = {4, 12};
    EventQueue eq;
    auto load = [&](const isa::Program &prog) {
        Memory mem(1 << 20);
        Cpu cpu("cpu", eq, mem, nullptr);
        Tracer::Scope s(t, "cpu.load_program");
        cpu.loadProgram(prog);
    };
    auto assemble = [&](const std::string &src) {
        Tracer::Scope s(t, "isa.assemble");
        return msg::assembleKernel(src);
    };
    for (const ni::Model &model : ni::paperModels()) {
        for (int sw_checks = 0; sw_checks < 2; ++sw_checks) {
            isa::Program handler =
                assemble(msg::handlerProgram(model, sw_checks != 0));
            for (Kind k : sendKinds)
                for (unsigned count : senderCounts)
                    load(assemble(msg::senderProgram(model, k, count)));
            for (unsigned i = 0; i < serverRuns[sw_checks]; ++i)
                load(handler);
        }
    }
}

// ---------------------------------------------------------------------
// Mesh machines driven by TrafficGen: mesh_* and serve_incast.

/** One machine's totals, for the workload's own checks. */
struct Cell
{
    bool quiesced = false;
    uint64_t arrivals = 0, sent = 0, drained = 0, stalls = 0;
    uint64_t ticks = 0, events = 0;
    metrics::Histogram sojourn;
};

/**
 * Build a machine and a TrafficGen per node, run it, and fold its
 * simulated statistics into @p r.  With @p lap_ticks > 0 the run
 * advances the engine @p lap_ticks simulated ticks at a time and cuts
 * a lap after each step; 0 runs it in one System::run call, which the
 * reference pass does so that every lapped pass must reproduce the
 * statistics of an unbroken run.
 */
Cell
runMachine(Tracer &t, PassResult &r, unsigned side, unsigned shards,
           const sys::NodeConfig &cfg, const sys::TrafficConfig &tc,
           Tick max_ticks, Tick lap_ticks)
{
    const unsigned nodes = side * side;
    std::unique_ptr<sys::System> machine;
    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    {
        Tracer::Scope s(t, "system.build");
        machine = std::make_unique<sys::System>(
            "bench", side, side, std::vector<sys::NodeConfig>(nodes, cfg),
            shards);
    }
    t.lap();
    {
        Tracer::Scope s(t, "system.gen_start");
        gens.reserve(nodes);
        for (NodeId n = 0; n < nodes; ++n)
            gens.push_back(
                std::make_unique<sys::TrafficGen>(*machine, n, tc));
        for (auto &g : gens)
            g->start();
    }
    t.lap();
    Cell c;
    ShardedEngine &engine = machine->engine();
    {
        Tracer::Scope s(t, "sim.run");
        if (lap_ticks == 0) {
            c.quiesced = machine->run(max_ticks);
        } else {
            const Tick end = machine->curTick() + max_ticks;
            for (Tick until = lap_ticks;; until += lap_ticks) {
                engine.run(std::min(until, end));
                t.lap();
                if (engine.empty() || until >= end)
                    break;
            }
            // Nothing is left at or before the current tick, so this
            // only reads the quiescence flags.
            c.quiesced = machine->run(0);
        }
    }
    c.ticks = machine->curTick();
    c.events = engine.numProcessed();
    for (auto &g : gens) {
        c.arrivals += g->arrivals();
        c.sent += g->sent();
        c.drained += g->drained();
        c.stalls += g->stallRetries();
        c.sojourn.merge(g->sojourn());
    }
    int64_t holds = 0, admits = 0;
    uint64_t oafull = 0, oq_occ = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        if (auto *p = machine->node(n).transportPolicy()) {
            holds += p->holds();
            admits += p->admits();
        }
        oafull += machine->node(n).ni().oafullCycles();
        oq_occ += machine->node(n).ni().outputOccTicks();
    }
    const metrics::Histogram &lat = machine->mesh().latencyDist();

    // The engine's rounds, solo windows and cross-shard pushes stay out
    // of the digest: they count how the scheduler cut the run, and a
    // lapped run cuts it at every lap (the reference pass's values are
    // the per-layer counts).
    r.digest.insert(
        r.digest.end(),
        {double(c.ticks), double(c.events), double(c.arrivals),
         double(c.sent), double(c.drained), double(c.stalls),
         double(c.sojourn.count()), double(c.sojourn.percentile(0.50)),
         double(c.sojourn.percentile(0.99)),
         double(c.sojourn.percentile(0.999)), double(c.sojourn.max()),
         double(lat.percentile(0.50)), double(lat.percentile(0.99)),
         double(lat.percentile(0.999)), double(holds), double(admits),
         double(oafull), double(oq_occ),
         double(machine->mesh().injected())});

    r.msgs += double(c.drained);
    r.simTicks += double(c.ticks);
    r.simEvents += double(c.events);
    r.counts["sim.rounds"] += double(engine.rounds());
    r.counts["sim.solo_windows"] += double(engine.soloWindows());
    r.counts["sim.cross_shard_pushes"] +=
        double(engine.crossShardPushes());
    r.counts["noc.injected"] += double(machine->mesh().injected());
    r.counts["noc.routers_per_tick"] =
        double(nodes) / engine.numShards();
    r.counts["system.sent"] += double(c.sent);
    r.counts["system.stall_retries"] += double(c.stalls);
    r.counts["transport.holds"] += double(holds);
    r.counts["transport.admits"] += double(admits);
    return c;
}

/** One 64x64 pass: a TrafficGen per node, 16 messages each at mean
 *  gap 20, 5% of traffic aimed at node 0, 8 shards (the
 *  `scale` experiment's 4096-node point). */
PassResult
meshPass(Tracer &t, uint64_t seed, Tick lap_ticks)
{
    constexpr unsigned side = 64, shards = 8;
    sys::NodeConfig cfg;
    cfg.memBytes = 4096;
    cfg.ni.inputQueueDepth = 8;
    cfg.ni.outputQueueDepth = 8;
    cfg.ni.inputThreshold = 6;
    cfg.ni.outputThreshold = 6;
    sys::TrafficConfig tc;
    tc.messages = 16;
    tc.meanGap = 20;
    tc.hotspotPermille = 50;
    tc.seed = seed;

    PassResult r;
    Cell c =
        runMachine(t, r, side, shards, cfg, tc, 50'000'000, lap_ticks);
    r.check(c.quiesced, "machine did not quiesce");
    r.check(c.sent == uint64_t(side) * side * tc.messages,
            "sent != nodes * messages");
    r.check(c.drained == c.sent, "drained != sent");
    r.check(c.arrivals == c.sent, "arrivals != sent");
    return r;
}

/** One serve_incast pass: the EXPERIMENTS.md incast worked run -- an
 *  8x8 mesh, open-loop Poisson incast at mean gap 262, 48 messages
 *  per client, window 2 -- for {naive, window, paced} x the three
 *  optimized placements, each at its measured READ service time. */
PassResult
servePass(Tracer &t, uint64_t seed, Tick lap_ticks)
{
    constexpr unsigned side = 8, clients = side * side - 1;
    static const char *const policies[] = {"naive", "window", "paced"};
    constexpr size_t placements = 3;
    const auto &models = ni::paperModels();

    PassResult r;
    Tick svc[placements];
    {
        Tracer::Scope harness(t, "cost.harness");
        for (size_t mi = 0; mi < placements; ++mi) {
            std::optional<cost::Table1Harness> h;
            {
                Tracer::Scope build(t, "cost.harness_build");
                h.emplace(models[mi]);
            }
            cost::ProcCost pc = h->processingCost(ProcCase::read);
            svc[mi] = std::max<Tick>(
                1, static_cast<Tick>(
                       std::lround(pc.dispatching + pc.processing)));
            t.lap();
        }
        r.harnessProf = evprof::take();
    }

    for (const char *policy : policies) {
        for (size_t mi = 0; mi < placements; ++mi) {
            sys::NodeConfig cfg;
            cfg.memBytes = 4096;
            cfg.ni = models[mi].config();
            cfg.ni.transport.policy = policy;
            cfg.ni.transport.window = 2;
            sys::TrafficConfig tc;
            tc.messages = 48;
            tc.seed = seed;
            tc.arrival = sys::Arrival::poisson;
            tc.pattern = sys::Pattern::incast;
            tc.openLoop = true;
            tc.serviceTime = svc[mi];
            tc.meanGap = 262;

            Cell c =
                runMachine(t, r, side, 1, cfg, tc, 4'000'000, lap_ticks);
            const std::string cell =
                std::string(policy) + "/" + models[mi].shortName();
            r.check(c.quiesced, cell + ": machine did not quiesce");
            r.check(c.arrivals == uint64_t(clients) * tc.messages,
                    cell + ": arrivals != clients * messages");
            r.check(c.sent == c.arrivals, cell + ": sent != arrivals");
            r.check(c.drained == c.sent, cell + ": drained != sent");
            r.check(c.sojourn.count() == c.drained,
                    cell + ": sojourn count != drained");
            r.sojournP99 = std::max(
                r.sojournP99, double(c.sojourn.percentile(0.99)));
        }
    }
    return r;
}

// ---------------------------------------------------------------------
// Running and timing passes.

struct Workload
{
    const char *name;
    std::function<PassResult(Tracer &, bool reference)> pass;
    bool replay = false;    //!< replay harness setup in traced passes
};

std::vector<Workload>
workloads(uint64_t seed)
{
    return {
        {"paper_models",
         [](Tracer &t, bool ref) { return paperPass(t, ref); }, true},
        {"mesh_hotspot",
         [seed](Tracer &t, bool ref) {
             return meshPass(t, seed, ref ? 0 : 16);
         }},
        {"serve_incast",
         [seed](Tracer &t, bool ref) {
             return servePass(t, seed, ref ? 0 : 256);
         }},
    };
}

enum class Mode { plain, metrics, traced };

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::plain: return "plain";
      case Mode::metrics: return "metrics";
      case Mode::traced: return "traced";
    }
    return "?";
}

struct Sample
{
    Mode mode = Mode::plain;
    PassResult r;
    double seconds = 0;         //!< the whole pass
    double setup = 0;           //!< construction before each run
    std::vector<double> laps;   //!< the pass cut into segments

    /** Host seconds per span name: the pass, plus the replayed harness
     *  setup after a traced paper_models pass. */
    std::map<std::string, double> spans;

    /** @{ Traced passes: event self time per event type, and its
     *     totals inside System::run and inside the cost harness. */
    evprof::Profile prof;
    double simSelf = 0;
    double harnessSelf = 0;
    /** @} */

    /** Metrics passes: registry counter sums (see registryValues). */
    std::map<std::string, double> registry;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Sum of counter @p series over the groups whose last name component
 *  starts with @p leaf ("cpu", "ni", "mesh"); a leading '.' in
 *  @p series matches it as a suffix instead. */
double
sumSeries(const metrics::TaskMetrics &tm, const std::string &leaf,
          const std::string &series)
{
    double sum = 0;
    for (const auto &g : tm.groups) {
        size_t dot = g.name.rfind('.');
        std::string last =
            dot == std::string::npos ? g.name : g.name.substr(dot + 1);
        if (last.compare(0, leaf.size(), leaf) != 0)
            continue;
        for (const auto &s : g.series) {
            if (s.kind != metrics::Kind::counter)
                continue;
            bool match = series[0] == '.'
                             ? s.name.size() >= series.size() &&
                                   s.name.compare(
                                       s.name.size() - series.size(),
                                       series.size(), series) == 0
                             : s.name == series;
            if (match)
                sum += double(s.value);
        }
    }
    return sum;
}

/** The registry counts the per-layer metrics use. */
std::map<std::string, double>
registryValues(const metrics::TaskMetrics &tm)
{
    return {
        {"mesh.xfers", sumSeries(tm, "mesh", ".xfers")},
        {"mesh.blocked_cycles", sumSeries(tm, "mesh", ".blocked_cycles")},
        {"ni.sent", sumSeries(tm, "ni", "sent")},
        {"ni.oq_full_cycles", sumSeries(tm, "ni", "oq.full_cycles")},
        {"ni.oq_occ_ticks", sumSeries(tm, "ni", "oq.occ_ticks")},
        {"cpu.instructions", sumSeries(tm, "cpu", "instructions")},
    };
}

/** Median over the samples of @p mode of @p get(sample). */
double
medianOf(const std::vector<Sample> &samples, Mode mode,
         const std::function<double(const Sample &)> &get)
{
    std::vector<double> v;
    for (const Sample &s : samples)
        if (s.mode == mode)
            v.push_back(get(s));
    return median(v);
}

/** Median host seconds in span @p name over the samples of @p mode. */
double
spanMedian(const std::vector<Sample> &samples, Mode mode,
           const std::string &name)
{
    return medianOf(samples, mode, [&](const Sample &s) {
        auto it = s.spans.find(name);
        return it == s.spans.end() ? 0.0 : it->second;
    });
}

/**
 * The per-layer metrics of a traced run (perfbench/layers.json says
 * what each is expected to move).  Span times come from the plain
 * passes, which carry no instrumentation; event self times from the
 * traced passes; counts from the metrics passes and from @p ref.
 */
std::map<std::string, double>
layerMetrics(const std::vector<Sample> &samples, const PassResult &ref)
{
    auto count = [&](const char *key) {
        auto it = ref.counts.find(key);
        return it == ref.counts.end() ? 0.0 : it->second;
    };
    auto sec = [&](const char *type) {
        return medianOf(samples, Mode::traced, [&](const Sample &s) {
            auto it = s.prof.find(type);
            return it == s.prof.end() ? 0.0 : it->second.seconds;
        });
    };
    auto cnt = [&](const char *type) {
        return medianOf(samples, Mode::traced, [&](const Sample &s) {
            auto it = s.prof.find(type);
            return it == s.prof.end() ? 0.0 : double(it->second.count);
        });
    };
    auto reg = [&](const char *key) {
        return medianOf(samples, Mode::metrics, [&](const Sample &s) {
            return s.registry.at(key);
        });
    };
    auto seconds = [](const Sample &s) { return s.seconds; };
    const double plain = medianOf(samples, Mode::plain, seconds);

    std::map<std::string, double> v;
    v["sim.events"] = medianOf(samples, Mode::traced, [](const Sample &s) {
        uint64_t n = 0;
        for (const auto &[type, ts] : s.prof)
            n += ts.count;
        return double(n);
    });
    v["sim.events_per_s"] = ratio(v["sim.events"], plain);
    // Scheduler time: System::run time not spent inside events.  It
    // includes evprof's own per-event bookkeeping, so it compares only
    // between commits, never with plain wall time.
    v["sim.sched_s"] = medianOf(samples, Mode::traced, [](const Sample &s) {
        auto it = s.spans.find("sim.run");
        return it == s.spans.end() ? 0.0
                                   : std::max(0.0, it->second - s.simSelf);
    });
    v["sim.rounds"] = count("sim.rounds");
    v["sim.solo_windows"] = count("sim.solo_windows");
    v["sim.cross_shard_pushes"] = count("sim.cross_shard_pushes");

    // Every mesh-tick event walks all routers of its partition.
    const double router_visits =
        cnt("mesh-tick") * count("noc.routers_per_tick");
    v["noc.tick_s"] = sec("mesh-tick");
    v["noc.tick_share"] = ratio(v["noc.tick_s"], plain);
    v["noc.tick_events"] = cnt("mesh-tick");
    v["noc.router_cycles_per_s"] = ratio(router_visits, v["noc.tick_s"]);
    v["noc.xfers_per_router_visit"] =
        ratio(reg("mesh.xfers"), router_visits);
    v["noc.link_blocked_cycles"] = reg("mesh.blocked_cycles");
    v["noc.injected"] = count("noc.injected");

    v["ni.pump_s"] = sec("ni-pump");
    v["ni.pump_events"] = cnt("ni-pump");
    v["ni.pumps_per_msg"] = ratio(cnt("ni-pump"), reg("ni.sent"));
    v["ni.oq_full_cycles"] = reg("ni.oq_full_cycles");
    v["ni.oq_occ_ticks"] = reg("ni.oq_occ_ticks");

    v["system.send_s"] = sec("traffic-send");
    v["system.arrival_s"] = sec("traffic-arrival");
    v["system.sends_per_msg"] =
        ratio(cnt("traffic-send"), count("system.sent"));
    v["system.stall_retries"] = count("system.stall_retries");

    const double holds = count("transport.holds");
    const double admits = count("transport.admits");
    v["transport.holds"] = holds;
    v["transport.admits"] = admits;
    v["transport.hold_ratio"] = ratio(holds, holds + admits);
    v["transport.credit_drain_s"] = sec("credit-drain");

    v["cpu.tick_s"] = sec("cpu-tick");
    v["cpu.tick_events"] = cnt("cpu-tick");
    v["cpu.instructions"] = reg("cpu.instructions");
    v["cpu.insts_per_s"] = ratio(v["cpu.instructions"], v["cpu.tick_s"]);

    for (const char *span : {"system.build", "system.gen_start",
                             "cost.harness", "tam.matmul", "tam.gamteb",
                             "tam.expand"})
        v[std::string(span) + "_s"] =
            spanMedian(samples, Mode::plain, span);
    for (const char *span : {"isa.assemble", "cpu.load_program"})
        v[std::string(span) + "_s"] =
            spanMedian(samples, Mode::traced, span);
    const double harness = v["cost.harness_s"];
    const double harness_self =
        medianOf(samples, Mode::traced,
                 [](const Sample &s) { return s.harnessSelf; });
    v["cost.outside_process_share"] =
        ratio(std::max(0.0, harness - harness_self), harness);

    v["metrics.overhead_ratio"] =
        ratio(medianOf(samples, Mode::metrics, seconds), plain);
    v["trace.overhead_ratio"] =
        ratio(medianOf(samples, Mode::traced, seconds), plain);
    v["sojourn_p99_ticks"] = std::max(0.0, ref.sojournP99);
    v["table1_cells_off"] = std::max(0.0, ref.table1CellsOff);
    return v;
}

uint64_t
peakRssBytes()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

/**
 * run_s: each pass is cut into the same segments (Tracer::lap); this
 * is the sum over segments of each segment's fastest time in any pass.
 * Interference from other tenants of a shared host only ever adds
 * time, and it comes in spells of seconds that slow a whole pass by up
 * to 2x and more (measured on a shared 4-vCPU Xeon VM), so the fastest
 * whole pass of a run still varies from run to run; the fastest time
 * of a segment of a few ms, taken over every pass, repeats closely.
 */
double
lapMinSum(const std::vector<Sample> &samples)
{
    std::vector<double> best = samples.front().laps;
    for (const Sample &s : samples)
        for (size_t i = 0; i < best.size() && i < s.laps.size(); ++i)
            best[i] = std::min(best[i], s.laps[i]);
    double sum = 0;
    for (double b : best)
        sum += b;
    return sum;
}

/** The end-to-end metrics of an untraced run. */
std::map<std::string, double>
endToEnd(const std::vector<Sample> &samples, const PassResult &ref)
{
    std::vector<double> setups;
    for (const Sample &s : samples)
        setups.push_back(s.setup);
    std::map<std::string, double> out;
    out["run_s"] = lapMinSum(samples);
    out["setup_s"] = median(setups);
    out["msgs_per_s"] = ratio(ref.msgs, out["run_s"]);
    out["peak_rss_mb"] = double(peakRssBytes()) / (1 << 20);
    out["sim_ticks"] = ref.simTicks;
    return out;
}

/** Run one pass under @p mode and time it. */
Sample
runPass(Tracer &t, const Workload &w, Mode mode, unsigned idx,
        bool reference)
{
    t.beginPass(idx, reference ? "reference" : modeName(mode));
    std::unique_ptr<metrics::Registry> reg;
    if (mode == Mode::metrics) {
        reg = std::make_unique<metrics::Registry>(0);
        metrics::setRegistry(reg.get());
    }
    evprof::setEnabled(mode == Mode::traced);
    evprof::take();

    Sample s;
    s.mode = mode;
    {
        Tracer::Scope pass(t, "pass");
        s.r = w.pass(t, reference);
    }
    t.lap();
    s.laps = t.laps();
    s.prof = evprof::take();
    evprof::setEnabled(false);
    metrics::setRegistry(nullptr);
    s.seconds = t.total("pass");
    s.setup = t.total("cost.harness_build") + t.total("system.build") +
              t.total("system.gen_start");

    if (reg)
        s.registry = registryValues(reg->finalize("pass"));
    if (mode == Mode::traced) {
        for (const auto &[type, ts] : s.prof)
            s.simSelf += ts.seconds;
        for (const auto &[type, ts] : s.r.harnessProf) {
            s.harnessSelf += ts.seconds;
            s.prof[type].count += ts.count;
            s.prof[type].seconds += ts.seconds;
        }
        if (w.replay)
            replaySetup(t);
    }
    s.spans = t.totals();
    return s;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n";
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              uint64_t max)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        usage(flag + " must be a non-negative integer, got '" + text +
              "'");
    uint64_t v = std::stoull(text);
    if (v > max)
        usage(flag + " must be at most " + std::to_string(max));
    return v;
}

int
run(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        std::string flag = argv[i];
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace" && flag != "--spans")
            usage("unknown flag '" + flag + "'");
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        args[flag] = argv[i + 1];
    }
    for (const char *req : {"--workload", "--seed", "--seconds",
                            "--trace"})
        if (!args.count(req))
            usage(std::string(req) + " is required");

    // Validate everything before the first pass.
    const uint64_t seed =
        parseUnsigned("--seed", args["--seed"], (1ull << 63) - 1);
    const double seconds =
        double(parseUnsigned("--seconds", args["--seconds"], 3600));
    if (seconds < 1)
        usage("--seconds must be at least 1");
    const bool trace = parseUnsigned("--trace", args["--trace"], 1) == 1;
    std::ofstream spans_out;
    if (trace && args.count("--spans")) {
        spans_out.open(args["--spans"]);
        if (!spans_out)
            usage("cannot write --spans file '" + args["--spans"] + "'");
    }
    std::vector<Workload> all = workloads(seed);
    const Workload *w = nullptr;
    for (const Workload &cand : all)
        if (args["--workload"] == cand.name)
            w = &cand;
    if (!w)
        usage("unknown workload '" + args["--workload"] + "'");

    Tracer t;
    // The reference pass warms caches and lazy setup; every measured
    // pass must reproduce its simulated statistics.
    Sample ref = runPass(t, *w, Mode::plain, 0, true);

    std::vector<Sample> samples;
    std::vector<std::string> failures;
    static const Mode rotation[] = {Mode::plain, Mode::metrics,
                                    Mode::traced};
    // Plain runs need a few passes for lapMinSum to take a minimum
    // over; traced runs need one full rotation.
    const size_t min_passes = trace ? 3 : 5;
    // Stop when the next pass would likely end further past --seconds
    // than the run would fall short of it.
    const double t0 = nowSec();
    double last = 0;
    while (samples.size() < min_passes ||
           nowSec() - t0 + last / 2 < seconds) {
        Mode mode = trace ? rotation[samples.size() % 3] : Mode::plain;
        const double p0 = nowSec();
        Sample s = runPass(t, *w, mode, unsigned(samples.size() + 1),
                           false);
        last = nowSec() - p0;
        if (s.r.ok && s.r.digest != ref.r.digest)
            s.r.check(false, std::string("simulated statistics differ "
                                         "from the reference pass (") +
                                 modeName(mode) + ")");
        // Segments are compared across passes by position (lapMinSum).
        if (!samples.empty() && s.laps.size() != samples[0].laps.size())
            s.r.check(false, "pass cut into different segments");
        if (!s.r.ok && failures.size() < 10)
            failures.push_back("pass " + std::to_string(samples.size() +
                                                        1) +
                               ": " + s.r.failure);
        samples.push_back(std::move(s));
    }

    size_t failed = ref.r.ok ? 0 : 1;
    bool guard_ok = true;
    for (const Sample &s : samples) {
        if (!s.r.ok)
            ++failed;
        if (s.mode != Mode::plain && s.r.digest != ref.r.digest)
            guard_ok = false;
    }
    if (!ref.r.ok)
        failures.insert(failures.begin(), "reference: " + ref.r.failure);

    std::map<std::string, std::string> summary;
    summary["passes"] = std::to_string(samples.size());
    std::map<std::string, double> values;
    if (trace) {
        values = layerMetrics(samples, ref.r);
    } else {
        values = endToEnd(samples, ref.r);
        std::vector<double> times;
        for (const Sample &s : samples)
            times.push_back(s.seconds);
        std::sort(times.begin(), times.end());
        const size_t n = times.size();
        summary["laps"] = std::to_string(samples.front().laps.size());
        summary["run_s_fastest_pass"] = num(times.front());
        summary["run_s_median_pass"] = num(median(times));
        // The highest percentile that has ten samples beyond it.
        if (n >= 11) {
            summary["run_s_tail"] = num(times[n - 11]);
            summary["run_s_tail_percentile"] = num(100.0 * (n - 10) / n);
        }
    }
    if (ref.r.simEvents > 0)
        summary["sim_events"] = num(ref.r.simEvents);
    if (ref.r.sojournP99 >= 0)
        summary["sojourn_p99_ticks"] = num(ref.r.sojournP99);
    if (ref.r.table1CellsOff >= 0)
        summary["table1_cells_off"] = num(ref.r.table1CellsOff);

    std::ostringstream prov;
    prov << "\"workload\":\"" << w->name << "\",\"seed\":" << seed
         << ",\"trace\":" << (trace ? 1 : 0) << ",\"build_type\":\""
         << PERFBENCH_BUILD_TYPE
         << "\",\"compiler\":" << quoted(PERFBENCH_COMPILER)
         << ",\"hardware_threads\":"
         << std::thread::hardware_concurrency();
    if (spans_out.is_open()) {
        t.writeChrome(spans_out, prov.str());
        if (!spans_out.flush())
            std::cerr << "perfbench: writing --spans failed\n";
    }
    if (!guard_ok) {
        std::cerr << "perfbench: TRACE GUARD FAILED: an instrumented pass "
                     "changed the simulated statistics\n";
    }

    std::ostringstream os;
    os << "{" << prov.str() << ",\"attempted\":" << samples.size() + 1
       << ",\"failed\":" << failed
       << ",\"guard_ok\":" << (guard_ok ? "true" : "false")
       << ",\"failures\":[";
    for (size_t i = 0; i < failures.size(); ++i)
        os << (i ? "," : "") << quoted(failures[i]);
    os << "],\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : values) {
        os << (first ? "" : ",") << quoted(k) << ":" << num(v);
        first = false;
    }
    os << "},\"summary\":{";
    first = true;
    for (const auto &[k, v] : summary) {
        os << (first ? "" : ",") << quoted(k) << ":" << v;
        first = false;
    }
    os << "},\"golden\":" << (ref.r.golden.empty() ? "null" : ref.r.golden)
       << "}\n";
    std::cout << os.str();
    return failed == 0 && guard_ok ? 0 : 1;
}

} // namespace
} // namespace perfbench
} // namespace tcpni

int
main(int argc, char **argv)
{
    return tcpni::perfbench::run(argc, argv);
}
