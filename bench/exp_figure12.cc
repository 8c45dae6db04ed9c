/**
 * @file
 * The Figure-12 experiment: dynamic 88100 cycle counts for the Matrix
 * Multiply and Gamteb programs under the paper's six interface models,
 * split into non-message work, dispatching, and all other
 * communication.  Also evaluates the paper's headline claims A, B, and
 * D (see EXPERIMENTS.md "Figure 12").
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "apps/gamteb.hh"
#include "apps/matmul.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "ni/model_registry.hh"
#include "sim/sweep.hh"
#include "tam/expand.hh"

namespace tcpni
{
namespace bench
{

namespace
{

/** Matrix Multiply's block edge (the paper's 4x4 blocks). */
constexpr unsigned mmBlock = 4;

struct ProgramBars
{
    std::string name;
    tam::TamStats stats;
    std::vector<tam::Figure12Bar> bars;     // per model
};

void
printProgram(const ProgramBars &p, const std::vector<std::string> &names)
{
    std::cout << "\n--- " << p.name << " ---\n";
    TextTable t;
    t.header({"Model", "Work", "Dispatch", "Other comm", "Total",
              "Comm share"});
    for (size_t i = 0; i < names.size(); ++i) {
        const tam::Figure12Bar &b = p.bars[i];
        t.row({names[i], fmtK(b.work), fmtK(b.dispatch),
               fmtK(b.otherComm), fmtK(b.total()),
               pct(b.commFraction())});
    }
    t.print(std::cout);

    // ASCII rendition of the stacked bars (normalized to the worst
    // model).
    double max_total = 0;
    for (const auto &b : p.bars)
        max_total = std::max(max_total, b.total());
    std::cout << "\n  (#: work, D: dispatch, C: other communication; "
                 "60 columns = worst model)\n";
    for (size_t i = 0; i < names.size(); ++i) {
        const tam::Figure12Bar &b = p.bars[i];
        auto cols = [&](double v) {
            return static_cast<int>(v / max_total * 60 + 0.5);
        };
        std::printf("  %-24s |%s%s%s\n", names[i].c_str(),
                    std::string(cols(b.work), '#').c_str(),
                    std::string(cols(b.dispatch), 'D').c_str(),
                    std::string(cols(b.otherComm), 'C').c_str());
    }
}

void
printClaims(const ProgramBars &p)
{
    // paperModels() order: 0 opt-reg, 1 opt-on, 2 opt-off, 3 bas-reg,
    // 4 bas-on, 5 bas-off.
    const tam::Figure12Bar &best = p.bars[0];
    const tam::Figure12Bar &worst = p.bars[5];

    double comm_best = best.dispatch + best.otherComm;
    double comm_worst = worst.dispatch + worst.otherComm;

    double sd_best = best.sending + best.dispatch;
    double sd_worst = worst.sending + worst.dispatch;
    std::cout << "\n  Claim A (opt register vs basic off-chip):\n"
              << "    send+dispatch reduction: "
              << sd_worst / sd_best
              << "x (paper: \"as much as five fold\")\n"
              << "    total communication reduction: "
              << comm_worst / comm_best << "x\n"
              << "    total execution cut:     "
              << pct(1 - best.total() / worst.total())
              << " (paper: ~40%)\n"
              << "    comm share:              "
              << pct(worst.commFraction()) << " -> "
              << pct(best.commFraction())
              << " (paper: 51% -> 17%)\n";

    double slowest_opt = 0, fastest_basic = 1e300;
    for (int i = 0; i < 3; ++i)
        slowest_opt = std::max(slowest_opt, p.bars[i].total());
    for (int i = 3; i < 6; ++i)
        fastest_basic = std::min(fastest_basic, p.bars[i].total());
    std::cout << "  Claim B: slowest optimized ("
              << fmtK(slowest_opt) << ") "
              << (slowest_opt < fastest_basic ? "beats" : "LOSES TO")
              << " fastest basic (" << fmtK(fastest_basic) << ")\n";

    double comm_off_opt = p.bars[2].dispatch + p.bars[2].otherComm;
    std::cout << "  Claim D: optimized off-chip improves communication "
              << comm_worst / comm_off_opt << "x over basic off-chip "
              << "(paper: ~2x)\n";
}

void
writeJson(std::ostream &os, unsigned n, unsigned particles,
          Cycles offchip, const std::vector<std::string> &names,
          const std::vector<tam::CommCosts> &costs,
          const ProgramBars &mm, const ProgramBars &gt,
          uint64_t mm_msgs, uint64_t mm_flops, uint64_t gt_msgs)
{
    using stats::jsonNum;
    os << "{\"config\":{\"n\":" << n << ",\"particles\":" << particles
       << ",\"offchipDelay\":" << offchip << "},\n\"models\":{";
    for (size_t i = 0; i < costs.size(); ++i) {
        const tam::CommCosts &c = costs[i];
        os << (i ? ",\n" : "\n") << "\""
           << stats::jsonEscape(names[i]) << "\":{\"send\":{";
        for (size_t k = 0; k < std::size(tam::sendCost); ++k) {
            os << (k ? "," : "") << "\"" << msg::kinds[k].key
               << "\":" << jsonNum(c.*tam::sendCost[k]);
        }
        os << "},\"dispatch\":" << jsonNum(c.dispatch)
           << ",\"process\":{";
        for (size_t k = 0; k < std::size(tam::commRows); ++k) {
            const tam::CommRow &r = tam::commRows[k];
            os << (k ? "," : "") << "\"" << r.processKey
               << "\":" << jsonNum(c.*r.process);
        }
        os << ",\"pwriteDeferredBase\":" << jsonNum(c.procPWriteDefBase)
           << ",\"pwriteDeferredSlope\":"
           << jsonNum(c.procPWriteDefSlope) << "}}";
    }
    os << "},\n\"programs\":{";
    auto program = [&](const char *key, const ProgramBars &p,
                       uint64_t msgs, uint64_t flops) {
        os << "\"" << key << "\":{\"name\":\""
           << stats::jsonEscape(p.name) << "\",\"messages\":" << msgs
           << ",\"flops\":" << flops << ",\"models\":{";
        for (size_t i = 0; i < p.bars.size(); ++i) {
            const tam::Figure12Bar &b = p.bars[i];
            os << (i ? ",\n" : "\n") << "\""
               << stats::jsonEscape(names[i]) << "\":{"
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
    program("matmul", mm, mm_msgs, mm_flops);
    os << ",\n";
    program("gamteb", gt, gt_msgs, 0);
    os << "}}\n";
}

int
runFigure12(const exp::Context &ctx)
{
    unsigned n = static_cast<unsigned>(ctx.num("--n"));
    unsigned particles = static_cast<unsigned>(ctx.num("--particles"));
    Cycles offchip = static_cast<Cycles>(ctx.num("--offchip-delay"));
    if (n == 0 || n % mmBlock != 0) {
        fatal("figure12: --n must be a positive multiple of the block "
              "size (%u), got %u", mmBlock, n);
    }
    if (particles < 1)
        fatal("figure12: --particles must be >= 1");

    std::vector<ni::Model> models;
    std::vector<std::string> names;
    for (const ni::Model &m : ni::paperModels()) {
        models.push_back(m.withOffchipDelay(offchip));
        names.push_back(m.name());
    }

    std::cout << "Figure 12 reproduction: dynamic cycle counts for "
              << n << "x" << n << " Matrix Multiply and " << particles
              << " Gamteb\nunder the six interface models (message "
                 "costs measured from the Table-1 kernels).\n";

    // Independent simulations: each model's message-cost measurement
    // plus the two TAM program runs (model-independent, exactly as in
    // the paper's methodology).  Fan them out across the sweep pool;
    // every result lands in its own slot, so the output is identical
    // whatever the thread count.
    std::vector<tam::CommCosts> costs(models.size());
    apps::MatMulResult mm;
    apps::GamtebResult gt;
    SweepRunner sweep(ctx.jobs);
    sweep.run(models.size() + 2, [&](size_t i) {
        if (i < models.size()) {
            auto ms = ctx.taskMetrics(i, names[i]);
            costs[i] = tam::measureCommCosts(models[i]);
        } else if (i == models.size()) {
            auto ms = ctx.taskMetrics(i, "matmul");
            std::fprintf(stderr, "running matrix multiply (%ux%u)...\n",
                         n, n);
            mm = apps::runMatMul(n, mmBlock);
        } else {
            auto ms = ctx.taskMetrics(i, "gamteb");
            std::fprintf(stderr, "running gamteb (%u particles)...\n",
                         particles);
            gt = apps::runGamteb(particles);
        }
    });
    if (!mm.verified)
        fatal("matrix multiply failed verification");
    if (!gt.conserved())
        fatal("gamteb particle accounting failed");

    ProgramBars mm_bars{"Matrix Multiply " + std::to_string(n) + "x" +
                            std::to_string(n),
                        mm.stats, {}};
    ProgramBars gt_bars{"Gamteb " + std::to_string(particles),
                        gt.stats, {}};
    for (const tam::CommCosts &c : costs) {
        mm_bars.bars.push_back(tam::expand(mm.stats, c));
        gt_bars.bars.push_back(tam::expand(gt.stats, c));
    }

    std::cout << "\nMatrix Multiply: " << mm.stats.totalMessages()
              << " messages, " << mm.stats.flops() << " flops ("
              << mm.flopsPerMessage
              << " flops/message; paper quotes ~3)\n";
    std::cout << "Gamteb: " << gt.stats.totalMessages()
              << " messages, " << gt.totalParticles << " particles ("
              << gt.escaped << " escaped, " << gt.absorbed
              << " absorbed, " << gt.pairProductions << " pairs, "
              << gt.collisions << " collisions)\n";

    printProgram(mm_bars, names);
    printClaims(mm_bars);
    printProgram(gt_bars, names);
    printClaims(gt_bars);

    ctx.writeJson([&](std::ostream &os) {
        writeJson(os, n, particles, offchip, names, costs, mm_bars,
                  gt_bars, mm.stats.totalMessages(), mm.stats.flops(),
                  gt.stats.totalMessages());
    });
    return 0;
}

} // namespace

void
registerFigure12(exp::ExperimentRegistry &reg)
{
    reg.add({
        "figure12",
        "Figure 12: dynamic cycle counts for Matrix Multiply and "
        "Gamteb per model",
        {
            {"--n", "N", "matrix dimension for Matrix Multiply", "100",
             false},
            {"--particles", "P", "Gamteb source particles", "16",
             false},
            {"--offchip-delay", "D",
             "off-chip load-use delay override", "2", false},
        },
        true,   // --json
        true,   // --trace
        runFigure12,
    });
}

} // namespace bench
} // namespace tcpni
