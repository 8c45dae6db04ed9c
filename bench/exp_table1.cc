/**
 * @file
 * The Table-1 experiment: the RISC cycles each interface model takes
 * to send, dispatch, and process each message type -- measured by
 * executing the hand-written handler kernels on the CPU timing model.
 * Prints the measured table over the paper's six models, the paper's
 * published table, and a per-cell comparison.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "cost/table1.hh"
#include "experiments.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "sim/sweep.hh"

namespace tcpni
{
namespace bench
{

using namespace cost;
using msg::Kind;

namespace
{

/** Table 1's SENDING rows, in the paper's order. */
constexpr Kind paperSendOrder[] = {Kind::send0, Kind::send1, Kind::send2,
                                   Kind::pread, Kind::pwrite, Kind::read,
                                   Kind::write};

/** One model's column of the table, keyed by row. */
using ModelCells = std::map<std::string, PaperCell>;

struct MeasuredTable
{
    // row key -> one cell (lo, hi, slope) per paper model.
    std::map<std::string, std::vector<PaperCell>> cells;
};

ModelCells
measureModel(const ni::Model &model, bool no_overlap)
{
    ModelCells cells;
    Table1Harness h(model, false, no_overlap);
    std::fprintf(stderr, "  measuring %s...\n", model.name().c_str());

    for (Kind k : paperSendOrder) {
        double copy_cost = h.sendingCost(k);
        double lo = copy_cost;
        if (model.policy().directCompose())
            lo = copy_cost - msg::directlyComputableWords(k);
        cells[sendRowKey(k)] = {lo, copy_cost, 0};
    }

    // Dispatch, measured from the Read stream (the paper's
    // DISPATCHING row is message-type independent).
    ProcCost read_cost = h.processingCost(ProcCase::read);
    cells["dispatch"] = {read_cost.dispatching, read_cost.dispatching,
                         0};

    for (size_t i = 0; i < std::size(cost::procCases); ++i) {
        const ProcCase c = static_cast<ProcCase>(i);
        if (c == ProcCase::pwriteDeferred)
            continue;   // fitted below
        ProcCost pc = h.processingCost(c);
        cells[procRowKey(c)] = {pc.processing, pc.processing, 0};
    }

    LinearCost lin = h.pwriteDeferredCost();
    cells[procRowKey(ProcCase::pwriteDeferred)] = {lin.base, lin.base,
                                                   lin.slope};
    return cells;
}

MeasuredTable
measureAll(const std::vector<ni::Model> &models, bool no_overlap,
           const exp::Context &ctx)
{
    // The models are independent simulations: fan them out across the
    // sweep pool.  Results merge by model index, so the table is
    // identical whatever the thread count.
    SweepRunner sweep(ctx.jobs);
    std::vector<ModelCells> columns = sweep.map<ModelCells>(
        models.size(), [&](size_t mi) {
            auto ms = ctx.taskMetrics(mi, models[mi].name());
            return measureModel(models[mi], no_overlap);
        });

    MeasuredTable t;
    for (size_t mi = 0; mi < columns.size(); ++mi) {
        for (const auto &[key, cell] : columns[mi]) {
            auto &row = t.cells[key];
            row.resize(models.size());
            row[mi] = cell;
        }
    }
    return t;
}

struct RowSpec
{
    const char *section;
    std::string label;
    std::string key;
};

std::vector<RowSpec>
rowSpecs()
{
    std::vector<RowSpec> rows;
    for (Kind k : paperSendOrder) {
        rows.push_back({rows.empty() ? "SENDING" : "",
                        msg::kindInfo(k).name, sendRowKey(k)});
    }
    rows.push_back({"DISPATCHING", "-", "dispatch"});
    for (size_t i = 0; i < std::size(cost::procCases); ++i) {
        const ProcCase c = static_cast<ProcCase>(i);
        rows.push_back({i == 0 ? "PROCESSING" : "", procCaseName(c),
                        procRowKey(c)});
    }
    return rows;
}

template <typename Cells>
void
printTable(const char *title, const std::vector<std::string> &labels,
           const Cells &cells)
{
    std::cout << "\n=== " << title << " ===\n";
    TextTable tt;
    std::vector<std::string> header{"Action", "Message Type"};
    header.insert(header.end(), labels.begin(), labels.end());
    tt.header(header);
    const char *last_section = "";
    for (const RowSpec &row : rowSpecs()) {
        if (row.section[0] && std::strcmp(row.section, last_section)) {
            tt.separator();
            last_section = row.section;
        }
        std::vector<std::string> cols{row.section, row.label};
        const auto &arr = cells.at(row.key);
        for (const PaperCell &c : arr) {
            cols.push_back(c.slope != 0 ? fmtLinear(c.lo, c.slope)
                                        : fmtRange(c.lo, c.hi));
        }
        tt.row(cols);
    }
    tt.print(std::cout);
}

void
printComparison(const MeasuredTable &m,
                const std::map<std::string,
                               std::array<PaperCell, 6>> &paper)
{
    std::cout << "\n=== Measured vs paper (per cell; '=' exact, "
                 "otherwise measured/paper) ===\n";
    TextTable tt;
    tt.header({"Row", "Opt Reg", "Opt On", "Opt Off", "Bas Reg",
               "Bas On", "Bas Off"});
    int exact = 0, close = 0, off = 0;
    for (const RowSpec &row : rowSpecs()) {
        std::vector<std::string> cols{std::string(row.section) + " " +
                                      row.label};
        for (size_t i = 0; i < 6; ++i) {
            const PaperCell &mc = m.cells.at(row.key)[i];
            const PaperCell &pc = paper.at(row.key)[i];
            // Compare the upper bounds (the measured copy variant) and
            // slopes.
            bool same = mc.hi == pc.hi && mc.slope == pc.slope;
            double delta = (mc.hi - pc.hi) + 10 * (mc.slope - pc.slope);
            if (same) {
                cols.push_back("=");
                ++exact;
            } else {
                cols.push_back(
                    (mc.slope ? fmtLinear(mc.lo, mc.slope)
                              : fmt(mc.hi)) + "/" +
                    (pc.slope ? fmtLinear(pc.lo, pc.slope)
                              : fmt(pc.hi)));
                if (std::abs(delta) <= 3.0)
                    ++close;
                else
                    ++off;
            }
        }
        tt.row(cols);
    }
    tt.print(std::cout);
    std::cout << "\ncells exact: " << exact << ", within 3 cycles: "
              << close << ", larger deviation: " << off << "\n";
}

template <typename Cells>
void
writeCellsJson(std::ostream &os, const std::vector<std::string> &names,
               const Cells &cells)
{
    os << "{";
    bool first_row = true;
    for (const RowSpec &row : rowSpecs()) {
        os << (first_row ? "\n" : ",\n");
        first_row = false;
        os << "\"" << stats::jsonEscape(row.key) << "\":{"
           << "\"section\":\"" << row.section << "\",\"label\":\""
           << stats::jsonEscape(row.label) << "\",\"cells\":{";
        const auto &arr = cells.at(row.key);
        for (size_t i = 0; i < names.size(); ++i) {
            os << (i ? "," : "") << "\""
               << stats::jsonEscape(names[i])
               << "\":{\"lo\":" << stats::jsonNum(arr[i].lo)
               << ",\"hi\":" << stats::jsonNum(arr[i].hi)
               << ",\"slope\":" << stats::jsonNum(arr[i].slope) << "}";
        }
        os << "}}";
    }
    os << "\n}";
}

int
runTable1(const exp::Context &ctx)
{
    bool no_overlap = ctx.on("--no-overlap");
    Cycles offchip = static_cast<Cycles>(ctx.num("--offchip-delay"));
    // The paper's six models: the registry's first six entries.
    std::vector<ni::Model> models;
    std::vector<std::string> labels, names;
    for (size_t i = 0; i < ni::paperModels().size(); ++i) {
        const ni::ModelInfo &info = ni::registeredModels()[i];
        models.push_back(info.model.withOffchipDelay(offchip));
        labels.push_back(info.tableLabel);
        names.push_back(info.name);
    }

    std::cout << "Table 1 reproduction: RISC cycles to send, dispatch, "
                 "and process each message type\n"
              << "(measured by executing handler kernels; off-chip "
                 "load-use delay = " << offchip << " cycles)\n";

    if (no_overlap) {
        std::cout << "(cache-mapped optimized handlers dispatch "
                     "without the NextMsgIp overlap)\n";
    }
    MeasuredTable measured = measureAll(models, no_overlap, ctx);
    printTable("Measured (this reproduction)", labels, measured.cells);
    printTable("Paper (Henry & Joerg 1992, Table 1)", labels,
               paperTable1());
    printComparison(measured, paperTable1());

    ctx.writeJson([&](std::ostream &os) {
        os << "{\"config\":{\"offchipDelay\":" << offchip
           << ",\"noOverlap\":" << (no_overlap ? "true" : "false")
           << "},\n\"measured\":";
        writeCellsJson(os, names, measured.cells);
        os << ",\n\"paper\":";
        writeCellsJson(os, names, paperTable1());
        os << "}\n";
    });
    return 0;
}

} // namespace

void
registerTable1(exp::ExperimentRegistry &reg)
{
    reg.add({
        "table1",
        "Table 1: per-message send/dispatch/process cycles per model",
        {
            {"--offchip-delay", "N",
             "off-chip load-use delay override (Section 4.2.3 "
             "studies 8)", "2", false},
            {"--no-overlap", "",
             "dispatch without the NextMsgIp overlap", "", true},
        },
        true,   // --json
        true,   // --trace
        runTable1,
    });
}

} // namespace bench
} // namespace tcpni
