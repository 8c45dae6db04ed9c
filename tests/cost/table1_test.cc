#include <gtest/gtest.h>

#include "common/logging.hh"
#include "cost/table1.hh"
#include "ni/model_registry.hh"

using namespace tcpni;
using namespace tcpni::cost;
using msg::Kind;

namespace
{

/** Shared harnesses (measurement is deterministic but not free). */
Table1Harness &
harness(size_t model_idx)
{
    static std::array<std::unique_ptr<Table1Harness>, 6> cache;
    if (!cache[model_idx]) {
        cache[model_idx] = std::make_unique<Table1Harness>(
            ni::paperModels()[model_idx]);
    }
    return *cache[model_idx];
}

constexpr size_t optReg = 0, optOn = 1, optOff = 2;
constexpr size_t basReg = 3, basOn = 4, basOff = 5;

} // namespace

// ---- Exact-match headline cells -------------------------------------

TEST(Table1Exact, TwoInstructionRemoteRead)
{
    // Abstract claim E: receive, process, and reply to a remote read
    // in a total of two RISC instructions on the optimized
    // register-mapped interface: 1 dispatch + 1 processing.
    ProcCost c = harness(optReg).processingCost(ProcCase::read);
    EXPECT_DOUBLE_EQ(c.dispatching, 1.0);
    EXPECT_DOUBLE_EQ(c.processing, 1.0);
}

TEST(Table1Exact, OptimizedDispatchCosts)
{
    EXPECT_DOUBLE_EQ(
        harness(optReg).processingCost(ProcCase::read).dispatching, 1.0);
    EXPECT_DOUBLE_EQ(
        harness(optOn).processingCost(ProcCase::read).dispatching, 2.0);
    EXPECT_DOUBLE_EQ(
        harness(optOff).processingCost(ProcCase::read).dispatching, 2.0);
}

TEST(Table1Exact, ReadProcessingRow)
{
    // The paper's Read PROCESSING row: 1 / 3 / 5 / 4 / 8 / 8.
    const double expect[6] = {1, 3, 5, 4, 8, 8};
    for (size_t i = 0; i < 6; ++i) {
        EXPECT_DOUBLE_EQ(
            harness(i).processingCost(ProcCase::read).processing,
            expect[i])
            << ni::paperModels()[i].name();
    }
}

TEST(Table1Exact, ReadSendingRow)
{
    const double expect[6] = {3, 4, 4, 4, 6, 6};    // copy variant
    for (size_t i = 0; i < 6; ++i) {
        EXPECT_DOUBLE_EQ(harness(i).sendingCost(Kind::read), expect[i])
            << ni::paperModels()[i].name();
    }
}

TEST(Table1Exact, PWriteDeferredSlopes)
{
    // 6 cycles per deferred reader on register-mapped interfaces,
    // 8 on cache-mapped ones (Table 1's 15+6n / 19+8n rows).
    EXPECT_DOUBLE_EQ(harness(optReg).pwriteDeferredCost().slope, 6.0);
    EXPECT_DOUBLE_EQ(harness(optOn).pwriteDeferredCost().slope, 8.0);
    EXPECT_DOUBLE_EQ(harness(optOff).pwriteDeferredCost().slope, 8.0);
    EXPECT_DOUBLE_EQ(harness(basReg).pwriteDeferredCost().slope, 6.0);
    EXPECT_DOUBLE_EQ(harness(basOn).pwriteDeferredCost().slope, 8.0);
    EXPECT_DOUBLE_EQ(harness(basOff).pwriteDeferredCost().slope, 8.0);
}

// ---- Tolerance sweep over the full table -----------------------------

struct CellCase
{
    std::string row;
    size_t model;
};

class Table1Sweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(Table1Sweep, AllCellsWithinTolerance)
{
    // Every measured cell must be within 5 cycles of the paper's
    // value (the paper's exact instruction schedules are unpublished;
    // EXPERIMENTS.md documents each deviation).  Slopes must be exact.
    size_t mi = GetParam();
    Table1Harness &h = harness(mi);
    auto paper = paperTable1();

    static const Kind kinds[] = {Kind::send0, Kind::send1, Kind::send2,
                                 Kind::pread, Kind::pwrite, Kind::read,
                                 Kind::write};
    for (Kind k : kinds) {
        double v = h.sendingCost(k);
        const PaperCell &p = paper.at(sendRowKey(k))[mi];
        EXPECT_NEAR(v, p.hi, 1.01) << "sending " << msg::kindInfo(k).name;
    }

    static const ProcCase cases[] = {
        ProcCase::send0, ProcCase::send1, ProcCase::send2,
        ProcCase::read, ProcCase::write, ProcCase::preadFull,
        ProcCase::preadEmpty, ProcCase::preadDeferred,
        ProcCase::pwriteEmpty,
    };
    for (ProcCase c : cases) {
        double v = h.processingCost(c).processing;
        const PaperCell &p = paper.at(procRowKey(c))[mi];
        EXPECT_NEAR(v, p.hi, 5.01) << "processing " << procCaseName(c);
    }

    LinearCost lin = h.pwriteDeferredCost();
    const PaperCell &p = paper.at(
        procRowKey(ProcCase::pwriteDeferred))[mi];
    EXPECT_DOUBLE_EQ(lin.slope, p.slope);
    EXPECT_NEAR(lin.base, p.lo, 5.01);

    double d = h.processingCost(ProcCase::read).dispatching;
    EXPECT_NEAR(d, paper.at("dispatch")[mi].hi, 1.01);
}

INSTANTIATE_TEST_SUITE_P(
    Models, Table1Sweep, ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string n = ni::paperModels()[info.param].shortName();
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

// ---- Structural properties of the table -------------------------------

TEST(Table1Shape, OptimizedBeatsBasicEverywhere)
{
    // Total per-message cost (dispatch + processing of a Read) must be
    // strictly lower for every optimized model than for every basic
    // model with the same placement.
    for (size_t i = 0; i < 3; ++i) {
        ProcCost opt = harness(i).processingCost(ProcCase::read);
        ProcCost bas = harness(i + 3).processingCost(ProcCase::read);
        EXPECT_LT(opt.dispatching + opt.processing,
                  bas.dispatching + bas.processing)
            << ni::paperModels()[i].name();
    }
}

TEST(Table1Shape, RegisterBeatsCacheMapped)
{
    for (size_t base : {0u, 3u}) {
        double reg =
            harness(base).processingCost(ProcCase::read).processing;
        double on =
            harness(base + 1).processingCost(ProcCase::read).processing;
        double off =
            harness(base + 2).processingCost(ProcCase::read).processing;
        EXPECT_LE(reg, on);
        EXPECT_LE(on, off);
    }
}

TEST(Table1Shape, SlowestOptimizedBeatsFastestBasicOnDispatch)
{
    // Section 4.2.3 claim B is driven largely by dispatch: the worst
    // optimized dispatch (off-chip, 2) beats the best basic (register,
    // 5).
    double worst_opt =
        harness(optOff).processingCost(ProcCase::read).dispatching;
    double best_bas =
        harness(basReg).processingCost(ProcCase::read).dispatching;
    EXPECT_LT(worst_opt, best_bas);
}

TEST(Table1Shape, PWriteDeferredLinearInN)
{
    // Property: processing(n) is exactly linear over n = 1..4.
    Table1Harness &h = harness(optReg);
    double c1 = h.processingCost(ProcCase::pwriteDeferred, 1).processing;
    double c2 = h.processingCost(ProcCase::pwriteDeferred, 2).processing;
    double c3 = h.processingCost(ProcCase::pwriteDeferred, 3).processing;
    double c4 = h.processingCost(ProcCase::pwriteDeferred, 4).processing;
    EXPECT_DOUBLE_EQ(c2 - c1, c3 - c2);
    EXPECT_DOUBLE_EQ(c3 - c2, c4 - c3);
}

TEST(Table1Shape, OffChipLatencySensitivity)
{
    // Section 4.2.3 claim C: raising the off-chip read latency from 2
    // to 8 cycles substantially increases off-chip costs while leaving
    // the register-mapped model untouched.  The 8-cycle point is the
    // registry's faroff-opt model.
    const ni::ModelInfo *far = ni::findModel("faroff-opt");
    ASSERT_NE(far, nullptr);
    EXPECT_EQ(far->model, ni::paperModels()[optOff].withOffchipDelay(8));
    Table1Harness off2(ni::paperModels()[optOff].withOffchipDelay(2));
    Table1Harness off8(far->model);
    double p2 = off2.processingCost(ProcCase::read).processing;
    double p8 = off8.processingCost(ProcCase::read).processing;
    EXPECT_GT(p8, p2 + 3);
    EXPECT_DOUBLE_EQ(p8, 11.0);

    Table1Harness reg2(ni::paperModels()[optReg].withOffchipDelay(2));
    Table1Harness reg8(ni::paperModels()[optReg].withOffchipDelay(8));
    EXPECT_DOUBLE_EQ(reg2.processingCost(ProcCase::read).processing,
                     reg8.processingCost(ProcCase::read).processing);
}

TEST(Table1Overlap, NextMsgIpHidesDispatchLatency)
{
    // Section 2.2.3: without the NextMsgIp overlap, the MsgIp read's
    // latency and the jump's delay slot are exposed in dispatch.
    Table1Harness with(ni::paperModels()[2], false, false);
    Table1Harness without(ni::paperModels()[2], false, true);
    double d_with = with.processingCost(ProcCase::read).dispatching;
    double d_without =
        without.processingCost(ProcCase::read).dispatching;
    EXPECT_DOUBLE_EQ(d_with, 2.0);
    EXPECT_DOUBLE_EQ(d_without, 5.0);   // ld + 2 stalls + jmp + nop

    // On-chip: only the unfillable delay slot is exposed.
    Table1Harness on_with(ni::paperModels()[1], false, false);
    Table1Harness on_without(ni::paperModels()[1], false, true);
    EXPECT_DOUBLE_EQ(
        on_with.processingCost(ProcCase::read).dispatching, 2.0);
    EXPECT_DOUBLE_EQ(
        on_without.processingCost(ProcCase::read).dispatching, 3.0);
}

TEST(Table1Overlap, ProcessingUnaffectedByOverlapChoice)
{
    // The overlap is purely a dispatch-side optimization: the handler
    // bodies do the same work.
    Table1Harness with(ni::paperModels()[1], false, false);
    Table1Harness without(ni::paperModels()[1], false, true);
    for (ProcCase c : {ProcCase::read, ProcCase::write,
                       ProcCase::preadFull, ProcCase::preadEmpty,
                       ProcCase::pwriteEmpty}) {
        EXPECT_NEAR(with.processingCost(c).processing,
                    without.processingCost(c).processing, 1.01)
            << procCaseName(c);
    }
}
