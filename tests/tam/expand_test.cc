#include <gtest/gtest.h>

#include "ni/model_registry.hh"
#include "tam/expand.hh"

using namespace tcpni;
using namespace tcpni::tam;

namespace
{

/** Shared measured costs (deterministic, measured once). */
const CommCosts &
costs(size_t model_idx)
{
    static std::array<std::unique_ptr<CommCosts>, 6> cache;
    if (!cache[model_idx]) {
        cache[model_idx] = std::make_unique<CommCosts>(
            measureCommCosts(ni::paperModels()[model_idx]));
    }
    return *cache[model_idx];
}

} // namespace

TEST(Expand, PureWorkHasNoCommComponent)
{
    TamStats s{};
    s.ops[static_cast<size_t>(Op::iop)] = 100;
    s.ops[static_cast<size_t>(Op::fop)] = 50;
    Figure12Bar bar = expand(s, costs(0));
    EXPECT_GT(bar.work, 0);
    EXPECT_EQ(bar.dispatch, 0);
    EXPECT_EQ(bar.otherComm, 0);
}

TEST(Expand, WorkIsModelIndependent)
{
    TamStats s{};
    s.ops[static_cast<size_t>(Op::iop)] = 1000;
    s.msgs[static_cast<size_t>(MsgKind::send1)] = 10;
    double w0 = expand(s, costs(0)).work;
    for (size_t i = 1; i < 6; ++i)
        EXPECT_DOUBLE_EQ(expand(s, costs(i)).work, w0);
}

TEST(Expand, EveryMessagePaysOneDispatch)
{
    TamStats s{};
    s.msgs[static_cast<size_t>(MsgKind::send0)] = 7;
    Figure12Bar bar = expand(s, costs(0));
    EXPECT_DOUBLE_EQ(bar.dispatch, 7 * costs(0).dispatch);
}

TEST(Expand, RepliesPayDispatchAndSend1Processing)
{
    TamStats a{}, b{};
    a.msgs[static_cast<size_t>(MsgKind::read)] = 1;
    b.msgs[static_cast<size_t>(MsgKind::read)] = 1;
    b.replies = 1;
    const CommCosts &c = costs(0);
    Figure12Bar ba = expand(a, c), bb = expand(b, c);
    EXPECT_DOUBLE_EQ(bb.dispatch - ba.dispatch, c.dispatch);
    EXPECT_DOUBLE_EQ(bb.otherComm - ba.otherComm, c.procSend1);
}

TEST(Expand, PWriteDeferredUsesLinearCost)
{
    TamStats s{};
    s.msgs[static_cast<size_t>(MsgKind::pwrite)] = 1;
    s.pwriteWithDeferred = 1;
    s.pwriteReleases = 5;
    const CommCosts &c = costs(0);
    Figure12Bar bar = expand(s, c);
    double expected = c.sendPWrite + c.procPWriteDefBase +
                      5 * c.procPWriteDefSlope;
    EXPECT_DOUBLE_EQ(bar.otherComm, expected);
}

TEST(Expand, SendingComponentSubsetOfOtherComm)
{
    TamStats s{};
    s.msgs[static_cast<size_t>(MsgKind::send2)] = 3;
    s.msgs[static_cast<size_t>(MsgKind::write)] = 2;
    Figure12Bar bar = expand(s, costs(2));
    EXPECT_GT(bar.sending, 0);
    EXPECT_LE(bar.sending, bar.otherComm);
}

TEST(Expand, ModelOrderingOnMixedTraffic)
{
    // Any nontrivial traffic must rank: opt-reg cheapest comm, basic
    // off-chip most expensive.
    TamStats s{};
    s.msgs[static_cast<size_t>(MsgKind::send1)] = 100;
    s.msgs[static_cast<size_t>(MsgKind::read)] = 50;
    s.msgs[static_cast<size_t>(MsgKind::preadFull)] = 200;
    s.msgs[static_cast<size_t>(MsgKind::pwrite)] = 30;
    s.replies = 250;

    double prev = 0;
    // Within each family, comm cost rises with placement distance.
    for (size_t i : {0u, 1u, 2u}) {
        Figure12Bar b = expand(s, costs(i));
        EXPECT_GT(b.dispatch + b.otherComm, prev);
        prev = b.dispatch + b.otherComm;
    }
    double opt_off = prev;
    prev = 0;
    for (size_t i : {3u, 4u, 5u}) {
        Figure12Bar b = expand(s, costs(i));
        EXPECT_GT(b.dispatch + b.otherComm, prev);
        prev = b.dispatch + b.otherComm;
    }
    // Claim B at the comm level: even basic register-mapped comm is
    // costlier than optimized off-chip comm.
    Figure12Bar basic_reg = expand(s, costs(3));
    EXPECT_GT(basic_reg.dispatch + basic_reg.otherComm, opt_off * 0.9);
}

TEST(Expand, SendDominatedTrafficFavorsDispatchOptimization)
{
    // A pure-Send mix (a call tree's one- and two-value Sends): the
    // optimized/basic gap is dominated by dispatch -- the largest
    // single ratio in Table 1.
    TamStats s{};
    s.ops[static_cast<size_t>(Op::iop)] = 2000;
    s.ops[static_cast<size_t>(Op::move)] = 1500;
    s.msgs[static_cast<size_t>(MsgKind::send1)] = 600;
    s.msgs[static_cast<size_t>(MsgKind::send2)] = 600;
    CommCosts reg_opt = measureCommCosts({ni::Placement::registerFile, true});
    CommCosts off_bas =
        measureCommCosts({ni::Placement::offChipCache, false});
    Figure12Bar opt = expand(s, reg_opt);
    Figure12Bar bas = expand(s, off_bas);
    double ratio = (bas.sending + bas.dispatch) /
                   (opt.sending + opt.dispatch);
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(opt.total(), bas.total());
}

TEST(Expand, WorkCostModelDefaultsPositive)
{
    WorkCostModel w = WorkCostModel::default88100();
    for (size_t i = 0; i < static_cast<size_t>(Op::numOps); ++i)
        EXPECT_GT(w.cost[i], 0) << opName(static_cast<Op>(i));
}

TEST(Expand, OffChipDelayRaisesOffChipCommOnly)
{
    TamStats s{};
    s.msgs[static_cast<size_t>(MsgKind::read)] = 100;
    s.replies = 100;

    CommCosts off2 = measureCommCosts(
        ni::paperModels()[2].withOffchipDelay(2));
    CommCosts off8 = measureCommCosts(
        ni::paperModels()[2].withOffchipDelay(8));
    CommCosts reg2 = measureCommCosts(
        ni::paperModels()[0].withOffchipDelay(2));
    CommCosts reg8 = measureCommCosts(
        ni::paperModels()[0].withOffchipDelay(8));

    double c_off2 = expand(s, off2).dispatch + expand(s, off2).otherComm;
    double c_off8 = expand(s, off8).dispatch + expand(s, off8).otherComm;
    double c_reg2 = expand(s, reg2).dispatch + expand(s, reg2).otherComm;
    double c_reg8 = expand(s, reg8).dispatch + expand(s, reg8).otherComm;

    EXPECT_GT(c_off8, c_off2 * 1.3);
    EXPECT_DOUBLE_EQ(c_reg2, c_reg8);
}
