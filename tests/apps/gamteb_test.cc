#include <gtest/gtest.h>

#include "apps/gamteb.hh"
#include "common/logging.hh"

using namespace tcpni;
using namespace tcpni::apps;

TEST(Gamteb, SixteenParticlesConserve)
{
    GamtebResult r = runGamteb(16);
    EXPECT_TRUE(r.conserved());
    EXPECT_EQ(r.sourceParticles, 16u);
    EXPECT_GE(r.totalParticles, 16u);
    EXPECT_GT(r.collisions, 0u);
}

TEST(Gamteb, Deterministic)
{
    GamtebResult a = runGamteb(16);
    GamtebResult b = runGamteb(16);
    EXPECT_EQ(a.escaped, b.escaped);
    EXPECT_EQ(a.absorbed, b.absorbed);
    EXPECT_EQ(a.pairProductions, b.pairProductions);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.stats.totalMessages(), b.stats.totalMessages());
}

TEST(Gamteb, UsesEveryMessageClass)
{
    // Gamteb's profile covers Sends (spawns/notifications), PReads
    // (cross-section lookups), PWrites (table init), and Read/Write
    // (tallies) -- the full protocol.
    GamtebResult r = runGamteb(32);
    const tam::TamStats &s = r.stats;
    EXPECT_GT(s.msg(tam::MsgKind::send0) + s.msg(tam::MsgKind::send1) +
                  s.msg(tam::MsgKind::send2),
              0u);
    EXPECT_GT(s.msg(tam::MsgKind::preadFull) +
                  s.msg(tam::MsgKind::preadEmpty) +
                  s.msg(tam::MsgKind::preadDeferred),
              0u);
    EXPECT_GT(s.msg(tam::MsgKind::pwrite), 0u);
    EXPECT_GT(s.msg(tam::MsgKind::read), 0u);
    EXPECT_GT(s.msg(tam::MsgKind::write), 0u);
}

TEST(Gamteb, EarlyFetchesDefer)
{
    // Photons start before the cross-section table is initialized
    // (LIFO), so the first lookups defer -- exercising the deferred
    // I-structure machinery the paper's Table 1 prices.
    GamtebResult r = runGamteb(16);
    EXPECT_GT(r.stats.msg(tam::MsgKind::preadEmpty) +
                  r.stats.msg(tam::MsgKind::preadDeferred),
              0u);
    EXPECT_EQ(r.stats.pwriteReleases,
              r.stats.msg(tam::MsgKind::preadEmpty) +
                  r.stats.msg(tam::MsgKind::preadDeferred));
}

TEST(Gamteb, ZeroParticlesIsFatal)
{
    EXPECT_THROW(runGamteb(0), FatalError);
}

class GamtebSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GamtebSweep, Conserves)
{
    GamtebResult r = runGamteb(GetParam());
    EXPECT_TRUE(r.conserved()) << "particles=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, GamtebSweep,
                         ::testing::Values(1u, 2u, 16u, 64u, 256u));
