/**
 * @file
 * NiConfig::validate(), the placement table, and the model
 * registry.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "ni/config.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "transport/transport.hh"

using namespace tcpni;

namespace
{

TEST(NiConfigValidate, DefaultConfigIsValid)
{
    ni::NiConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(NiConfigValidate, ThresholdEqualToDepthIsValid)
{
    // threshold == depth means "the full bit never raises" -- a legal
    // stall-free configuration, not an error.
    ni::NiConfig cfg;
    cfg.inputQueueDepth = 4;
    cfg.inputThreshold = 4;
    cfg.outputQueueDepth = 4;
    cfg.outputThreshold = 4;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(NiConfigValidate, RejectsInputThresholdAboveDepth)
{
    ni::NiConfig cfg;
    cfg.inputQueueDepth = 4;
    cfg.inputThreshold = 5;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(NiConfigValidate, RejectsOutputThresholdAboveDepth)
{
    ni::NiConfig cfg;
    cfg.outputQueueDepth = 8;
    cfg.outputThreshold = 9;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(NiConfigValidate, RejectsZeroInputDepth)
{
    ni::NiConfig cfg;
    cfg.inputQueueDepth = 0;
    cfg.inputThreshold = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(NiConfigValidate, RejectsZeroOutputDepth)
{
    ni::NiConfig cfg;
    cfg.outputQueueDepth = 0;
    cfg.outputThreshold = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(NiConfigValidate, AcceptsEveryRegisteredTransportPolicy)
{
    for (const auto &info : transport::registeredPolicies()) {
        ni::NiConfig cfg;
        cfg.transport.policy = info.name;
        EXPECT_NO_THROW(cfg.validate()) << info.name;
    }
}

TEST(NiConfigValidate, RejectsUnknownTransportPolicy)
{
    ni::NiConfig cfg;
    cfg.transport.policy = "carrier-pigeon";
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(NiConfigValidate, RejectsZeroTransportWindow)
{
    ni::NiConfig cfg;
    cfg.transport.window = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(NiConfigValidate, RejectsPaceRateOutsideAimdBounds)
{
    // A rate outside [1, rateOne] would be silently "corrected" by the
    // first adaptation step; validate() refuses it up front.
    ni::NiConfig below;
    below.transport.paceRate = 0;
    EXPECT_THROW(below.validate(), FatalError);

    ni::NiConfig above;
    above.transport.paceRate = transport::rateOne + 1;
    EXPECT_THROW(above.validate(), FatalError);

    ni::NiConfig edges;
    edges.transport.paceRate = 1;
    EXPECT_NO_THROW(edges.validate());
    edges.transport.paceRate = transport::rateOne;
    EXPECT_NO_THROW(edges.validate());
}

TEST(NiConfigValidate, RejectsZeroPaceBurst)
{
    ni::NiConfig cfg;
    cfg.transport.paceBurst = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(NiConfigValidate, RejectsZeroPaceAiKnobs)
{
    ni::NiConfig step;
    step.transport.paceAiStep = 0;
    EXPECT_THROW(step.validate(), FatalError);

    ni::NiConfig interval;
    interval.transport.paceAiInterval = 0;
    EXPECT_THROW(interval.validate(), FatalError);

    ni::NiConfig holdoff;
    holdoff.transport.paceAiHoldoff = 0;
    EXPECT_THROW(holdoff.validate(), FatalError);
}

TEST(PlacementPolicy, SingletonsMatchPlacement)
{
    struct Row
    {
        ni::Placement p;
        const char *name, *shortName, *columnLabel;
    };
    const Row rows[] = {
        {ni::Placement::offChipCache, "Off-chip Cache", "off", "Off-chip"},
        {ni::Placement::onChipCache, "On-chip Cache", "on", "On-chip"},
        {ni::Placement::registerFile, "Register Mapped", "reg", "Reg"},
        {ni::Placement::onNi, "On-NI", "onni", "On-NI"},
    };
    ASSERT_EQ(std::size(ni::placementTable), std::size(rows));
    for (const Row &r : rows) {
        const ni::PlacementPolicy &pol = ni::placementPolicy(r.p);
        // The row for a placement is the table entry at its index.
        EXPECT_EQ(&pol, &ni::placementTable[static_cast<size_t>(r.p)]);
        EXPECT_STREQ(pol.name, r.name);
        EXPECT_STREQ(pol.shortName, r.shortName) << r.name;
        EXPECT_STREQ(pol.columnLabel, r.columnLabel) << r.name;
    }
}

TEST(PlacementPolicy, AddressingAndFolding)
{
    struct Row
    {
        ni::Placement p;
        bool registerMapped, offChip, escapeTable, handlersOnNi;
        Cycles budget;
    };
    const Row rows[] = {
        {ni::Placement::offChipCache, false, true, false, false, 0},
        {ni::Placement::onChipCache, false, false, false, false, 0},
        {ni::Placement::registerFile, true, false, true, false, 0},
        {ni::Placement::onNi, false, true, true, true, 64},
    };
    ASSERT_EQ(std::size(ni::placementTable), std::size(rows));
    for (const Row &r : rows) {
        const ni::PlacementPolicy &pol = ni::placementPolicy(r.p);
        EXPECT_EQ(pol.registerMapped, r.registerMapped) << pol.name;
        EXPECT_EQ(pol.offChip, r.offChip) << pol.name;
        EXPECT_EQ(pol.escapeTable, r.escapeTable) << pol.name;
        EXPECT_EQ(pol.handlersOnNi, r.handlersOnNi) << pol.name;
        EXPECT_EQ(pol.handlerTimeBudget, r.budget) << pol.name;
        // Only GPR output registers can be computed into directly.
        EXPECT_EQ(pol.directCompose(), r.registerMapped) << pol.name;
    }
}

TEST(PlacementTable, LoadUseDelayTracksConfig)
{
    ni::NiConfig cfg;
    cfg.offChipLoadUseDelay = 8;
    cfg.placement = ni::Placement::offChipCache;
    EXPECT_EQ(cfg.loadUseDelay(), 8u);
    cfg.placement = ni::Placement::onNi;
    EXPECT_EQ(cfg.loadUseDelay(), 8u);

    cfg.placement = ni::Placement::onChipCache;
    EXPECT_EQ(cfg.loadUseDelay(), 0u);
    cfg.placement = ni::Placement::registerFile;
    EXPECT_EQ(cfg.loadUseDelay(), 0u);
}

TEST(ModelRegistry, PaperModelsComeFirstInPaperOrder)
{
    using ni::Placement;
    const ni::Model order[] = {
        {Placement::registerFile, true}, {Placement::onChipCache, true},
        {Placement::offChipCache, true}, {Placement::registerFile, false},
        {Placement::onChipCache, false}, {Placement::offChipCache, false},
    };
    const auto &models = ni::registeredModels();
    ASSERT_EQ(models.size(), 9u);
    const auto &paper = ni::paperModels();
    for (size_t i = 0; i < paper.size(); ++i) {
        EXPECT_EQ(paper[i], order[i]);
        EXPECT_EQ(models[i].model, order[i]);
        EXPECT_EQ(models[i].name, order[i].name());
        EXPECT_EQ(models[i].shortName, order[i].shortName());
    }
}

TEST(ModelRegistry, FindByNameAndShortName)
{
    const ni::ModelInfo *by_short = ni::findModel("reg-opt");
    ASSERT_NE(by_short, nullptr);
    EXPECT_EQ(by_short->model.placement, ni::Placement::registerFile);
    EXPECT_TRUE(by_short->model.optimized);

    const ni::ModelInfo *by_name = ni::findModel(by_short->name);
    EXPECT_EQ(by_name, by_short);

    EXPECT_EQ(ni::findModel("no-such-model"), nullptr);
}

TEST(ModelRegistry, NamesAreUnique)
{
    std::set<std::string> names, shorts;
    for (const ni::ModelInfo &info : ni::registeredModels()) {
        EXPECT_TRUE(names.insert(info.name).second)
            << "duplicate name " << info.name;
        EXPECT_TRUE(shorts.insert(info.shortName).second)
            << "duplicate short name " << info.shortName;
    }
}

TEST(ModelRegistry, FarOffchipVariantRegistered)
{
    const ni::ModelInfo *far = ni::findModel("faroff-opt");
    ASSERT_NE(far, nullptr);
    EXPECT_EQ(far->model.placement, ni::Placement::offChipCache);
    EXPECT_TRUE(far->model.optimized);
    EXPECT_EQ(far->model.offchipLoadUseDelay, 8u);
}

TEST(ModelRegistry, OnNiPairRegistered)
{
    for (const char *name : {"onni-basic", "onni-opt"}) {
        const ni::ModelInfo *info = ni::findModel(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_EQ(info->model.placement, ni::Placement::onNi);
        EXPECT_TRUE(info->model.policy().handlersOnNi);
    }
}

TEST(ModelNames, DelegateToPolicyCanonicalNames)
{
    ni::Model m{ni::Placement::onChipCache, false};
    EXPECT_EQ(m.name(), "Basic On-chip Cache");
    EXPECT_EQ(m.shortName(), "on-basic");
    EXPECT_EQ(ni::placementName(ni::Placement::onChipCache),
              "On-chip Cache");
}

} // namespace
