#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/heuristics.h"
#include "cpu/bandit_prefetch.h"
#include "trace/record.h"

namespace mab {
namespace {

PrefetchAccess
access(uint64_t addr, uint64_t cycle, uint64_t instr)
{
    PrefetchAccess a;
    a.pc = 0x42;
    a.addr = addr;
    a.cycle = cycle;
    a.instrCount = instr;
    return a;
}

BanditPrefetchConfig
quickConfig()
{
    BanditPrefetchConfig cfg;
    cfg.hw.stepUnits = 20;
    cfg.hw.selectionLatencyCycles = 0;
    return cfg;
}

TEST(BanditPrefetchController, DefaultsMatchTable6)
{
    const BanditPrefetchConfig cfg;
    EXPECT_EQ(cfg.mab.numArms, 11);
    EXPECT_DOUBLE_EQ(cfg.mab.gamma, 0.999);
    EXPECT_DOUBLE_EQ(cfg.mab.c, 0.04);
    EXPECT_TRUE(cfg.mab.normalizeRewards);
    EXPECT_EQ(cfg.hw.stepUnits, 1000u);
    EXPECT_EQ(cfg.hw.selectionLatencyCycles, 500u);
}

TEST(BanditPrefetchController, NameIncludesAlgorithm)
{
    BanditPrefetchController ducb(quickConfig());
    EXPECT_EQ(ducb.name(), "Bandit[DUCB]");

    BanditPrefetchConfig cfg = quickConfig();
    cfg.algorithm = MabAlgorithm::Ucb;
    BanditPrefetchController ucb(cfg);
    EXPECT_EQ(ucb.name(), "Bandit[UCB]");
}

TEST(BanditPrefetchController, StorageIsAgentOnly)
{
    BanditPrefetchController ctrl(quickConfig());
    EXPECT_EQ(ctrl.storageBytes(), 88u); // 11 arms x 8B
}

TEST(BanditPrefetchController, RejectsPolicyWithoutOneArmPerEnsembleArm)
{
    MabConfig mab;
    mab.numArms = 16;
    EXPECT_THROW(BanditPrefetchController(makePolicy(MabAlgorithm::Ducb, mab),
                                          BanditHwConfig{}),
                 std::invalid_argument);
    try {
        BanditPrefetchController(makePolicy(MabAlgorithm::Ucb, mab),
                                 BanditHwConfig{});
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("16"), std::string::npos);
    }
    EXPECT_THROW(BanditPrefetchController(nullptr, BanditHwConfig{}),
                 std::invalid_argument);
    mab.numArms = 11;
    EXPECT_NO_THROW(BanditPrefetchController(
        makePolicy(MabAlgorithm::Ducb, mab), BanditHwConfig{}));
}

TEST(BanditPrefetchController, OneAccessIsOneStepUnit)
{
    BanditPrefetchController ctrl(quickConfig());
    std::vector<uint64_t> out;
    for (int i = 0; i < 19; ++i) {
        ctrl.onAccess(access(0x1000 + i * kLineBytes, i * 10, i * 5),
                      out);
        ASSERT_EQ(ctrl.agent().stepsCompleted(), 0u);
    }
    ctrl.onAccess(access(0x2000, 200, 100), out);
    EXPECT_EQ(ctrl.agent().stepsCompleted(), 1u);
}

TEST(BanditPrefetchController, ArmAppliedToEnsemble)
{
    MabConfig mcfg;
    mcfg.numArms = BanditEnsemblePrefetcher::numArms();
    BanditHwConfig hw;
    hw.stepUnits = 20;
    hw.selectionLatencyCycles = 0;
    BanditPrefetchController ctrl(
        std::make_unique<FixedArmPolicy>(mcfg, 2), hw); // NL-only arm
    std::vector<uint64_t> out;
    ctrl.onAccess(access(0x4000, 10, 5), out);
    EXPECT_EQ(ctrl.ensemble().currentArm(), 2);
    // The next-line arm prefetches exactly line+1.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x4000u + kLineBytes);
}

TEST(BanditPrefetchController, SelectionLatencyHoldsOldArm)
{
    BanditPrefetchConfig cfg = quickConfig();
    cfg.hw.selectionLatencyCycles = 500;
    BanditPrefetchController ctrl(cfg);
    std::vector<uint64_t> out;

    // Drive through the first step boundary at cycle 1000.
    for (int i = 0; i < 20; ++i)
        ctrl.onAccess(access(0x8000 + i * kLineBytes, 50 * i, 10 * i),
                      out);
    const ArmId selected = ctrl.agent().selectedArm();
    // Before the latency window expires, the ensemble still runs the
    // previous arm.
    ctrl.onAccess(access(0x9000, 1100, 250), out);
    EXPECT_EQ(ctrl.ensemble().currentArm(), ctrl.agent().armAt(1100));
    // After the window, the new arm is in force.
    ctrl.onAccess(access(0x9040, 1600, 260), out);
    EXPECT_EQ(ctrl.ensemble().currentArm(), selected);
}

TEST(BanditPrefetchController, ResetClearsLearningAndTables)
{
    BanditPrefetchController ctrl(quickConfig());
    std::vector<uint64_t> out;
    for (int i = 0; i < 200; ++i)
        ctrl.onAccess(access(0x10000 + i * kLineBytes, i * 10, i * 8),
                      out);
    EXPECT_GT(ctrl.agent().policy().steps(), 0u);
    ctrl.reset();
    EXPECT_EQ(ctrl.agent().policy().steps(), 0u);
}

TEST(BanditPrefetchController, RoundRobinVisitsAllArmsInOrder)
{
    BanditPrefetchConfig cfg = quickConfig();
    cfg.hw.recordHistory = true;
    BanditPrefetchController ctrl(cfg);
    std::vector<uint64_t> out;
    // 11 arms x 20 accesses per step.
    for (int i = 0; i < 11 * 20; ++i) {
        ctrl.onAccess(
            access(0x20000 + i * kLineBytes, i * 10, i * 7), out);
    }
    EXPECT_FALSE(ctrl.agent().policy().inRoundRobin());
    const auto &history = ctrl.agent().history();
    // The first 11 history entries are arms 0,1,2,...,10 in order.
    ASSERT_GE(history.size(), 11u);
    for (int arm = 0; arm < 11; ++arm)
        EXPECT_EQ(history[arm].second, arm);
}

} // namespace
} // namespace mab
