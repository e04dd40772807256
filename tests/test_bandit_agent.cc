#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/bandit_agent.h"
#include "core/ducb.h"
#include "core/heuristics.h"

namespace mab {
namespace {

std::unique_ptr<MabPolicy>
ducb(int arms = 4)
{
    MabConfig cfg;
    cfg.numArms = arms;
    cfg.seed = 3;
    cfg.normalizeRewards = false; // keep raw IPC visible to tests
    return std::make_unique<Ducb>(cfg);
}

BanditHwConfig
hw(uint64_t step, uint64_t step_rr = 0, uint64_t latency = 500)
{
    BanditHwConfig cfg;
    cfg.stepUnits = step;
    cfg.stepUnitsRr = step_rr;
    cfg.selectionLatencyCycles = latency;
    return cfg;
}

TEST(BanditAgent, SelectsFirstArmAtConstruction)
{
    BanditAgent agent(ducb(), hw(10));
    EXPECT_EQ(agent.selectedArm(), 0);
}

TEST(BanditAgent, StepEndsAfterConfiguredUnits)
{
    BanditAgent agent(ducb(), hw(10));
    for (int i = 0; i < 9; ++i)
        EXPECT_FALSE(agent.tick(1, 100 * i, 100 * i));
    EXPECT_TRUE(agent.tick(1, 1000, 1000));
    EXPECT_EQ(agent.stepsCompleted(), 1u);
}

TEST(BanditAgent, BulkUnitsTriggerStep)
{
    BanditAgent agent(ducb(), hw(10));
    EXPECT_TRUE(agent.tick(15, 500, 500));
}

TEST(BanditAgent, RoundRobinUsesLongerStep)
{
    BanditAgent agent(ducb(2), hw(10, 40));
    // In the round-robin phase the step is 40 units.
    for (int i = 0; i < 39; ++i)
        ASSERT_FALSE(agent.tick(1, i, i));
    EXPECT_TRUE(agent.tick(1, 40, 40));
}

TEST(BanditAgent, MainLoopUsesShortStep)
{
    BanditAgent agent(ducb(2), hw(10, 40));
    // Finish the 2-arm round-robin phase (2 x 40 units).
    agent.tick(40, 40, 40);
    agent.tick(40, 80, 80);
    EXPECT_FALSE(agent.policy().inRoundRobin());
    for (int i = 0; i < 9; ++i)
        ASSERT_FALSE(agent.tick(1, 80 + i, 80 + i));
    EXPECT_TRUE(agent.tick(1, 100, 100));
}

TEST(BanditAgent, RewardIsIpcOfStepWindow)
{
    BanditAgent agent(ducb(2), hw(10));
    // Step 1: 200 instructions over 100 cycles -> IPC 2.0 (arm 0).
    agent.tick(10, 200, 100);
    EXPECT_DOUBLE_EQ(agent.policy().armRewards()[0], 2.0);
    // Step 2: 50 instructions over the next 100 cycles -> IPC 0.5.
    agent.tick(10, 250, 200);
    EXPECT_DOUBLE_EQ(agent.policy().armRewards()[1], 0.5);
}

TEST(BanditAgent, SelectionLatencyDelaysArmVisibility)
{
    BanditAgent agent(ducb(2), hw(10, 0, 500));
    agent.tick(10, 100, 1000); // step ends at cycle 1000, arm 1 next
    EXPECT_EQ(agent.selectedArm(), 1);
    EXPECT_EQ(agent.armAt(1000), 0);
    EXPECT_EQ(agent.armAt(1499), 0);
    EXPECT_EQ(agent.armAt(1500), 1);
}

TEST(BanditAgent, ZeroLatencyAppliesImmediately)
{
    BanditAgent agent(ducb(2), hw(10, 0, 0));
    agent.tick(10, 100, 1000);
    EXPECT_EQ(agent.armAt(1000), agent.selectedArm());
}

TEST(BanditAgent, StorageIsEightBytesPerArm)
{
    BanditAgent agent11(ducb(11), hw(10));
    EXPECT_EQ(agent11.storageBytes(), 88u);
    EXPECT_LT(agent11.storageBytes(), 100u); // Section 5.4 headline
    BanditAgent agent6(ducb(6), hw(10));
    EXPECT_EQ(agent6.storageBytes(), 48u);
}

TEST(BanditAgent, HistoryRecordsSwitches)
{
    BanditHwConfig cfg = hw(10, 0, 0);
    cfg.recordHistory = true;
    BanditAgent agent(ducb(3), cfg);
    for (int i = 1; i <= 6; ++i)
        agent.tick(10, 100 * i, 1000 * i);
    // Round-robin alone guarantees several switches.
    EXPECT_GE(agent.history().size(), 3u);
    // History cycles are monotonically non-decreasing.
    for (size_t i = 1; i < agent.history().size(); ++i)
        EXPECT_LE(agent.history()[i - 1].first,
                  agent.history()[i].first);
}

TEST(BanditAgent, TickMetricUsesMeanMetricAsReward)
{
    BanditAgent agent(ducb(2), hw(10));
    // Step 1: metric sum rises by 8.0 over 10 units -> reward 0.8.
    agent.tickMetric(10, 8.0, 100);
    EXPECT_DOUBLE_EQ(agent.policy().armRewards()[0], 0.8);
    // Step 2: metric sum rises by 2.0 -> reward 0.2.
    agent.tickMetric(10, 10.0, 200);
    EXPECT_DOUBLE_EQ(agent.policy().armRewards()[1], 0.2);
}

TEST(BanditAgent, TickMetricRespectsStepBoundaries)
{
    BanditAgent agent(ducb(2), hw(10));
    for (int i = 0; i < 9; ++i)
        EXPECT_FALSE(agent.tickMetric(1, i, i * 10));
    EXPECT_TRUE(agent.tickMetric(1, 9.0, 90));
    EXPECT_EQ(agent.stepsCompleted(), 1u);
}

TEST(BanditAgent, FixedArmNeverSwitches)
{
    MabConfig cfg;
    cfg.numArms = 5;
    BanditHwConfig hwc = hw(10, 0, 0);
    hwc.recordHistory = true;
    BanditAgent agent(std::make_unique<FixedArmPolicy>(cfg, 2), hwc);
    for (int i = 1; i <= 20; ++i)
        agent.tick(10, 10 * i, 100 * i);
    EXPECT_EQ(agent.selectedArm(), 2);
    EXPECT_EQ(agent.history().size(), 1u); // only the initial record
}

TEST(BanditAgent, NullPolicyThrows)
{
    EXPECT_THROW(BanditAgent(nullptr, hw(100)), std::invalid_argument);
}

} // namespace
} // namespace mab
