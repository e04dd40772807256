#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "core/hierarchical.h"
#include "core/regret.h"
#include "core/swucb.h"
#include "core/thompson.h"
#include "cpu/classifier_bandit.h"
#include "cpu/joint_bandit.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab {
namespace {

MabConfig
config(int arms, uint64_t seed = 42)
{
    MabConfig cfg;
    cfg.numArms = arms;
    cfg.c = 0.3;
    cfg.gamma = 0.98;
    cfg.normalizeRewards = false;
    cfg.seed = seed;
    return cfg;
}

class BernoulliEnv
{
  public:
    BernoulliEnv(std::vector<double> means, uint64_t seed)
        : means_(std::move(means)), rng_(seed)
    {
    }

    double pull(ArmId arm) { return rng_.bernoulli(means_[arm]); }
    const std::vector<double> &means() const { return means_; }

  private:
    std::vector<double> means_;
    Rng rng_;
};

// ---------------------------------------------------------------------
// SW-UCB.
// ---------------------------------------------------------------------

TEST(SwUcb, FindsBestStationaryArm)
{
    SwUcb policy(config(4), 64);
    BernoulliEnv env({0.2, 0.2, 0.9, 0.2}, 3);
    int best_picks = 0;
    for (int i = 0; i < 1000; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
        if (i > 500 && a == 2)
            ++best_picks;
    }
    EXPECT_GT(best_picks, 300);
}

TEST(SwUcb, WindowBoundsTotalCount)
{
    SwUcb policy(config(3), 50);
    for (int i = 0; i < 500; ++i) {
        policy.selectArm();
        policy.observeReward(0.5);
    }
    // The window bounds main-loop samples; the initial round-robin
    // seeds (one per arm) persist by design.
    EXPECT_LE(policy.totalCount(), 50.0 + 3.0 + 1e-9);
}

TEST(SwUcb, AdaptsFasterThanPlainUcbAfterPhaseFlip)
{
    SwUcb sw(config(2), 60);
    Ucb ucb(config(2));
    BernoulliEnv a1({0.9, 0.1}, 5), a2({0.9, 0.1}, 5);
    for (int i = 0; i < 1500; ++i) {
        sw.observeReward(a1.pull(sw.selectArm()));
        ucb.observeReward(a2.pull(ucb.selectArm()));
    }
    BernoulliEnv b1({0.1, 0.9}, 6), b2({0.1, 0.9}, 6);
    int sw_new = 0, ucb_new = 0;
    for (int i = 0; i < 300; ++i) {
        const ArmId sa = sw.selectArm();
        sw.observeReward(b1.pull(sa));
        sw_new += sa == 1;
        const ArmId ua = ucb.selectArm();
        ucb.observeReward(b2.pull(ua));
        ucb_new += ua == 1;
    }
    EXPECT_GT(sw_new, ucb_new);
}

TEST(SwUcb, NameAndWindowExposed)
{
    SwUcb policy(config(3), 77);
    EXPECT_EQ(policy.name(), "SW-UCB");
    EXPECT_EQ(policy.window(), 77);
}

// ---------------------------------------------------------------------
// Thompson sampling.
// ---------------------------------------------------------------------

TEST(Thompson, FindsBestStationaryArm)
{
    ThompsonSampling policy(config(4));
    BernoulliEnv env({0.2, 0.85, 0.3, 0.2}, 9);
    int best_picks = 0;
    for (int i = 0; i < 1200; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
        if (i > 600 && a == 1)
            ++best_picks;
    }
    EXPECT_GT(best_picks, 400);
}

TEST(Thompson, PosteriorTightensWithSamples)
{
    // With many samples of a deterministic arm, the posterior mean
    // approaches the true value.
    ThompsonSampling policy(config(2));
    for (int i = 0; i < 400; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(a == 0 ? 0.7 : 0.2);
    }
    EXPECT_NEAR(policy.posteriorMean(0), 0.7, 0.05);
}

TEST(Thompson, DecayedVariantAdaptsToFlip)
{
    ThompsonConfig tcfg;
    tcfg.decay = 0.97;
    ThompsonSampling policy(config(2), tcfg);
    EXPECT_EQ(policy.name(), "dThompson");
    BernoulliEnv a({0.9, 0.1}, 4);
    for (int i = 0; i < 600; ++i)
        policy.observeReward(a.pull(policy.selectArm()));
    BernoulliEnv b({0.1, 0.9}, 5);
    int new_best = 0;
    for (int i = 0; i < 500; ++i) {
        const ArmId arm = policy.selectArm();
        policy.observeReward(b.pull(arm));
        if (i > 250)
            new_best += arm == 1;
    }
    EXPECT_GT(new_best, 120);
}

TEST(Thompson, Deterministic)
{
    ThompsonSampling a(config(3)), b(config(3));
    for (int i = 0; i < 200; ++i) {
        const ArmId x = a.selectArm();
        const ArmId y = b.selectArm();
        ASSERT_EQ(x, y);
        a.observeReward(0.4);
        b.observeReward(0.4);
    }
}

// ---------------------------------------------------------------------
// Hierarchical bandit.
// ---------------------------------------------------------------------

TEST(Hierarchical, SelectsWithinArmRange)
{
    HierarchicalBandit policy(config(5));
    Rng rng(8);
    for (int i = 0; i < 500; ++i) {
        const ArmId a = policy.selectArm();
        ASSERT_GE(a, 0);
        ASSERT_LT(a, 5);
        policy.observeReward(rng.uniform());
    }
}

TEST(Hierarchical, EmptyLearnerListThrows)
{
    HierarchicalConfig hcfg;
    hcfg.learnerParams.clear();
    try {
        HierarchicalBandit policy(config(3), hcfg);
        ADD_FAILURE() << "empty learnerParams accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("learnerParams"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Hierarchical, FindsBestArm)
{
    HierarchicalBandit policy(config(4));
    BernoulliEnv env({0.2, 0.2, 0.2, 0.9}, 13);
    int best_picks = 0;
    for (int i = 0; i < 2000; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
        if (i > 1000 && a == 3)
            ++best_picks;
    }
    EXPECT_GT(best_picks, 500);
}

TEST(Hierarchical, MetaBanditSwitchesLearners)
{
    HierarchicalConfig hcfg;
    hcfg.metaStepLen = 4;
    HierarchicalBandit policy(config(3), hcfg);
    Rng rng(2);
    std::set<int> seen;
    for (int i = 0; i < 200; ++i) {
        policy.selectArm();
        policy.observeReward(rng.uniform());
        seen.insert(policy.activeLearner());
    }
    // The meta round-robin phase alone must visit every learner.
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Hierarchical, StorageCountsAllLevels)
{
    HierarchicalBandit policy(config(11));
    // 3 learners x 11 arms + 1 meta x 3 arms, 8B each.
    EXPECT_EQ(policy.storageBytes(), (3u * 11u + 3u) * 8u);
}

TEST(Hierarchical, ResetRestoresCleanState)
{
    HierarchicalBandit policy(config(3));
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        policy.selectArm();
        policy.observeReward(rng.uniform());
    }
    policy.reset();
    EXPECT_EQ(policy.learner(0).steps(), 0u);
    EXPECT_EQ(policy.metaBandit().steps(), 0u);
}

// ---------------------------------------------------------------------
// Regret tracker.
// ---------------------------------------------------------------------

TEST(Regret, AccumulatesGapToBest)
{
    RegretTracker tracker({0.2, 0.8});
    tracker.record(1);
    EXPECT_DOUBLE_EQ(tracker.cumulative(), 0.0);
    tracker.record(0);
    EXPECT_NEAR(tracker.cumulative(), 0.6, 1e-12);
}

TEST(Regret, LearningPolicyHasSublinearRegret)
{
    Ducb policy(config(3));
    BernoulliEnv env({0.3, 0.8, 0.4}, 17);
    RegretTracker tracker(env.means());
    for (int i = 0; i < 2000; ++i) {
        const ArmId a = policy.selectArm();
        tracker.record(a);
        policy.observeReward(env.pull(a));
    }
    // Late-phase per-step regret far below the uniform-random rate.
    const double uniform_rate = (0.5 + 0.0 + 0.4) / 3.0;
    EXPECT_LT(tracker.recentRate(500), uniform_rate / 3.0);
}

TEST(Regret, PhaseChangeResetsBestReference)
{
    RegretTracker tracker({0.9, 0.1});
    tracker.record(0); // optimal, no regret
    tracker.setMeans({0.1, 0.9});
    tracker.record(0); // now suboptimal
    EXPECT_NEAR(tracker.cumulative(), 0.8, 1e-12);
}

// ---------------------------------------------------------------------
// Pattern classifier + classifier bandit.
// ---------------------------------------------------------------------

TEST(PatternClassifier, DetectsStreaming)
{
    PatternClassifier cls(64);
    for (int i = 0; i < 200; ++i)
        cls.observe(0x10000 + static_cast<uint64_t>(i) * kLineBytes);
    EXPECT_EQ(cls.current(), AccessClass::Streaming);
}

TEST(PatternClassifier, DetectsStrided)
{
    PatternClassifier cls(64);
    for (int i = 0; i < 200; ++i)
        cls.observe(0x10000 + static_cast<uint64_t>(i) * 8 *
                    kLineBytes);
    EXPECT_EQ(cls.current(), AccessClass::Strided);
}

TEST(PatternClassifier, DetectsIrregular)
{
    PatternClassifier cls(64);
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        cls.observe(rng.below(1 << 24) * kLineBytes);
    EXPECT_EQ(cls.current(), AccessClass::Irregular);
}

TEST(ClassifierBandit, RoutesStepsToActiveClassAgent)
{
    ClassifierBanditController ctrl;
    std::vector<uint64_t> out;
    PrefetchAccess access;
    for (int i = 0; i < 2000; ++i) {
        access.addr = 0x100000 + static_cast<uint64_t>(i) * kLineBytes;
        access.pc = 1;
        access.cycle = static_cast<uint64_t>(i) * 20;
        access.instrCount = static_cast<uint64_t>(i) * 25;
        out.clear();
        ctrl.onAccess(access, out);
    }
    // The streaming agent took (nearly) all the steps.
    EXPECT_GT(
        ctrl.agentFor(AccessClass::Streaming).stepsCompleted(), 0u);
    EXPECT_EQ(
        ctrl.agentFor(AccessClass::Strided).stepsCompleted(), 0u);
}

TEST(ClassifierBandit, StorageIsThreeAgentsPlusClassifier)
{
    ClassifierBanditController ctrl;
    EXPECT_EQ(ctrl.storageBytes(), 3u * 11u * 8u + 16u);
    EXPECT_LT(ctrl.storageBytes(), 512u);
}

// ---------------------------------------------------------------------
// Joint L1+L2 bandit.
// ---------------------------------------------------------------------

TEST(JointBandit, ActionSpaceIsProduct)
{
    EXPECT_EQ(JointBanditController::numArms(), 33);
}

TEST(JointBandit, ArmDecodingRoundTrips)
{
    for (ArmId arm = 0; arm < JointBanditController::numArms();
         ++arm) {
        const int l1 = JointBanditController::l1ComponentOf(arm);
        const int l2 = JointBanditController::l2ComponentOf(arm);
        EXPECT_GE(l1, 0);
        EXPECT_LT(l1, 3);
        EXPECT_GE(l2, 0);
        EXPECT_LT(l2, 11);
        EXPECT_EQ(arm, l1 * 11 + l2);
    }
}

TEST(JointBandit, ViewsShareOneAgent)
{
    BanditHwConfig hw;
    hw.stepUnits = 50;
    JointBanditController ctrl(MabAlgorithm::Ducb, MabConfig{}, hw);
    std::vector<uint64_t> out;
    PrefetchAccess access;
    access.pc = 7;
    for (int i = 0; i < 300; ++i) {
        access.addr = 0x200000 + static_cast<uint64_t>(i) * kLineBytes;
        access.cycle = static_cast<uint64_t>(i) * 30;
        access.instrCount = static_cast<uint64_t>(i) * 20;
        out.clear();
        ctrl.l1View()->onAccess(access, out);
        ctrl.l2View()->onAccess(access, out);
    }
    // Only the L2 view ticks the shared agent.
    EXPECT_GT(ctrl.agent().stepsCompleted(), 0u);
}

TEST(JointBandit, StorageStillTiny)
{
    JointBanditController ctrl;
    // 33 arms x 8B agent table.
    EXPECT_EQ(ctrl.agent().storageBytes(), 33u * 8u);
}

} // namespace
} // namespace mab
