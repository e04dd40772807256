#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ducb.h"
#include "core/egreedy.h"
#include "core/factory.h"
#include "core/heuristics.h"
#include "core/hierarchical.h"
#include "core/swucb.h"
#include "core/ucb.h"
#include "sim/rng.h"

namespace mab {
namespace {

/** A stationary Bernoulli bandit environment for convergence tests. */
class BernoulliEnv
{
  public:
    BernoulliEnv(std::vector<double> means, uint64_t seed)
        : means_(std::move(means)), rng_(seed)
    {
    }

    double pull(ArmId arm) { return rng_.bernoulli(means_[arm]); }

    ArmId
    bestArm() const
    {
        ArmId best = 0;
        for (ArmId i = 1; i < static_cast<ArmId>(means_.size()); ++i) {
            if (means_[i] > means_[best])
                best = i;
        }
        return best;
    }

  private:
    std::vector<double> means_;
    Rng rng_;
};

MabConfig
config(int arms)
{
    MabConfig cfg;
    cfg.numArms = arms;
    cfg.c = 0.3;
    cfg.gamma = 0.99;
    cfg.epsilon = 0.1;
    cfg.seed = 42;
    return cfg;
}

// ---------------------------------------------------------------------
// Algorithm-1 template behaviour (round-robin phase, bookkeeping).
// ---------------------------------------------------------------------

TEST(MabTemplate, InitialRoundRobinTriesEveryArmOnce)
{
    Ducb policy(config(5));
    for (ArmId expect = 0; expect < 5; ++expect) {
        EXPECT_TRUE(policy.inRoundRobin());
        EXPECT_EQ(policy.selectArm(), expect);
        policy.observeReward(0.5);
    }
    EXPECT_FALSE(policy.inRoundRobin());
}

TEST(MabTemplate, RoundRobinSeedsCountsToOne)
{
    Ucb policy(config(4));
    for (int i = 0; i < 4; ++i) {
        policy.selectArm();
        policy.observeReward(1.0 + i);
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(policy.armCounts()[i], 1.0);
    EXPECT_DOUBLE_EQ(policy.totalCount(), 4.0);
}

TEST(MabTemplate, StepsCounted)
{
    Ducb policy(config(3));
    for (int i = 0; i < 10; ++i) {
        policy.selectArm();
        policy.observeReward(0.1);
    }
    EXPECT_EQ(policy.steps(), 10u);
}

TEST(MabTemplate, ResetRestoresInitialState)
{
    Ducb policy(config(3));
    for (int i = 0; i < 8; ++i) {
        policy.selectArm();
        policy.observeReward(0.7);
    }
    policy.reset();
    EXPECT_TRUE(policy.inRoundRobin());
    EXPECT_EQ(policy.steps(), 0u);
    EXPECT_DOUBLE_EQ(policy.totalCount(), 0.0);
    EXPECT_EQ(policy.selectArm(), 0);
}

TEST(MabTemplate, ResetReproducesIdenticalRun)
{
    EpsilonGreedy policy(config(4));
    BernoulliEnv env({0.2, 0.8, 0.5, 0.3}, 7);
    std::vector<ArmId> first;
    for (int i = 0; i < 50; ++i) {
        const ArmId a = policy.selectArm();
        first.push_back(a);
        policy.observeReward(env.pull(a));
    }
    policy.reset();
    BernoulliEnv env2({0.2, 0.8, 0.5, 0.3}, 7);
    for (int i = 0; i < 50; ++i) {
        const ArmId a = policy.selectArm();
        EXPECT_EQ(a, first[i]);
        policy.observeReward(env2.pull(a));
    }
}

TEST(MabTemplate, GreedyArmTracksHighestReward)
{
    Ucb policy(config(3));
    policy.selectArm();
    policy.observeReward(0.1);
    policy.selectArm();
    policy.observeReward(0.9);
    policy.selectArm();
    policy.observeReward(0.4);
    EXPECT_EQ(policy.greedyArm(), 1);
}

/** Every MabAlgorithm the factory builds. */
const std::vector<MabAlgorithm> kAllAlgorithms = {
    MabAlgorithm::EpsilonGreedy, MabAlgorithm::Ucb,
    MabAlgorithm::Ducb,          MabAlgorithm::Single,
    MabAlgorithm::Periodic,      MabAlgorithm::SwUcb,
    MabAlgorithm::Thompson,      MabAlgorithm::Hierarchical,
};

uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

class ResetTest : public ::testing::TestWithParam<MabAlgorithm>
{
};

TEST_P(ResetTest, ReplayAfterResetMatchesAFreshPolicy)
{
    const MabAlgorithm algo = GetParam();
    const std::vector<double> means = {0.2, 0.8, 0.5, 0.3, 0.6};
    // Both parities of warm-up length: Thompson's Gaussian sampler
    // holds a spare draw after an odd number of draws.
    for (int warm : {333, 334}) {
        auto used = makePolicy(algo, config(5));
        auto fresh = makePolicy(algo, config(5));

        BernoulliEnv warmup(means, 3);
        for (int i = 0; i < warm; ++i)
            used->observeReward(warmup.pull(used->selectArm()));
        used->reset();

        // One draw per step whatever the arm: both replays see the
        // same reward stream.
        BernoulliEnv env_used(means, 11), env_fresh(means, 11);
        int differing = 0;
        for (int i = 0; i < 600; ++i) {
            const ArmId a = used->selectArm();
            const ArmId b = fresh->selectArm();
            differing += a != b;
            used->observeReward(env_used.pull(a));
            fresh->observeReward(env_fresh.pull(b));
        }
        EXPECT_EQ(differing, 0) << "of 600 decisions, warm-up " << warm;
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(bits(used->armRewards()[i]),
                      bits(fresh->armRewards()[i]))
                << "r[" << i << "], warm-up " << warm;
            EXPECT_EQ(bits(used->armCounts()[i]),
                      bits(fresh->armCounts()[i]))
                << "n[" << i << "], warm-up " << warm;
        }
        EXPECT_EQ(bits(used->totalCount()), bits(fresh->totalCount()))
            << "warm-up " << warm;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ResetTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<MabAlgorithm> &info) {
        std::string name = toString(info.param);
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Release-mode constructor guards: both checks stay in NDEBUG builds.
// ---------------------------------------------------------------------

/** @p make throws std::invalid_argument whose message ends in
 *  "got <value>". */
template <class Make>
void
expectInvalidNaming(Make make, int value)
{
    const std::string want = "got " + std::to_string(value);
    try {
        make();
        ADD_FAILURE() << "no exception for " << value;
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(std::string(e.what()).ends_with(want)) << e.what();
    }
}

TEST(MabTemplate, FewerThanOneArmThrowsInEveryAlgorithm)
{
    for (int arms : {0, -1, std::numeric_limits<int>::min()}) {
        for (MabAlgorithm algo : kAllAlgorithms) {
            expectInvalidNaming([&] { makePolicy(algo, config(arms)); },
                                arms);
        }
    }
}

TEST(SwUcb, WindowBelowArmCountThrows)
{
    for (int window : {3, 0, -1, std::numeric_limits<int>::min()})
        expectInvalidNaming([&] { SwUcb policy(config(4), window); },
                            window);
    SwUcb smallest(config(4), 4);
    EXPECT_EQ(smallest.window(), 4);
}

// ---------------------------------------------------------------------
// Reward normalization (Section 4.3, first modification).
// ---------------------------------------------------------------------

TEST(Normalization, RewardsDividedByRoundRobinAverage)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = true;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(2.0);
    policy.selectArm();
    policy.observeReward(4.0);
    // r_avg = 3.0 -> stored rewards become 2/3 and 4/3.
    EXPECT_NEAR(policy.armRewards()[0], 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(policy.armRewards()[1], 4.0 / 3.0, 1e-12);
}

TEST(Normalization, DisabledKeepsRawRewards)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(2.0);
    policy.selectArm();
    policy.observeReward(4.0);
    EXPECT_DOUBLE_EQ(policy.armRewards()[0], 2.0);
    EXPECT_DOUBLE_EQ(policy.armRewards()[1], 4.0);
}

TEST(Normalization, MakesExplorationScaleInvariant)
{
    // The same reward sequence at 10x the scale must produce the same
    // arm choices when normalization is on.
    for (double scale : {1.0, 10.0}) {
        (void)scale;
    }
    MabConfig cfg = config(3);
    cfg.normalizeRewards = true;
    Ducb low(cfg), high(cfg);
    BernoulliEnv env_seq({0.3, 0.9, 0.5}, 11);
    std::vector<double> rewards;
    for (int i = 0; i < 200; ++i)
        rewards.push_back(env_seq.pull(i % 3) + 0.1);

    std::vector<ArmId> low_choices, high_choices;
    size_t idx = 0;
    for (int i = 0; i < 100; ++i) {
        low_choices.push_back(low.selectArm());
        low.observeReward(rewards[idx]);
        high_choices.push_back(high.selectArm());
        high.observeReward(10.0 * rewards[idx]);
        ++idx;
    }
    EXPECT_EQ(low_choices, high_choices);
}

TEST(Normalization, ZeroAverageFallsBackGracefully)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = true;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(0.0);
    policy.selectArm();
    policy.observeReward(0.0);
    // Must not divide by zero; subsequent updates still work.
    policy.selectArm();
    policy.observeReward(1.0);
    EXPECT_GE(policy.armRewards()[policy.greedyArm()], 0.0);
}

// ---------------------------------------------------------------------
// Round-robin restart (Section 4.3, second modification).
// ---------------------------------------------------------------------

TEST(RrRestart, RestartSweepsArmsInOrderWithoutReset)
{
    MabConfig cfg = config(3);
    cfg.rrRestartProb = 1.0; // restart on every main-loop selection
    cfg.normalizeRewards = false;
    Ducb policy(cfg);
    for (int i = 0; i < 3; ++i) {
        policy.selectArm();
        policy.observeReward(0.5);
    }
    // Main loop: with probability 1 the policy re-enters round robin.
    for (ArmId expect : {0, 1, 2}) {
        EXPECT_EQ(policy.selectArm(), expect);
        policy.observeReward(0.5);
    }
    // Counts were kept (not reset to the initial-phase values).
    EXPECT_GT(policy.totalCount(), 3.0);
}

TEST(RrRestart, ZeroProbabilityNeverRestarts)
{
    MabConfig cfg = config(3);
    cfg.rrRestartProb = 0.0;
    Ucb policy(cfg);
    BernoulliEnv env({0.1, 0.9, 0.1}, 3);
    for (int i = 0; i < 200; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
        if (i >= 3)
            EXPECT_FALSE(policy.inRoundRobin());
    }
}

// ---------------------------------------------------------------------
// epsilon-Greedy specifics.
// ---------------------------------------------------------------------

TEST(EpsilonGreedy, ZeroEpsilonIsPureGreedy)
{
    MabConfig cfg = config(3);
    cfg.epsilon = 0.0;
    cfg.normalizeRewards = false;
    EpsilonGreedy policy(cfg);
    policy.selectArm();
    policy.observeReward(0.2);
    policy.selectArm();
    policy.observeReward(0.9);
    policy.selectArm();
    policy.observeReward(0.1);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(policy.selectArm(), 1);
        policy.observeReward(0.9);
    }
}

TEST(EpsilonGreedy, FullEpsilonExploresAllArms)
{
    MabConfig cfg = config(4);
    cfg.epsilon = 1.0;
    EpsilonGreedy policy(cfg);
    std::vector<int> seen(4, 0);
    for (int i = 0; i < 400; ++i) {
        const ArmId a = policy.selectArm();
        ++seen[a];
        policy.observeReward(0.5);
    }
    for (int count : seen)
        EXPECT_GT(count, 40);
}

TEST(EpsilonGreedy, NonDecayingExplorationKeepsSamplingBadArms)
{
    MabConfig cfg = config(2);
    cfg.epsilon = 0.2;
    cfg.normalizeRewards = false;
    EpsilonGreedy policy(cfg);
    BernoulliEnv env({0.9, 0.05}, 5);
    int bad_picks_late = 0;
    for (int i = 0; i < 2000; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
        if (i > 1000 && a == 1)
            ++bad_picks_late;
    }
    // ~10% of late selections should still hit the bad arm.
    EXPECT_GT(bad_picks_late, 40);
}

// ---------------------------------------------------------------------
// UCB specifics.
// ---------------------------------------------------------------------

TEST(Ucb, PotentialAddsExplorationBonus)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(0.5);
    policy.selectArm();
    policy.observeReward(0.5);
    EXPECT_GT(policy.potential(0), policy.armRewards()[0]);
}

TEST(Ucb, UndersampledArmGetsLargerBonus)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    Ucb policy(cfg);
    BernoulliEnv env({0.5, 0.5}, 9);
    for (int i = 0; i < 100; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
    }
    const ArmId less = policy.armCounts()[0] < policy.armCounts()[1]
        ? 0 : 1;
    const double bonus_less =
        policy.potential(less) - policy.armRewards()[less];
    const double bonus_more =
        policy.potential(1 - less) - policy.armRewards()[1 - less];
    EXPECT_GE(bonus_less, bonus_more);
}

TEST(Ucb, ExplorationDecaysOverTime)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    cfg.c = 0.5;
    Ucb policy(cfg);
    // Equal rewards: selections should even out; bonus shrinks as
    // ln(n)/n -> 0.
    double early_bonus = 0.0, late_bonus = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(0.5);
        if (i == 10)
            early_bonus = policy.potential(a) - policy.armRewards()[a];
        if (i == 999)
            late_bonus = policy.potential(a) - policy.armRewards()[a];
    }
    EXPECT_LT(late_bonus, early_bonus);
}

// ---------------------------------------------------------------------
// DUCB specifics.
// ---------------------------------------------------------------------

TEST(Ducb, DiscountKeepsCountsBounded)
{
    MabConfig cfg = config(2);
    cfg.gamma = 0.9;
    Ducb policy(cfg);
    for (int i = 0; i < 1000; ++i) {
        policy.selectArm();
        policy.observeReward(0.5);
    }
    // n_total saturates at 1/(1-gamma) = 10.
    EXPECT_LE(policy.totalCount(), 10.0 + 1e-9);
    EXPECT_GT(policy.totalCount(), 9.0);
}

TEST(Ducb, GammaOneDegeneratesToUcb)
{
    MabConfig cfg = config(3);
    cfg.gamma = 1.0;
    cfg.normalizeRewards = false;
    Ducb ducb(cfg);
    Ucb ucb(cfg);
    BernoulliEnv e1({0.3, 0.7, 0.5}, 13), e2({0.3, 0.7, 0.5}, 13);
    for (int i = 0; i < 300; ++i) {
        const ArmId a = ducb.selectArm();
        const ArmId b = ucb.selectArm();
        EXPECT_EQ(a, b);
        ducb.observeReward(e1.pull(a));
        ucb.observeReward(e2.pull(b));
    }
}

TEST(Ducb, AdaptsToNonStationaryEnvironment)
{
    MabConfig cfg = config(2);
    cfg.gamma = 0.95;
    cfg.c = 0.3;
    cfg.normalizeRewards = false;
    Ducb policy(cfg);
    BernoulliEnv phase1({0.9, 0.1}, 17);
    BernoulliEnv phase2({0.1, 0.9}, 18);
    for (int i = 0; i < 300; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(phase1.pull(a));
    }
    EXPECT_EQ(policy.greedyArm(), 0);
    int arm1_late = 0;
    for (int i = 0; i < 600; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(phase2.pull(a));
        if (i > 400 && a == 1)
            ++arm1_late;
    }
    // After the phase change, DUCB must have moved to arm 1.
    EXPECT_GT(arm1_late, 150);
    EXPECT_EQ(policy.greedyArm(), 1);
}

TEST(Ducb, UcbFailsWherDucbAdapts)
{
    // Same scenario as above: plain UCB's counts grow unboundedly, so
    // after a long first phase it explores the alternative arm far
    // less than DUCB does.
    MabConfig cfg = config(2);
    cfg.gamma = 0.95;
    cfg.c = 0.3;
    cfg.normalizeRewards = false;
    Ducb ducb(cfg);
    MabConfig ucb_cfg = cfg;
    ucb_cfg.gamma = 1.0;
    Ducb ucb(ucb_cfg);

    BernoulliEnv a1({0.9, 0.1}, 21), a2({0.9, 0.1}, 21);
    for (int i = 0; i < 2000; ++i) {
        ducb.observeReward(a1.pull(ducb.selectArm()));
        ucb.observeReward(a2.pull(ucb.selectArm()));
    }
    BernoulliEnv b1({0.1, 0.9}, 22), b2({0.1, 0.9}, 22);
    int ducb_arm1 = 0, ucb_arm1 = 0;
    for (int i = 0; i < 400; ++i) {
        const ArmId da = ducb.selectArm();
        ducb.observeReward(b1.pull(da));
        ducb_arm1 += da == 1;
        const ArmId ua = ucb.selectArm();
        ucb.observeReward(b2.pull(ua));
        ucb_arm1 += ua == 1;
    }
    EXPECT_GT(ducb_arm1, ucb_arm1);
}

// ---------------------------------------------------------------------
// Score kernel: the paired-lane scores, the cached ln(n_total) and the
// paired DUCB discount are bit-identical to the scalar forms.
// ---------------------------------------------------------------------

/** Writes the score inputs r_i, n_i and n_total directly. */
template <class Policy>
class ScoreProbe : public Policy
{
  public:
    using Policy::Policy;

    void
    setState(const std::vector<double> &r, const std::vector<double> &n,
             double total)
    {
        this->r_ = r;
        this->n_ = n;
        this->nTotal_ = total;
    }
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const std::vector<double> kEdgeCounts = {0.0,  5e-324, 1e-12, 1e-9,
                                         1.0,  1e300,  kNaN};
const std::vector<double> kEdgeRewards = {0.0,   -0.0, 1e308, -1e308, kInf,
                                          -kInf, kNaN, 0.5,   0.5};
/** Repeated and alternated, so the ln(n_total) cache hits and misses. */
const std::vector<double> kEdgeTotals = {
    0.0, 0.0, 0.5, 1.0, 1.0, std::numbers::e, 0.5,
    1e6, 1e6, kNaN, kNaN, std::numbers::e, 1.0, 0.0};

/** 1-17 arms cover every lane-pair/odd-tail split; 64 a wide table. */
std::vector<int>
kernelArmCounts()
{
    std::vector<int> out;
    for (int arms = 1; arms <= 17; ++arms)
        out.push_back(arms);
    out.push_back(64);
    return out;
}

void
finishRoundRobin(MabPolicy &policy)
{
    while (policy.inRoundRobin()) {
        policy.selectArm();
        policy.observeReward(0.5);
    }
}

/** Edge-value table @p t for @p arms arms. Arms come in runs of
 *  @p group identical (r, n) pairs, so exact ties fall inside a lane
 *  pair (group 2) and across lane pairs (group 3). */
void
edgeState(int arms, size_t t, int group, std::vector<double> &r,
          std::vector<double> &n)
{
    r.resize(arms);
    n.resize(arms);
    for (int i = 0; i < arms; ++i) {
        const size_t k = static_cast<size_t>(i / group);
        r[i] = kEdgeRewards[(k + t) % kEdgeRewards.size()];
        n[i] = kEdgeCounts[(3 * k + t) % kEdgeCounts.size()];
    }
}

/** selectionScores() against potential(), and selectArm() against a
 *  scalar first-max scan over potential(), on every edge table.
 *  @p extra follows the config in the policy's constructor. */
template <class Policy, class... Extra>
void
checkScoreKernel(Extra... extra)
{
    std::vector<double> r, n;
    for (int arms : kernelArmCounts()) {
        ScoreProbe<Policy> policy(config(arms), extra...);
        finishRoundRobin(policy);
        for (int group : {1, 2, 3}) {
            for (size_t t = 0; t < 3 * kEdgeTotals.size(); ++t) {
                edgeState(arms, t, group, r, n);
                const double total = kEdgeTotals[t % kEdgeTotals.size()];
                policy.setState(r, n, total);
                std::vector<double> pot(arms);
                for (ArmId i = 0; i < arms; ++i)
                    pot[i] = policy.potential(i);

                const std::vector<double> scores = policy.selectionScores();
                ASSERT_EQ(scores.size(), static_cast<size_t>(arms));
                for (ArmId i = 0; i < arms; ++i) {
                    ASSERT_EQ(bits(scores[i]), bits(pot[i]))
                        << policy.name() << " arms=" << arms
                        << " t=" << t << " group=" << group
                        << " arm=" << i << " r=" << r[i]
                        << " n=" << n[i] << " total=" << total;
                }

                ArmId best = 0;
                for (ArmId i = 1; i < arms; ++i) {
                    if (pot[i] > pot[best])
                        best = i;
                }
                ASSERT_EQ(policy.selectArm(), best)
                    << policy.name() << " arms=" << arms << " t=" << t
                    << " group=" << group;
                policy.observeReward(0.5);
            }
        }
    }
}

TEST(ScoreKernel, UcbScoresAndArgmaxMatchScalarPotential)
{
    checkScoreKernel<Ucb>();
}

TEST(ScoreKernel, DucbScoresAndArgmaxMatchScalarPotential)
{
    checkScoreKernel<Ducb>();
}

TEST(ScoreKernel, SwUcbScoresAndArgmaxMatchScalarPotential)
{
    checkScoreKernel<SwUcb>(64); // the widest table's arm count
}

TEST(ScoreKernel, DucbDiscountMatchesScalarRecurrence)
{
    std::vector<double> r, n;
    for (int arms : kernelArmCounts()) {
        for (double gamma : {0.5, 0.9, 0.99, 0.999, 1.0}) {
            MabConfig cfg = config(arms);
            cfg.gamma = gamma;
            ScoreProbe<Ducb> policy(cfg);
            finishRoundRobin(policy);
            edgeState(arms, static_cast<size_t>(arms), 1, r, n);
            const double start_total = static_cast<double>(arms);
            policy.setState(r, n, start_total);

            std::vector<double> expect = n;
            double expect_total = start_total;
            Rng rng(static_cast<uint64_t>(arms));
            for (int k = 0; k < 100; ++k) {
                const ArmId a = policy.selectArm();
                for (double &x : expect)
                    x = x * gamma;
                expect[a] += 1.0;
                expect_total = expect_total * gamma + 1.0;
                policy.observeReward(rng.uniform());
                for (int i = 0; i < arms; ++i) {
                    ASSERT_EQ(bits(policy.armCounts()[i]), bits(expect[i]))
                        << "arms=" << arms << " gamma=" << gamma
                        << " step=" << k << " arm=" << i;
                }
                ASSERT_EQ(bits(policy.totalCount()), bits(expect_total));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Heuristics.
// ---------------------------------------------------------------------

TEST(Single, CommitsToRoundRobinWinnerForever)
{
    MabConfig cfg = config(3);
    cfg.normalizeRewards = false;
    SingleHeuristic policy(cfg);
    policy.selectArm();
    policy.observeReward(0.3);
    policy.selectArm();
    policy.observeReward(0.8);
    policy.selectArm();
    policy.observeReward(0.5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(policy.selectArm(), 1);
        // Even terrible rewards do not change the choice.
        policy.observeReward(0.0);
    }
}

TEST(Single, OneNoisySampleCanLockInABadArm)
{
    // The failure mode Table 8 highlights (worst min column).
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    SingleHeuristic policy(cfg);
    policy.selectArm();
    policy.observeReward(0.9); // lucky draw from the bad arm
    policy.selectArm();
    policy.observeReward(0.5); // unlucky draw from the good arm
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(policy.selectArm(), 0);
        policy.observeReward(0.1);
    }
}

TEST(Periodic, AlternatesExploitationAndSweeps)
{
    MabConfig cfg = config(3);
    cfg.normalizeRewards = false;
    PeriodicConfig pcfg;
    pcfg.exploitSteps = 5;
    pcfg.movingAvgWindow = 2;
    PeriodicHeuristic policy(cfg, pcfg);
    for (int i = 0; i < 3; ++i) {
        policy.selectArm();
        policy.observeReward(i == 1 ? 0.9 : 0.2);
    }
    // 5 exploitation steps of the winner...
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(policy.selectArm(), 1);
        policy.observeReward(0.9);
    }
    // ...then a sweep over all arms in order.
    for (ArmId expect : {0, 1, 2}) {
        EXPECT_EQ(policy.selectArm(), expect);
        policy.observeReward(0.5);
    }
}

TEST(Periodic, SweepCanSwitchWinner)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    PeriodicConfig pcfg;
    pcfg.exploitSteps = 3;
    pcfg.movingAvgWindow = 1;
    PeriodicHeuristic policy(cfg, pcfg);
    policy.selectArm();
    policy.observeReward(0.8);
    policy.selectArm();
    policy.observeReward(0.2);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(policy.selectArm(), 0);
        policy.observeReward(0.8);
    }
    // During the sweep, arm 1 now pays much better.
    policy.selectArm();
    policy.observeReward(0.1); // arm 0 degraded
    policy.selectArm();
    policy.observeReward(0.9); // arm 1 improved
    EXPECT_EQ(policy.selectArm(), 1);
}

TEST(FixedArm, NeverExploresAndSkipsRoundRobin)
{
    FixedArmPolicy policy(config(5), 3);
    EXPECT_FALSE(policy.inRoundRobin());
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(policy.selectArm(), 3);
        policy.observeReward(0.0);
    }
}

TEST(Factory, MakesEveryAlgorithm)
{
    for (MabAlgorithm algo :
         {MabAlgorithm::EpsilonGreedy, MabAlgorithm::Ucb,
          MabAlgorithm::Ducb, MabAlgorithm::Single,
          MabAlgorithm::Periodic}) {
        auto policy = makePolicy(algo, config(4));
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), toString(algo));
        EXPECT_EQ(policy->numArms(), 4);
    }
}

// ---------------------------------------------------------------------
// Property-style sweeps: every algorithm must find the best arm of a
// stationary bandit with a clear gap.
// ---------------------------------------------------------------------

class ConvergenceTest
    : public ::testing::TestWithParam<std::tuple<MabAlgorithm, int>>
{
};

TEST_P(ConvergenceTest, FindsBestArmOfStationaryBandit)
{
    const auto [algo, arms] = GetParam();
    MabConfig cfg = config(arms);
    cfg.normalizeRewards = false;
    auto policy = makePolicy(algo, cfg);

    std::vector<double> means(arms);
    for (int i = 0; i < arms; ++i)
        means[i] = 0.2;
    means[arms / 2] = 0.9;
    BernoulliEnv env(means, 12345);

    int best_picks = 0;
    const int total = 600 * arms;
    for (int i = 0; i < total; ++i) {
        const ArmId a = policy->selectArm();
        policy->observeReward(env.pull(a));
        if (i > total / 2 && a == env.bestArm())
            ++best_picks;
    }
    // In the second half, the best arm must dominate selections.
    EXPECT_GT(best_picks, total / 4)
        << toString(algo) << " with " << arms << " arms";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ConvergenceTest,
    ::testing::Combine(
        ::testing::Values(MabAlgorithm::EpsilonGreedy,
                          MabAlgorithm::Ucb, MabAlgorithm::Ducb,
                          MabAlgorithm::Periodic),
        ::testing::Values(2, 6, 11)));

class InvariantTest
    : public ::testing::TestWithParam<std::tuple<MabAlgorithm, int>>
{
};

TEST_P(InvariantTest, CountsStayConsistent)
{
    const auto [algo, arms] = GetParam();
    auto policy = makePolicy(algo, config(arms));
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const ArmId a = policy->selectArm();
        ASSERT_GE(a, 0);
        ASSERT_LT(a, arms);
        policy->observeReward(rng.uniform());
        double sum = 0.0;
        for (double n : policy->armCounts()) {
            ASSERT_GE(n, 0.0);
            sum += n;
        }
        // n_total tracks the sum of per-arm counts.
        ASSERT_NEAR(sum, policy->totalCount(), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, InvariantTest,
    ::testing::Combine(
        ::testing::Values(MabAlgorithm::EpsilonGreedy,
                          MabAlgorithm::Ucb, MabAlgorithm::Ducb,
                          MabAlgorithm::Single),
        ::testing::Values(2, 5, 11, 32)));

/** A reward before the first selectArm() (or after reset()) has no arm
 *  to credit: it throws and leaves the policy untouched. Unguarded, a
 *  Release build writes r_[-1] and n_[-1], and a 3-arm DUCB given one
 *  reward first reports every arm count 0 and totalCount() 1. */
TEST(MabTemplate, RewardBeforeSelectThrowsAndChangesNothing)
{
    MabConfig cfg;
    cfg.numArms = 3;
    Ducb policy(cfg);
    EXPECT_THROW(policy.observeReward(0.5), std::logic_error);
    EXPECT_EQ(policy.armCounts(), std::vector<double>(3, 0.0));
    EXPECT_EQ(policy.totalCount(), 0.0);
    EXPECT_EQ(policy.steps(), 0u);

    policy.selectArm();
    policy.observeReward(0.5);
    policy.reset();
    EXPECT_THROW(policy.observeReward(0.5), std::logic_error);
    EXPECT_EQ(policy.totalCount(), 0.0);
}

/** Every stored value of @p p, bit for bit, and for a hierarchical
 *  bandit those of its learners and meta bandit too. */
std::vector<uint64_t>
policyState(const MabPolicy &p)
{
    std::vector<uint64_t> s = {bits(p.totalCount()), p.steps(),
                               static_cast<uint64_t>(p.currentArm())};
    for (double r : p.armRewards())
        s.push_back(bits(r));
    for (double n : p.armCounts())
        s.push_back(bits(n));
    if (const auto *h = dynamic_cast<const HierarchicalBandit *>(&p)) {
        s.push_back(static_cast<uint64_t>(h->activeLearner()));
        for (int i = 0; i < h->numLearners(); ++i) {
            const std::vector<uint64_t> l = policyState(h->learner(i));
            s.insert(s.end(), l.begin(), l.end());
        }
        const std::vector<uint64_t> m = policyState(h->metaBandit());
        s.insert(s.end(), m.begin(), m.end());
    }
    return s;
}

/**
 * Feed @p policy and its twin arm a's reward @p rewards[a] for @p steps
 * steps. At step @p badStep @p policy is first offered @p bad, which
 * must throw std::invalid_argument naming the value and move no
 * state; the twin never sees it. Both must end bit-identical.
 */
void
expectNonFiniteRewardRejected(MabPolicy &policy, MabPolicy &twin,
                              const std::vector<double> &rewards,
                              int steps, int badStep, double bad)
{
    for (int step = 1; step <= steps; ++step) {
        const ArmId a = policy.selectArm();
        ASSERT_EQ(twin.selectArm(), a) << "step " << step;
        if (step == badStep) {
            const std::vector<uint64_t> before = policyState(policy);
            try {
                policy.observeReward(bad);
                ADD_FAILURE() << "no exception for " << bad;
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(std::to_string(bad)),
                          std::string::npos)
                    << e.what();
            }
            ASSERT_EQ(policyState(policy), before) << "step " << step;
        }
        policy.observeReward(rewards[a]);
        twin.observeReward(rewards[a]);
        ASSERT_EQ(policyState(policy), policyState(twin))
            << "step " << step;
    }
}

/** ROADMAP item 3's repro: a 3-arm UCB without normalization, arm
 *  rewards 0.5, 1 and 1, fed NaN at step 5, used to keep NaN as arm
 *  2's estimate for good: armRewards() read [0.5, 1, nan] at step 10.
 *  The NaN now throws before any state moves, and once given the
 *  finite reward the policy equals a twin that never saw the NaN. */
TEST(MabTemplate, NanRewardThrowsAndChangesNothing)
{
    MabConfig cfg;
    cfg.numArms = 3;
    cfg.normalizeRewards = false;
    Ucb policy(cfg), twin(cfg);
    expectNonFiniteRewardRejected(policy, twin, {0.5, 1.0, 1.0}, 10, 5,
                                  std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(policy.armRewards(), (std::vector<double>{0.5, 1.0, 1.0}));
}

/** ±Inf too, in the discounted, windowed and hierarchical policies;
 *  the hierarchical bandit's learner throws before its tenure sum
 *  moves, so the meta bandit's reward is untouched across a tenure
 *  boundary (metaStepLen 16). */
TEST(MabTemplate, InfiniteRewardThrowsAndChangesNothing)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (MabAlgorithm algo : {MabAlgorithm::Ducb, MabAlgorithm::SwUcb,
                              MabAlgorithm::Hierarchical}) {
        for (double bad : {inf, -inf}) {
            SCOPED_TRACE(toString(algo) + " " + std::to_string(bad));
            auto policy = makePolicy(algo, config(3));
            auto twin = makePolicy(algo, config(3));
            expectNonFiniteRewardRejected(*policy, *twin,
                                          {0.5, 1.0, 0.25}, 40, 7, bad);
        }
    }
}

TEST(FixedArmPolicy, ArmOutsideTheTableThrows)
{
    MabConfig cfg;
    cfg.numArms = 4;
    EXPECT_THROW(FixedArmPolicy(cfg, -1), std::invalid_argument);
    EXPECT_THROW(FixedArmPolicy(cfg, 4), std::invalid_argument);
    FixedArmPolicy last(cfg, 3);
    EXPECT_EQ(last.selectArm(), 3);
}

} // namespace
} // namespace mab
