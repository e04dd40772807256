#ifndef MAB_CORE_HEURISTICS_H
#define MAB_CORE_HEURISTICS_H

#include <deque>
#include <vector>

#include "core/mab_policy.h"

namespace mab {

/**
 * The "Single" exploration heuristic of Section 7.1: explore every arm
 * once during the initial round-robin phase, then commit forever to the
 * arm that performed best in that phase. Its one-time exploration can
 * lock onto a very bad arm, which is why it shows the lowest minimum
 * performance in Tables 8 and 9.
 */
class SingleHeuristic : public MabPolicy
{
  public:
    explicit SingleHeuristic(const MabConfig &config) : MabPolicy(config) {}

    std::string name() const override { return "Single"; }

  protected:
    ArmId nextArm() override { return chosen_; }

    void
    onRoundRobinDone() override
    {
        chosen_ = greedyArm();
    }

  private:
    ArmId chosen_ = 0;
};

/** Extra knobs for the Periodic heuristic. */
struct PeriodicConfig
{
    /** Bandit steps spent exploiting between exploration sweeps. */
    int exploitSteps = 64;

    /** Window length of the per-arm moving-average reward buffer. */
    int movingAvgWindow = 4;
};

/**
 * The "Periodic" exploration heuristic of Section 7.1, inspired by the
 * IBM POWER7 adaptive prefetcher: alternate between periodic sweeps in
 * which every arm is tried once and exploitation phases that run the
 * best arm. Arm quality is judged by a moving average over the last
 * few observations so that a single noisy sample does not dominate.
 */
class PeriodicHeuristic : public MabPolicy
{
  public:
    PeriodicHeuristic(const MabConfig &config, const PeriodicConfig &pcfg)
        : MabPolicy(config), pcfg_(pcfg)
    {
        buffers_.resize(config.numArms);
    }

    std::string name() const override { return "Periodic"; }

  protected:
    ArmId nextArm() override;
    void updRew(ArmId arm, double r_step) override;
    void onRoundRobinDone() override;

  private:
    void pushSample(ArmId arm, double r);

    PeriodicConfig pcfg_;
    std::vector<std::deque<double>> buffers_;
    ArmId best_ = 0;
    int sweepPos_ = -1;         // >= 0 while an exploration sweep runs
    int exploitRemaining_ = 0;
};

/**
 * A degenerate policy that always plays one fixed arm. Used to drive
 * the "Best Static" oracle of the evaluation (run every arm statically,
 * keep the best per application) and as the non-adaptive control in
 * tests.
 */
class FixedArmPolicy : public MabPolicy
{
  public:
    /** @throws std::invalid_argument unless 0 <= arm < numArms. */
    FixedArmPolicy(const MabConfig &config, ArmId arm);

    std::string name() const override;

  protected:
    ArmId nextArm() override { return arm_; }

  private:
    ArmId arm_;
};

} // namespace mab

#endif // MAB_CORE_HEURISTICS_H
