#ifndef MAB_CORE_MAB_POLICY_H
#define MAB_CORE_MAB_POLICY_H

#include <string>
#include <vector>

#include "core/types.h"
#include "sim/rng.h"

namespace mab {

/**
 * Configuration shared by all Multi-Armed Bandit policies.
 *
 * The fields map one-to-one onto the hyperparameters of Section 4 and
 * Table 6 of the paper. Fields that do not apply to a given algorithm
 * (e.g. @c epsilon for UCB) are simply ignored by that algorithm.
 */
struct MabConfig
{
    /** Number of arms M available to the agent. */
    int numArms = 2;

    /** Exploration probability for epsilon-Greedy. */
    double epsilon = 0.1;

    /** Exploration constant c for UCB / DUCB (Table 3). */
    double c = 0.04;

    /** Forgetting factor gamma for DUCB; must be in (0, 1]. */
    double gamma = 0.999;

    /**
     * Reward normalization (Section 4.3, first modification). When
     * enabled, the average reward across arms at the end of the initial
     * round-robin phase (r_avg) divides every stored and future reward,
     * equalizing the exploration pressure between low-IPC and high-IPC
     * workloads.
     */
    bool normalizeRewards = true;

    /**
     * Probability of independently restarting the initial round-robin
     * phase during the main loop (Section 4.3, second modification;
     * used in multi-core runs to escape arms mis-judged due to
     * inter-core interference). The already-collected r_i and n_i are
     * kept. Zero disables restarts.
     */
    double rrRestartProb = 0.0;

    /** Seed for any stochastic decision made by the policy. */
    uint64_t seed = 1;
};

/**
 * Base class for Multi-Armed Bandit policies, implementing the general
 * MAB template of Algorithm 1 in the paper.
 *
 * The lifecycle alternates selectArm() / observeReward() calls:
 *
 *   ArmId a = policy.selectArm();   // nextArm() + updSels(a)
 *   ... run one bandit step with action a ...
 *   policy.observeReward(r_step);   // r_a <- updRew(r_step)
 *
 * The base class runs the initial round-robin phase (each arm tried
 * once, r_arm seeded with the observed reward and n_arm set to 1),
 * applies the reward normalization of Section 4.3 at the end of that
 * phase, and handles probabilistic round-robin restarts. Subclasses
 * implement the three algorithm-specific functions of Table 3:
 * nextArm(), updSels() and updRew().
 */
class MabPolicy
{
  public:
    /** @throws std::invalid_argument if config.numArms < 1. */
    explicit MabPolicy(const MabConfig &config);
    virtual ~MabPolicy() = default;

    /** Restore the policy to its just-constructed state. */
    virtual void reset();

    /** Pick the arm for the next bandit step. */
    virtual ArmId selectArm();

    /**
     * Deliver the reward observed at the end of the bandit step.
     * @throws std::logic_error before the first selectArm() (and after
     *         reset()), and std::invalid_argument for a NaN or
     *         infinite @p r_step; either leaves the policy untouched.
     */
    virtual void observeReward(double r_step);

    /** Human-readable algorithm name ("DUCB", "UCB", ...). */
    virtual std::string name() const = 0;

    int numArms() const { return config_.numArms; }

    /** True while the initial (or a restarted) round-robin phase runs. */
    bool inRoundRobin() const { return rrPos_ < config_.numArms; }

    /** Arm chosen by the most recent selectArm() call. */
    ArmId currentArm() const { return currentArm_; }

    /** Per-arm average rewards r_i (normalized if enabled). */
    const std::vector<double> &armRewards() const { return r_; }

    /** Per-arm selection counts n_i (discounted under DUCB). */
    const std::vector<double> &armCounts() const { return n_; }

    /** Total number of selections n_total. */
    double totalCount() const { return nTotal_; }

    /** Number of completed select/observe interactions. */
    uint64_t steps() const { return steps_; }

    /**
     * The arm the policy currently believes is best (highest r_i);
     * the greedy choice with no exploration bonus.
     */
    ArmId greedyArm() const;

    /**
     * Per-arm selection scores as the algorithm sees them — the value
     * nextArm() maximizes. The base implementation returns the value
     * estimates r_i (epsilon-Greedy, Thompson posterior means); UCB
     * variants override it with r_i plus the exploration bonus. Used
     * by the decision audit log (sim/tracing.h).
     */
    virtual std::vector<double> selectionScores() const { return r_; }

    /** Configuration the policy was built with (introspection). */
    const MabConfig &config() const { return config_; }

    /**
     * The r_avg divisor fixed at the end of the initial round-robin
     * phase (1.0 before that, or when normalization is disabled).
     * Exposed for the differential-fuzzing shadow (fuzz/bandit.cc).
     */
    double rewardNormalizer() const { return rAvg_; }

  protected:
    /** Table 3 nextArm(): choose the arm for the next main-loop step. */
    virtual ArmId nextArm() = 0;

    /** Table 3 updSels(): update selection counts for @p arm. */
    virtual void updSels(ArmId arm);

    /** Table 3 updRew(): fold @p r_step into r for @p arm. */
    virtual void updRew(ArmId arm, double r_step);

    /** Hook invoked when the initial round-robin phase completes. */
    virtual void onRoundRobinDone() {}

    /**
     * Skip the initial round-robin phase entirely (used by the fixed
     * arm policy, which never explores). Disables normalization since
     * no r_avg can be estimated.
     */
    void disableInitialRoundRobin();

    MabConfig config_;
    std::vector<double> r_;
    std::vector<double> n_;
    double nTotal_ = 0.0;
    Rng rng_;

  private:
    void finishInitialRoundRobin();

    ArmId currentArm_ = kNoArm;
    int rrPos_ = 0;
    bool initialRrDone_ = false;
    bool skipInitialRr_ = false;
    double rAvg_ = 1.0;
    uint64_t steps_ = 0;
};

} // namespace mab

#endif // MAB_CORE_MAB_POLICY_H
