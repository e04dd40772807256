#ifndef MAB_CORE_HIERARCHICAL_H
#define MAB_CORE_HIERARCHICAL_H

#include <memory>
#include <vector>

#include "core/ducb.h"

namespace mab {

/** Configuration of the two-level bandit. */
struct HierarchicalConfig
{
    /**
     * Hyperparameter variants for the low-level DUCB learners; each
     * entry's (gamma, c) overrides the base config. Defaults cover a
     * fast-forgetting explorer, the paper's tuned point, and a
     * near-stationary exploiter.
     */
    std::vector<std::pair<double, double>> learnerParams = {
        {0.95, 0.3},
        {0.99, 0.1},
        {0.9995, 0.04},
    };

    /** Low-level bandit steps per meta-bandit step (tenure). */
    uint64_t metaStepLen = 16;

    /** Meta-bandit hyperparameters. */
    double metaGamma = 0.99;
    double metaC = 0.15;
};

/**
 * Hierarchical Micro-Armed Bandit (the Section 9 extension): several
 * low-level DUCB learners with different hyperparameter values are
 * concurrently provisioned, and a high-level DUCB selects which
 * learner drives the arm choice.
 *
 * The active learner owns selection and learning for a tenure of
 * metaStepLen steps; at tenure end the meta bandit is rewarded with
 * the tenure's mean step reward and picks the next learner. Storage
 * grows to (numLearners + 1) nTable/rTable pairs — the "slightly
 * higher storage for more performance" tradeoff the paper sketches.
 */
class HierarchicalBandit : public MabPolicy
{
  public:
    /** @throws std::invalid_argument for an empty learnerParams. */
    HierarchicalBandit(const MabConfig &base,
                       const HierarchicalConfig &hcfg = {});

    void reset() override;
    ArmId selectArm() override;
    void observeReward(double r_step) override;

    std::string name() const override { return "Hierarchical"; }

    int numLearners() const
    {
        return static_cast<int>(learners_.size());
    }

    /** Index of the learner currently in control. */
    int activeLearner() const { return active_; }

    const Ducb &learner(int i) const { return *learners_[i]; }
    const Ducb &metaBandit() const { return *meta_; }

    /** Total nTable/rTable storage across all levels, in bytes. */
    uint64_t storageBytes() const;

  protected:
    ArmId
    nextArm() override
    {
        return 0; // never reached: selectArm() is fully overridden
    }

  private:
    HierarchicalConfig hcfg_;
    std::vector<std::unique_ptr<Ducb>> learners_;
    std::unique_ptr<Ducb> meta_;
    int active_ = 0;
    uint64_t stepsInTenure_ = 0;
    double tenureReward_ = 0.0;
};

} // namespace mab

#endif // MAB_CORE_HIERARCHICAL_H
