#ifndef MAB_CORE_THOMPSON_H
#define MAB_CORE_THOMPSON_H

#include <vector>

#include "core/mab_policy.h"

namespace mab {

/** Hyperparameters of the Thompson-sampling policy. */
struct ThompsonConfig
{
    /** Prior observation weight (pseudo-counts). */
    double priorWeight = 1.0;

    /** Assumed reward noise standard deviation. */
    double noiseStd = 0.2;

    /**
     * Per-step discount on the effective sample counts (0, 1]; values
     * below 1 give a non-stationary variant analogous to DUCB.
     */
    double decay = 1.0;
};

/**
 * Gaussian Thompson sampling (Thompson 1933, cited by the paper as
 * the root of the MAB family).
 *
 * Each arm keeps a Gaussian posterior over its mean reward; every
 * step the policy samples from each posterior and plays the argmax.
 * Exploration emerges from posterior width instead of an explicit
 * bonus — a natural fit for the same temporal-homogeneity regime,
 * though the hardware cost of a Gaussian sampler is why the paper's
 * agent prefers DUCB. The decayed variant tracks phase changes.
 */
class ThompsonSampling : public MabPolicy
{
  public:
    ThompsonSampling(const MabConfig &config,
                     const ThompsonConfig &tcfg = {});

    std::string
    name() const override
    {
        return tcfg_.decay < 1.0 ? "dThompson" : "Thompson";
    }

    /** Also drops the cached Marsaglia spare. */
    void reset() override;

    /** Posterior mean / effective samples of @p arm (introspection). */
    double posteriorMean(ArmId arm) const { return r_[arm]; }
    double effectiveCount(ArmId arm) const { return n_[arm]; }

  protected:
    ArmId nextArm() override;
    void updSels(ArmId arm) override;

  private:
    double gaussian();

    ThompsonConfig tcfg_;
    bool cachedSpare_ = false;
    double spare_ = 0.0;
};

} // namespace mab

#endif // MAB_CORE_THOMPSON_H
