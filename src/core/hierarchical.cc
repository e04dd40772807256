#include "core/hierarchical.h"

#include <stdexcept>

namespace mab {

HierarchicalBandit::HierarchicalBandit(const MabConfig &base,
                                       const HierarchicalConfig &hcfg)
    : MabPolicy(base), hcfg_(hcfg)
{
    if (hcfg_.learnerParams.empty())
        throw std::invalid_argument(
            "HierarchicalBandit: learnerParams must name at least one "
            "learner");
    for (size_t i = 0; i < hcfg_.learnerParams.size(); ++i) {
        MabConfig cfg = base;
        cfg.gamma = hcfg_.learnerParams[i].first;
        cfg.c = hcfg_.learnerParams[i].second;
        cfg.seed = base.seed * 131 + i;
        learners_.push_back(std::make_unique<Ducb>(cfg));
    }

    MabConfig meta_cfg;
    meta_cfg.numArms = static_cast<int>(learners_.size());
    meta_cfg.gamma = hcfg_.metaGamma;
    meta_cfg.c = hcfg_.metaC;
    // The low-level learners already normalize their rewards; the
    // meta level consumes the same raw reward stream and normalizes
    // independently.
    meta_cfg.normalizeRewards = base.normalizeRewards;
    meta_cfg.seed = base.seed * 977 + 5;
    meta_ = std::make_unique<Ducb>(meta_cfg);

    active_ = meta_->selectArm();
}

void
HierarchicalBandit::reset()
{
    MabPolicy::reset();
    for (auto &learner : learners_)
        learner->reset();
    meta_->reset();
    active_ = meta_->selectArm();
    stepsInTenure_ = 0;
    tenureReward_ = 0.0;
}

ArmId
HierarchicalBandit::selectArm()
{
    return learners_[active_]->selectArm();
}

void
HierarchicalBandit::observeReward(double r_step)
{
    learners_[active_]->observeReward(r_step);
    tenureReward_ += r_step;
    ++stepsInTenure_;

    if (stepsInTenure_ < hcfg_.metaStepLen)
        return;

    // Tenure over: score the learner and let the meta bandit pick.
    meta_->observeReward(tenureReward_ /
                         static_cast<double>(stepsInTenure_));
    active_ = meta_->selectArm();
    stepsInTenure_ = 0;
    tenureReward_ = 0.0;
}

uint64_t
HierarchicalBandit::storageBytes() const
{
    const uint64_t per_arm = 8;
    uint64_t total = static_cast<uint64_t>(meta_->numArms()) * per_arm;
    for (const auto &learner : learners_)
        total += static_cast<uint64_t>(learner->numArms()) * per_arm;
    return total;
}

} // namespace mab
