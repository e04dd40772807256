#include "cpu/bandit_prefetch.h"

#include <stdexcept>
#include <string>

namespace mab {

BanditPrefetchController::BanditPrefetchController(
    const BanditPrefetchConfig &config)
{
    MabConfig mab = config.mab;
    mab.numArms = BanditEnsemblePrefetcher::numArms();
    auto policy = makePolicy(config.algorithm, mab);
    algoName_ = policy->name();
    agent_ = std::make_unique<BanditAgent>(std::move(policy),
                                           config.hw);
    ensemble_.applyArm(agent_->selectedArm());
}

BanditPrefetchController::BanditPrefetchController(
    std::unique_ptr<MabPolicy> policy, const BanditHwConfig &hw)
{
    if (!policy)
        throw std::invalid_argument(
            "BanditPrefetchController: policy must not be null");
    if (policy->numArms() != BanditEnsemblePrefetcher::numArms())
        throw std::invalid_argument(
            "BanditPrefetchController: policy must have " +
            std::to_string(BanditEnsemblePrefetcher::numArms()) +
            " arms, got " + std::to_string(policy->numArms()));
    algoName_ = policy->name();
    agent_ = std::make_unique<BanditAgent>(std::move(policy), hw);
    ensemble_.applyArm(agent_->selectedArm());
}

std::string
BanditPrefetchController::name() const
{
    return "Bandit[" + algoName_ + "]";
}

uint64_t
BanditPrefetchController::storageBytes() const
{
    // The agent's nTable/rTable only; the ensemble's tables are
    // reported separately, mirroring the paper's accounting (< 100B
    // for the agent, < 2KB including the prefetchers).
    return agent_->storageBytes();
}

void
BanditPrefetchController::reset()
{
    ensemble_.reset();
    agent_->policy().reset();
}

void
BanditPrefetchController::exportStats(StatsRegistry &reg,
                                      const std::string &prefix) const
{
    agent_->exportStats(reg, prefix);
    reg.setScalar(prefix + ".ensembleArm",
                  static_cast<double>(ensemble_.currentArm()));
}

void
BanditPrefetchController::onAccess(const PrefetchAccess &access,
                                   std::vector<uint64_t> &out)
{
    // Apply the arm in effect at this cycle (models the 500-cycle
    // selection latency: until then the previous arm keeps running).
    const ArmId arm = agent_->armAt(access.cycle);
    if (arm != ensemble_.currentArm())
        ensemble_.applyArm(arm);

    ensemble_.onAccess(access, out);

    // One L2 demand access = one bandit step unit.
    agent_->tick(1, access.instrCount, access.cycle);
}

} // namespace mab
