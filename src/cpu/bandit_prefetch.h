#ifndef MAB_CPU_BANDIT_PREFETCH_H
#define MAB_CPU_BANDIT_PREFETCH_H

#include <memory>

#include "core/bandit_agent.h"
#include "core/factory.h"
#include "prefetch/ensemble.h"
#include "prefetch/prefetcher.h"

namespace mab {

/**
 * Default Micro-Armed Bandit configuration for the prefetching use
 * case (Table 6, right column): DUCB with gamma = 0.999, c = 0.04,
 * 11 arms, a 1000-L2-access bandit step, and reward normalization.
 */
struct BanditPrefetchConfig
{
    MabAlgorithm algorithm = MabAlgorithm::Ducb;
    MabConfig mab = [] {
        MabConfig cfg;
        cfg.numArms = 11;
        cfg.gamma = 0.999;
        cfg.c = 0.04;
        cfg.normalizeRewards = true;
        return cfg;
    }();
    BanditHwConfig hw = [] {
        BanditHwConfig cfg;
        cfg.stepUnits = 1000; // L2 demand accesses
        cfg.selectionLatencyCycles = 500;
        return cfg;
    }();
};

/**
 * The prefetching use case wired together (Sections 5.2): a Micro-
 * Armed Bandit agent driving the ensemble of lightweight prefetchers.
 *
 * Every onAccess() call corresponds to one L2 demand access — the
 * bandit step unit. The controller applies the arm in effect (which
 * respects the 500-cycle selection latency), forwards the access to
 * the ensemble, and advances the agent's step counter with the
 * committed-instruction / cycle counters used for the IPC reward.
 */
class BanditPrefetchController final : public Prefetcher
{
  public:
    explicit BanditPrefetchController(
        const BanditPrefetchConfig &config = {});

    /**
     * Construct with a caller-built policy (custom algorithms).
     * @throws std::invalid_argument if @p policy is null or has not
     *     one arm per ensemble arm (Table 7).
     */
    BanditPrefetchController(std::unique_ptr<MabPolicy> policy,
                             const BanditHwConfig &hw);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override;
    uint64_t storageBytes() const override;
    void reset() override;

    BanditAgent &agent() { return *agent_; }
    const BanditAgent &agent() const { return *agent_; }
    BanditEnsemblePrefetcher &ensemble() { return ensemble_; }

    /**
     * Export controller telemetry under @p prefix ("bandit"): the
     * wrapped agent's step/arm/reward series and value estimates,
     * plus the algorithm name and the arm in effect at the ensemble.
     */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix) const;

  private:
    BanditEnsemblePrefetcher ensemble_;
    std::unique_ptr<BanditAgent> agent_;
    std::string algoName_;
};

} // namespace mab

#endif // MAB_CPU_BANDIT_PREFETCH_H
