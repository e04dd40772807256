#ifndef MAB_CPU_MULTICORE_H
#define MAB_CPU_MULTICORE_H

#include <memory>
#include <vector>

#include "cpu/core_model.h"

namespace mab {

/** Result of a multi-core run. */
struct MultiCoreResult
{
    /** Per-core IPC measured at the instant the core reached its
     *  instruction target. */
    std::vector<double> ipc;

    /** Sum of per-core IPCs (the metric of Section 6.4). */
    double sumIpc = 0.0;
};

/**
 * Multi-core driver (Figure 14 experiments): N cores with private
 * L1/L2 hierarchies sharing one LLC and one DRAM channel. Cores are
 * interleaved by advancing whichever core's commit clock is furthest
 * behind, so bandwidth contention at the shared DRAM bus is modeled
 * faithfully. Cores that reach their target keep executing (and keep
 * contending) until every core has finished, but their IPC is
 * recorded at the target point — the standard multi-programmed
 * methodology.
 */
class MultiCoreSystem
{
  public:
    /**
     * @param hconfig per-core hierarchy; the shared LLC capacity is
     *                hconfig.llc.sizeBytes (per core) times numCores.
     * Throws std::invalid_argument for numCores < 1.
     */
    MultiCoreSystem(const CoreConfig &config,
                    const HierarchyConfig &hconfig,
                    const DramConfig &dram, int numCores);

    /**
     * Attach core @p index. @p trace and @p l2pf must outlive the
     * system. Must be called for every core before run(). Throws
     * std::out_of_range for an index outside [0, numCores()).
     */
    void attachCore(int index, TraceSource &trace, Prefetcher *l2pf);

    /** Run until every core commits @p instrPerCore instructions.
     *  Throws std::logic_error if a core was never attached. */
    MultiCoreResult run(uint64_t instrPerCore);

    CoreModel &core(int index) { return *cores_[index]; }
    Dram &dram() { return *dram_; }
    int numCores() const { return static_cast<int>(cores_.size()); }

    /**
     * Export the whole system under @p prefix: every attached core
     * under @p prefix.core<i>, plus the shared LLC and DRAM channel
     * (utilization computed against the slowest core's cycle count).
     */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix = "system") const;

  private:
    CoreConfig coreConfig_;
    HierarchyConfig hierConfig_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<Dram> dram_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
};

} // namespace mab

#endif // MAB_CPU_MULTICORE_H
