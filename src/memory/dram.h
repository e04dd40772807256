#ifndef MAB_MEMORY_DRAM_H
#define MAB_MEMORY_DRAM_H

#include <cstdint>
#include <string>

#include "sim/stats_registry.h"

namespace mab {

/** DRAM channel configuration. */
struct DramConfig
{
    /** Transfer rate in mega-transfers per second (Figure 10 sweeps
     *  150 / 600 / 2400 / 9600). */
    double mtps = 2400.0;

    /** Bus width: bytes moved per transfer. */
    int busBytes = 8;

    /** Core clock in GHz (Table 4: 4 GHz). */
    double coreGhz = 4.0;

    /** Idle (unloaded) access latency in core cycles (~75ns). */
    uint64_t baseLatencyCycles = 300;
};

/**
 * A bandwidth-limited DRAM channel with demand-over-prefetch
 * priority.
 *
 * Every line transfer occupies the data bus for a rate-dependent
 * number of core cycles — the property the Bandit exploits in
 * bandwidth-constrained configurations (Figure 10). Demand fetches
 * are scheduled against the demand-traffic backlog only (modeling a
 * memory controller that prioritizes demand reads and preempts
 * queued prefetches), while prefetches queue behind all traffic.
 */
class Dram
{
  public:
    /** @throws std::invalid_argument unless mtps and coreGhz are
     *  finite and above 0 and busBytes is above 0. */
    explicit Dram(const DramConfig &config);

    /**
     * Schedule a 64-byte line fetch arriving at @p cycle.
     * @param demand true for demand fetches (scheduled with
     *        priority), false for prefetches.
     * @return the cycle at which the data arrives at the LLC.
     */
    uint64_t schedule(uint64_t cycle, bool demand = true);

    /** Core cycles one line transfer occupies the bus. */
    double cyclesPerLine() const { return cyclesPerLine_; }

    /** Total line transfers serviced. */
    uint64_t transfers() const { return transfers_; }

    /** Demand (priority) line transfers serviced. */
    uint64_t demandTransfers() const { return demandTransfers_; }

    /** Core cycles the data bus spent moving lines. */
    double busBusyCycles() const
    {
        return static_cast<double>(transfers_) * cyclesPerLine_;
    }

    /** Cycle at which the bus frees up (for occupancy tests). */
    uint64_t busFreeCycle() const { return busFreeAt_; }

    /**
     * Export channel metrics under @p prefix ("dram"): transfer
     * counts, busy cycles and, when @p cycles is nonzero, the bus
     * utilization over that run length.
     */
    void exportStats(StatsRegistry &reg, const std::string &prefix,
                     uint64_t cycles = 0) const;

    void reset();

  private:
    DramConfig config_;
    double cyclesPerLine_;
    /** Bus-free time considering demand traffic only. */
    double demandFreeAt_ = 0.0;
    /** Bus-free time considering all traffic. */
    double allFreeAt_ = 0.0;
    uint64_t busFreeAt_ = 0;
    uint64_t transfers_ = 0;
    uint64_t demandTransfers_ = 0;
};

} // namespace mab

#endif // MAB_MEMORY_DRAM_H
