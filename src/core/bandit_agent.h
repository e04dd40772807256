#ifndef MAB_CORE_BANDIT_AGENT_H
#define MAB_CORE_BANDIT_AGENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mab_policy.h"
#include "sim/stats_registry.h"

namespace mab {

/**
 * Hardware configuration of a Micro-Armed Bandit agent (Section 5).
 */
struct BanditHwConfig
{
    /**
     * Bandit step duration during the main loop, in domain-specific
     * units (L2 demand accesses for prefetching, Hill Climbing epochs
     * for SMT fetch).
     */
    uint64_t stepUnits = 1000;

    /**
     * Bandit step duration during the initial round-robin phase
     * ("bandit step-RR", Section 5.3). Zero means "same as stepUnits".
     * The SMT use case uses a longer step here so that Hill Climbing
     * has time to converge before the arm is judged.
     */
    uint64_t stepUnitsRr = 0;

    /**
     * Cycles between the end of a bandit step and the new arm taking
     * effect. The paper conservatively models 500 cycles, during which
     * the controlled unit keeps operating with the previous arm.
     */
    uint64_t selectionLatencyCycles = 500;

    /** Record the (cycle, arm) switch history (Figure 7 plots). */
    bool recordHistory = false;
};

/**
 * The Micro-Armed Bandit hardware agent (Section 5).
 *
 * Wraps a MAB policy together with the microarchitectural cost model:
 * the nTable / rTable storage (8 bytes per arm), the arm-selection
 * latency, and the bandit-step bookkeeping. The host simulator calls
 * tick() as execution progresses; the agent detects step boundaries,
 * computes the step IPC reward from the committed-instruction and
 * cycle counters (Figure 6(d)), feeds the policy, and schedules the
 * newly selected arm to take effect selectionLatencyCycles later.
 */
class BanditAgent
{
  public:
    /** @throws std::invalid_argument for a null @p policy. */
    BanditAgent(std::unique_ptr<MabPolicy> policy,
                const BanditHwConfig &config);

    /**
     * Notify the agent of execution progress.
     *
     * @param units Units elapsed since the last call (e.g. 1 per L2
     *              demand access).
     * @param instructions Total committed instructions so far.
     * @param cycles Current cycle count.
     * @return true if a bandit step ended and a new arm was selected.
     */
    bool tick(uint64_t units, uint64_t instructions, uint64_t cycles);

    /**
     * Progress notification with a custom reward signal: the step
     * reward is the mean of @p metric over the step window instead of
     * IPC. Supports the alternative optimization targets of Section
     * 6.4 (weighted speedup, harmonic mean of weighted IPC) — "Bandit
     * can easily optimize other metrics by simply changing the
     * reward".
     *
     * @param units Units elapsed since the last call.
     * @param metricSum Running sum of the per-unit metric values.
     * @param cycles Current cycle count (for the latency window).
     */
    bool tickMetric(uint64_t units, double metricSum, uint64_t cycles);

    /**
     * Arm in effect at @p cycle. Accounts for the selection latency:
     * an arm selected at step end only takes effect
     * selectionLatencyCycles later; until then the previous arm is
     * still applied.
     */
    ArmId armAt(uint64_t cycle) const;

    /** Most recently selected arm (ignoring the latency window). */
    ArmId selectedArm() const { return selectedArm_; }

    /** Storage: 4B reward + 4B count per arm (Section 5.4). */
    uint64_t storageBytes() const;

    /** Configured arm-selection latency in cycles. */
    uint64_t
    selectionLatency() const
    {
        return config_.selectionLatencyCycles;
    }

    /** Completed bandit steps. */
    uint64_t stepsCompleted() const { return stepsCompleted_; }

    /** (cycle, arm) switch history, if recording was enabled. */
    const std::vector<std::pair<uint64_t, ArmId>> &
    history() const
    {
        return history_;
    }

    /** Per-step (cycle, arm, reward) log, if recording was enabled. */
    struct StepRecord
    {
        uint64_t cycle;
        ArmId arm;
        double reward;
    };
    const std::vector<StepRecord> &stepLog() const { return stepLog_; }

    /**
     * Export the agent's telemetry under @p prefix ("bandit"): steps
     * completed, the per-arm value estimates r_i / n_i of the wrapped
     * policy (the DUCB tables), the greedy arm, and — when history
     * recording is on — the arm-switch and per-step reward series.
     */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix) const;

    MabPolicy &policy() { return *policy_; }
    const MabPolicy &policy() const { return *policy_; }

  private:
    uint64_t currentStepTarget() const;

    std::unique_ptr<MabPolicy> policy_;
    BanditHwConfig config_;

    ArmId selectedArm_ = kNoArm;
    ArmId previousArm_ = kNoArm;
    uint64_t armEffectiveCycle_ = 0;

    void finishStep(double r_step, uint64_t cycles);

    uint64_t unitsIntoStep_ = 0;
    uint64_t unitsTotal_ = 0;
    uint64_t unitsAtStepStart_ = 0;
    uint64_t instrAtStepStart_ = 0;
    uint64_t cyclesAtStepStart_ = 0;
    double metricAtStepStart_ = 0.0;
    uint64_t stepsCompleted_ = 0;

    std::vector<std::pair<uint64_t, ArmId>> history_;
    std::vector<StepRecord> stepLog_;
};

} // namespace mab

#endif // MAB_CORE_BANDIT_AGENT_H
