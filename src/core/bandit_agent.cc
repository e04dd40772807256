#include "core/bandit_agent.h"

#include <stdexcept>

#include "sim/tracing.h"

namespace mab {

BanditAgent::BanditAgent(std::unique_ptr<MabPolicy> policy,
                         const BanditHwConfig &config)
    : policy_(std::move(policy)), config_(config)
{
    if (!policy_)
        throw std::invalid_argument("BanditAgent: policy is null");
    // First selection happens immediately (start of the round-robin
    // phase); there is no previous arm to fall back to.
    selectedArm_ = policy_->selectArm();
    previousArm_ = selectedArm_;
    armEffectiveCycle_ = 0;
    if (config_.recordHistory)
        history_.emplace_back(0, selectedArm_);
}

uint64_t
BanditAgent::currentStepTarget() const
{
    if (policy_->inRoundRobin() && config_.stepUnitsRr != 0)
        return config_.stepUnitsRr;
    return config_.stepUnits;
}

void
BanditAgent::finishStep(double r_step, uint64_t cycles)
{
    if (config_.recordHistory)
        stepLog_.push_back({cycles, selectedArm_, r_step});

    tracing::Tracer &tracer = tracing::Tracer::global();
    const uint64_t step_start_cycle = cyclesAtStepStart_;
    const bool was_rr = policy_->inRoundRobin();

    policy_->observeReward(r_step);
    previousArm_ = selectedArm_;
    selectedArm_ = policy_->selectArm();
    armEffectiveCycle_ = cycles + config_.selectionLatencyCycles;

    unitsIntoStep_ = 0;
    unitsAtStepStart_ = unitsTotal_;
    cyclesAtStepStart_ = cycles;
    ++stepsCompleted_;

    if (config_.recordHistory && selectedArm_ != previousArm_)
        history_.emplace_back(cycles, selectedArm_);

    if (tracer.auditOn() || tracer.traceOn()) {
        tracing::BanditStepRecord rec;
        rec.agentKey = this;
        rec.algorithm = policy_->name();
        rec.step = stepsCompleted_;
        rec.startCycle = step_start_cycle;
        rec.endCycle = cycles;
        rec.arm = previousArm_;
        rec.reward = r_step;
        rec.nextArm = selectedArm_;
        rec.inRoundRobin = policy_->inRoundRobin();
        // A restart re-enters round robin from the main loop; the
        // initial round-robin phase does not count.
        rec.restarted = !was_rr && policy_->inRoundRobin();
        rec.nTotal = policy_->totalCount();
        rec.gamma = policy_->config().gamma;
        rec.armReward = policy_->armRewards();
        rec.armCount = policy_->armCounts();
        rec.armScore = policy_->selectionScores();
        tracer.banditStep(rec);
    }
}

bool
BanditAgent::tick(uint64_t units, uint64_t instructions, uint64_t cycles)
{
    unitsIntoStep_ += units;
    unitsTotal_ += units;
    if (unitsIntoStep_ < currentStepTarget())
        return false;

    // Step boundary: compute the IPC reward of the finished step
    // (Figure 6(d)) and ask the policy for the next arm.
    const uint64_t d_instr = instructions - instrAtStepStart_;
    const uint64_t d_cycles = cycles > cyclesAtStepStart_
        ? cycles - cyclesAtStepStart_ : 1;
    const double r_step =
        static_cast<double>(d_instr) / static_cast<double>(d_cycles);

    instrAtStepStart_ = instructions;
    finishStep(r_step, cycles);
    return true;
}

bool
BanditAgent::tickMetric(uint64_t units, double metricSum,
                        uint64_t cycles)
{
    unitsIntoStep_ += units;
    unitsTotal_ += units;
    if (unitsIntoStep_ < currentStepTarget())
        return false;

    const double d_metric = metricSum - metricAtStepStart_;
    const uint64_t d_units = unitsTotal_ > unitsAtStepStart_
        ? unitsTotal_ - unitsAtStepStart_ : 1;
    const double r_step = d_metric / static_cast<double>(d_units);

    metricAtStepStart_ = metricSum;
    finishStep(r_step, cycles);
    return true;
}

ArmId
BanditAgent::armAt(uint64_t cycle) const
{
    return cycle >= armEffectiveCycle_ ? selectedArm_ : previousArm_;
}

uint64_t
BanditAgent::storageBytes() const
{
    // 4-byte single-precision reward + 4-byte unsigned count per arm.
    return static_cast<uint64_t>(policy_->numArms()) * 8u;
}

void
BanditAgent::exportStats(StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.setCounter(prefix + ".steps", stepsCompleted_);
    reg.setCounter(prefix + ".armSwitches",
                   history_.empty() ? 0 : history_.size() - 1);
    reg.setScalar(prefix + ".selectedArm",
                  static_cast<double>(selectedArm_));
    reg.setScalar(prefix + ".greedyArm",
                  static_cast<double>(policy_->greedyArm()));
    reg.setCounter(prefix + ".storageBytes", storageBytes());

    const auto &r = policy_->armRewards();
    const auto &n = policy_->armCounts();
    for (size_t i = 0; i < r.size(); ++i) {
        const std::string arm =
            prefix + ".arm" + std::to_string(i);
        reg.setScalar(arm + ".reward", r[i]);
        reg.setScalar(arm + ".count", n[i]);
    }

    if (config_.recordHistory) {
        TimeSeries &switches = reg.timeSeries(prefix + ".armHistory");
        for (const auto &[cycle, arm] : history_) {
            switches.add(static_cast<double>(cycle),
                         static_cast<double>(arm));
        }
        TimeSeries &rewards =
            reg.timeSeries(prefix + ".rewardHistory");
        for (const auto &rec : stepLog_) {
            rewards.add(static_cast<double>(rec.cycle), rec.reward);
        }
    }
}

} // namespace mab
