#include "core/heuristics.h"

#include <stdexcept>
#include <string>

#include "sim/stats.h"

namespace mab {

ArmId
PeriodicHeuristic::nextArm()
{
    if (sweepPos_ >= 0)
        return sweepPos_;
    if (exploitRemaining_ > 0) {
        --exploitRemaining_;
        return best_;
    }
    sweepPos_ = 0;
    return 0;
}

void
PeriodicHeuristic::updRew(ArmId arm, double r_step)
{
    pushSample(arm, r_step);
    if (sweepPos_ >= 0) {
        ++sweepPos_;
        if (sweepPos_ >= config_.numArms) {
            sweepPos_ = -1;
            best_ = greedyArm();
            exploitRemaining_ = pcfg_.exploitSteps;
        }
    }
}

void
PeriodicHeuristic::onRoundRobinDone()
{
    // Seed the moving-average buffers with the round-robin rewards.
    for (ArmId i = 0; i < config_.numArms; ++i) {
        buffers_[i].clear();
        buffers_[i].push_back(r_[i]);
    }
    best_ = greedyArm();
    exploitRemaining_ = pcfg_.exploitSteps;
    sweepPos_ = -1;
}

void
PeriodicHeuristic::pushSample(ArmId arm, double r)
{
    auto &buf = buffers_[arm];
    buf.push_back(r);
    while (buf.size() > static_cast<size_t>(pcfg_.movingAvgWindow))
        buf.pop_front();
    double sum = 0.0;
    for (double x : buf)
        sum += x;
    // n_[arm] is maintained by the base updSels(); only refresh the
    // moving-average reward estimate here.
    r_[arm] = sum / static_cast<double>(buf.size());
}

FixedArmPolicy::FixedArmPolicy(const MabConfig &config, ArmId arm)
    : MabPolicy(config), arm_(arm)
{
    if (arm < 0 || arm >= config.numArms)
        throw std::invalid_argument(
            "FixedArmPolicy: arm " + std::to_string(arm) +
            " is outside [0, " + std::to_string(config.numArms) + ")");
    disableInitialRoundRobin();
}

std::string
FixedArmPolicy::name() const
{
    return "Static(" + std::to_string(arm_) + ")";
}

} // namespace mab
