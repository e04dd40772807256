#include "core/mab_policy.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mab {

namespace {

/** Out of line, so observeReward's hot path keeps one compare. */
[[noreturn, gnu::noinline]] void
throwObserveBeforeSelect()
{
    throw std::logic_error(
        "MabPolicy::observeReward called before selectArm: no arm to "
        "credit the reward to");
}

/** Out of line for the same reason; names the rejected value. */
[[noreturn, gnu::noinline]] void
throwNonFiniteReward(double r_step)
{
    throw std::invalid_argument(
        "MabPolicy::observeReward: reward " + std::to_string(r_step) +
        " is not finite");
}

} // namespace

MabPolicy::MabPolicy(const MabConfig &config)
    : config_(config), rng_(config.seed)
{
    if (config_.numArms < 1)
        throw std::invalid_argument(
            "MabPolicy: numArms must be >= 1, got " +
            std::to_string(config_.numArms));
    r_.assign(config_.numArms, 0.0);
    n_.assign(config_.numArms, 0.0);
}

void
MabPolicy::reset()
{
    r_.assign(config_.numArms, 0.0);
    n_.assign(config_.numArms, 0.0);
    nTotal_ = 0.0;
    currentArm_ = kNoArm;
    rrPos_ = skipInitialRr_ ? config_.numArms : 0;
    initialRrDone_ = skipInitialRr_;
    rAvg_ = 1.0;
    steps_ = 0;
    rng_.reseed(config_.seed);
}

void
MabPolicy::disableInitialRoundRobin()
{
    skipInitialRr_ = true;
    config_.normalizeRewards = false;
    rrPos_ = config_.numArms;
    initialRrDone_ = true;
}

ArmId
MabPolicy::selectArm()
{
    if (inRoundRobin()) {
        // Initial (or restarted) round-robin phase: arms in order.
        currentArm_ = rrPos_;
        if (initialRrDone_) {
            // A restarted phase keeps the collected r_i / n_i and uses
            // the normal count update.
            updSels(currentArm_);
        }
        return currentArm_;
    }

    if (config_.rrRestartProb > 0.0 &&
        rng_.bernoulli(config_.rrRestartProb)) {
        // Section 4.3: re-evaluate all arms in a (presumably) more
        // stable environment, keeping the collected values.
        rrPos_ = 0;
        currentArm_ = 0;
        updSels(currentArm_);
        return currentArm_;
    }

    currentArm_ = nextArm();
    updSels(currentArm_);
    return currentArm_;
}

void
MabPolicy::observeReward(double r_step)
{
    if (currentArm_ == kNoArm) [[unlikely]]
        throwObserveBeforeSelect();
    if (!std::isfinite(r_step)) [[unlikely]]
        throwNonFiniteReward(r_step);
    ++steps_;

    if (!initialRrDone_) {
        // Initial round-robin: seed the tables directly (Algorithm 1).
        r_[currentArm_] = r_step;
        n_[currentArm_] = 1.0;
        nTotal_ += 1.0;
        ++rrPos_;
        if (rrPos_ >= config_.numArms)
            finishInitialRoundRobin();
        return;
    }

    const double r = config_.normalizeRewards ? r_step / rAvg_ : r_step;
    updRew(currentArm_, r);
    if (inRoundRobin())
        ++rrPos_; // advance a restarted round-robin phase
}

void
MabPolicy::finishInitialRoundRobin()
{
    initialRrDone_ = true;
    if (config_.normalizeRewards) {
        double sum = 0.0;
        for (double r : r_)
            sum += r;
        rAvg_ = sum / static_cast<double>(config_.numArms);
        // IPC rewards are positive; fall back to no normalization for
        // degenerate (zero or negative average) reward signals.
        if (rAvg_ <= 1e-12) {
            rAvg_ = 1.0;
        } else {
            for (double &r : r_)
                r /= rAvg_;
        }
    }
    onRoundRobinDone();
}

ArmId
MabPolicy::greedyArm() const
{
    // Flat scan over the contiguous reward array, tracking the best
    // value in a register instead of re-indexing r_[best] each step.
    const double *r = r_.data();
    ArmId best = 0;
    double best_r = r[0];
    for (ArmId i = 1; i < config_.numArms; ++i) {
        if (r[i] > best_r) {
            best_r = r[i];
            best = i;
        }
    }
    return best;
}

void
MabPolicy::updSels(ArmId arm)
{
    n_[arm] += 1.0;
    nTotal_ += 1.0;
}

void
MabPolicy::updRew(ArmId arm, double r_step)
{
    if (n_[arm] <= 0.0) {
        r_[arm] = r_step;
        n_[arm] = 1.0;
        return;
    }
    // Running average; under DUCB the discounted count bounds the
    // effective window, turning this into an exponential average.
    r_[arm] += (r_step - r_[arm]) / n_[arm];
}

} // namespace mab
