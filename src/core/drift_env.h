#ifndef MAB_CORE_DRIFT_ENV_H
#define MAB_CORE_DRIFT_ENV_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/regret.h"
#include "core/swucb.h"
#include "sim/rng.h"

namespace mab {

/**
 * Synthetic drifting bandit environment: known true means that shift
 * every periodSteps plays, with the best arm rotating at each shift
 * so a policy must actually re-learn (the previous favourite is never
 * the new oracle). Everything is a pure function of the seed, so the
 * same config replays the identical environment in the bench, the
 * tests and the fuzz domain.
 */
struct DriftBanditConfig
{
    int numArms = 4;
    uint64_t steps = 4000;
    uint64_t periodSteps = 500; ///< plays between mean shifts
    double noise = 0.05;        ///< reward = mean +- uniform(noise)
    uint64_t seed = 1;
    int recoveryWindow = 8;     ///< PhasedRegretTracker criterion
};

/** True means of phase @p phase: the best arm (0.9) rotates by phase
 *  index; the rest draw deterministically from [0.1, 0.55], keeping a
 *  >= 0.35 gap so the oracle arm is unambiguous. */
inline std::vector<double>
driftPhaseMeans(const DriftBanditConfig &cfg, uint64_t phase)
{
    if (cfg.numArms <= 0)
        throw std::invalid_argument("driftPhaseMeans: no arms");
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull +
            phase * 0xBF58476D1CE4E5B9ull + 0x5D);
    const size_t best = phase % static_cast<uint64_t>(cfg.numArms);
    std::vector<double> means(static_cast<size_t>(cfg.numArms));
    for (size_t a = 0; a < means.size(); ++a)
        means[a] = a == best ? 0.9 : rng.uniform(0.1, 0.55);
    return means;
}

/**
 * Drive @p policy through the drifting environment, reporting every
 * play to a PhasedRegretTracker whose setMeans() fires exactly at the
 * shift points. Returns the tracker (per-phase regret, recovery
 * statistics, StatsRegistry export).
 */
inline PhasedRegretTracker
runDriftingBandit(MabPolicy &policy, const DriftBanditConfig &cfg)
{
    if (cfg.periodSteps == 0 || cfg.steps == 0)
        throw std::invalid_argument(
            "runDriftingBandit: steps/period must be nonzero");
    std::vector<double> means = driftPhaseMeans(cfg, 0);
    PhasedRegretTracker tracker(means, cfg.recoveryWindow);
    Rng noiseRng(cfg.seed * 0x2545F4914F6CDD1Dull + 0x9E37);
    uint64_t phase = 0;
    uint64_t untilShift = cfg.periodSteps;
    for (uint64_t t = 0; t < cfg.steps; ++t) {
        if (untilShift == 0) {
            means = driftPhaseMeans(cfg, ++phase);
            tracker.setMeans(means);
            untilShift = cfg.periodSteps;
        }
        --untilShift;
        const ArmId arm = policy.selectArm();
        tracker.record(arm);
        double r = means[static_cast<size_t>(arm)] +
            noiseRng.uniform(-cfg.noise, cfg.noise);
        policy.observeReward(std::clamp(r, 0.0, 1.0));
    }
    return tracker;
}

/** One policy column of the drift s-curve: an algorithm plus the knob
 *  the sweep varies (DUCB discount / SW-UCB window). */
struct DriftPolicySpec
{
    std::string label;
    MabAlgorithm algo = MabAlgorithm::Ucb;
    double gamma = 0.999; ///< Ducb only
    int window = 0;       ///< SwUcb only; 0 = the class default
};

/** The policy grid of the drift suites: a DUCB discount grid, an
 *  SW-UCB window grid, and the memoryless baselines. */
inline std::vector<DriftPolicySpec>
driftPolicyGrid()
{
    return {
        {"eGreedy", MabAlgorithm::EpsilonGreedy, 0.0, 0},
        {"UCB", MabAlgorithm::Ucb, 0.0, 0},
        {"Thompson", MabAlgorithm::Thompson, 0.0, 0},
        {"DUCB g=0.90", MabAlgorithm::Ducb, 0.90, 0},
        {"DUCB g=0.99", MabAlgorithm::Ducb, 0.99, 0},
        {"DUCB g=0.999", MabAlgorithm::Ducb, 0.999, 0},
        {"SW-UCB W=32", MabAlgorithm::SwUcb, 0.0, 32},
        {"SW-UCB W=128", MabAlgorithm::SwUcb, 0.0, 128},
        {"SW-UCB W=512", MabAlgorithm::SwUcb, 0.0, 512},
    };
}

/** Instantiate the policy a spec describes, tuned for the [0, 1]
 *  reward scale of the synthetic environment. */
inline std::unique_ptr<MabPolicy>
makeDriftPolicy(const DriftPolicySpec &spec, int num_arms,
                uint64_t seed)
{
    MabConfig cfg;
    cfg.numArms = num_arms;
    cfg.seed = seed;
    cfg.normalizeRewards = false;
    cfg.epsilon = 0.1;
    cfg.c = 0.3;
    if (spec.algo == MabAlgorithm::Ducb)
        cfg.gamma = spec.gamma;
    if (spec.algo == MabAlgorithm::SwUcb && spec.window > 0)
        return std::make_unique<SwUcb>(cfg, spec.window);
    return makePolicy(spec.algo, cfg);
}

} // namespace mab

#endif // MAB_CORE_DRIFT_ENV_H
