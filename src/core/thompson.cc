#include "core/thompson.h"

#include <cmath>

namespace mab {

ThompsonSampling::ThompsonSampling(const MabConfig &config,
                                   const ThompsonConfig &tcfg)
    : MabPolicy(config), tcfg_(tcfg)
{
}

void
ThompsonSampling::reset()
{
    MabPolicy::reset();
    cachedSpare_ = false;
    spare_ = 0.0;
}

double
ThompsonSampling::gaussian()
{
    // Marsaglia polar method with a cached spare.
    if (cachedSpare_) {
        cachedSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = rng_.uniform(-1.0, 1.0);
        v = rng_.uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    cachedSpare_ = true;
    return u * factor;
}

ArmId
ThompsonSampling::nextArm()
{
    ArmId best = 0;
    double best_sample = -1e300;
    for (ArmId i = 0; i < config_.numArms; ++i) {
        const double effective = n_[i] + tcfg_.priorWeight;
        const double std_dev =
            tcfg_.noiseStd / std::sqrt(effective);
        const double sample = r_[i] + std_dev * gaussian();
        if (sample > best_sample) {
            best_sample = sample;
            best = i;
        }
    }
    return best;
}

void
ThompsonSampling::updSels(ArmId arm)
{
    if (tcfg_.decay < 1.0) {
        for (double &n : n_)
            n *= tcfg_.decay;
        nTotal_ = nTotal_ * tcfg_.decay + 1.0;
        n_[arm] += 1.0;
        return;
    }
    MabPolicy::updSels(arm);
}

} // namespace mab
