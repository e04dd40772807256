#include "core/ucb.h"

#include <algorithm>
#include <cmath>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace mab {

Ucb::Ucb(const MabConfig &config)
    : MabPolicy(config), scores_(static_cast<size_t>(config.numArms))
{
}

double
Ucb::potential(ArmId arm) const
{
    const double log_total = std::log(std::max(nTotal_, 1.0));
    // Discounting (in DUCB) can shrink n_i arbitrarily close to zero;
    // floor it so that the bonus stays finite while still strongly
    // favoring long-untried arms.
    const double n = std::max(n_[arm], 1e-9);
    return r_[arm] + config_.c * std::sqrt(log_total / n);
}

double
Ucb::logTotal() const
{
    // Keyed by the exact n_total: a DUCB total reaches a floating-point
    // fixed point and an SW-UCB total is constant once the window is
    // full, so libm runs only when the value moves. NaN never hits.
    if (nTotal_ != logKey_) {
        logKey_ = nTotal_;
        logTotal_ = std::log(std::max(nTotal_, 1.0));
    }
    return logTotal_;
}

void
Ucb::scoreArms(double *out) const
{
    // potential()'s operations in its order: IEEE div, sqrt, mul and
    // add are correctly rounded in both the packed and the scalar
    // forms, and max(1e-9, n) returns n for a NaN n as std::max(n,
    // 1e-9) does, so every lane is bit-identical to potential(i).
    const double log_total = logTotal();
    const double c = config_.c;
    const double *r = r_.data();
    const double *n = n_.data();
    const ArmId arms = config_.numArms;
    ArmId i = 0;
#ifdef __SSE2__
    const __m128d vlog = _mm_set1_pd(log_total);
    const __m128d vc = _mm_set1_pd(c);
    const __m128d n_floor = _mm_set1_pd(1e-9);
    for (; i + 1 < arms; i += 2) {
        const __m128d ni = _mm_max_pd(n_floor, _mm_loadu_pd(n + i));
        const __m128d bonus =
            _mm_mul_pd(vc, _mm_sqrt_pd(_mm_div_pd(vlog, ni)));
        _mm_storeu_pd(out + i, _mm_add_pd(_mm_loadu_pd(r + i), bonus));
    }
#endif
    for (; i < arms; ++i)
        out[i] = r[i] + c * std::sqrt(log_total / std::max(n[i], 1e-9));
}

std::vector<double>
Ucb::selectionScores() const
{
    std::vector<double> scores(scores_.size());
    scoreArms(scores.data());
    return scores;
}

ArmId
Ucb::nextArm()
{
    scoreArms(scores_.data());
    // First max wins (strict >), as in the scalar scan over potential().
    const double *s = scores_.data();
    ArmId best = 0;
    double best_pot = s[0];
    for (ArmId i = 1; i < config_.numArms; ++i) {
        if (s[i] > best_pot) {
            best_pot = s[i];
            best = i;
        }
    }
    return best;
}

} // namespace mab
