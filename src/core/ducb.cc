#include "core/ducb.h"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace mab {

void
Ducb::updSels(ArmId arm)
{
    // The per-step cost of the discount: a flat multiply over the
    // contiguous count array, two counts per SSE2 multiply (GCC leaves
    // the scalar loop unvectorized at -O2). Each lane rounds exactly
    // as the scalar n_i * gamma does.
    const double gamma = config_.gamma;
    double *n = n_.data();
    const ArmId arms = config_.numArms;
    ArmId i = 0;
#ifdef __SSE2__
    const __m128d g = _mm_set1_pd(gamma);
    for (; i + 1 < arms; i += 2)
        _mm_storeu_pd(n + i, _mm_mul_pd(_mm_loadu_pd(n + i), g));
#endif
    for (; i < arms; ++i)
        n[i] *= gamma;
    // n_total is the sum of the n_i, so it is discounted identically.
    nTotal_ = nTotal_ * gamma + 1.0;
    n[arm] += 1.0;
}

} // namespace mab
