#include "probes.h"

#include <algorithm>
#include <cmath>

namespace mab::perfbench {

double
clockOverheadNs()
{
    static const double overhead = [] {
        std::vector<uint64_t> d(2001);
        for (uint64_t &x : d) {
            const uint64_t t0 = nowNs();
            x = nowNs() - t0;
        }
        std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
        return static_cast<double>(d[d.size() / 2]);
    }();
    return overhead;
}

double
SampleStats::meanNs() const
{
    if (samples == 0)
        return 0.0;
    return std::max(0.0, sampledNs / static_cast<double>(samples) -
                             clockOverheadNs());
}

SampleStats
TimedTrace::apportion(SampleStats s) const
{
    const uint64_t sampled = replay_.samples + record_.samples;
    s.calls = sampled == 0
        ? 0
        : static_cast<uint64_t>(std::llround(
              static_cast<double>(calls_) *
              static_cast<double>(s.samples) /
              static_cast<double>(sampled)));
    return s;
}

} // namespace mab::perfbench
