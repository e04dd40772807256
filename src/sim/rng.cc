#include "sim/rng.h"

#include <stdexcept>
#include <string>

namespace mab {

namespace {

/** splitmix64 step, used only for seeding. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
    // xoshiro must not be seeded with the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9E3779B97F4A7C15ull;
}

void
Rng::throwZeroBound()
{
    throw std::invalid_argument(
        "Rng: bound 0 is empty; below() needs a bound >= 1");
}

void
Rng::throwEmptyRange(int64_t lo, int64_t hi)
{
    throw std::invalid_argument("Rng::range: hi " + std::to_string(hi) +
                                " is below lo " + std::to_string(lo));
}

} // namespace mab
