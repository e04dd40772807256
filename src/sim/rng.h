#ifndef MAB_SIM_RNG_H
#define MAB_SIM_RNG_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace mab {

/**
 * Exact remainder without a divide (Lemire, Kaser & Kurz, "Faster
 * remainder by direct computation", 2019). With
 * recip = remainderReciprocal(d), the ceiling of 2^128 / d taken mod
 * 2^128, remainderBy(recip, d, x) == x % d for every 64-bit x and
 * every d >= 1: the theorem needs F >= N + L bits of reciprocal for
 * N-bit numerators and d <= 2^L, and F = 128 = 64 + 64 covers every
 * 64-bit d. For d == 1 the reciprocal wraps to 0 and every remainder
 * is 0, as it must be. Rng::Bound and Pythia's plane index share it.
 */
constexpr unsigned __int128
remainderReciprocal(uint64_t d)
{
    return ~static_cast<unsigned __int128>(0) / d + 1;
}

/** x % d from remainderReciprocal(d): floor(((recip * x) mod 2^128)
 *  * d / 2^128), the product with d taken in two 64-bit halves. */
constexpr uint64_t
remainderBy(unsigned __int128 recip, uint64_t d, uint64_t x)
{
    const unsigned __int128 low = recip * x;
    const unsigned __int128 bottom =
        (static_cast<unsigned __int128>(static_cast<uint64_t>(low)) * d) >>
        64;
    const unsigned __int128 top = (low >> 64) * d;
    return static_cast<uint64_t>((bottom + top) >> 64);
}

/**
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * All stochastic components of the simulator (synthetic workloads,
 * epsilon-greedy exploration, round-robin restarts) draw from instances
 * of this generator so that every experiment is exactly reproducible
 * from its seed. The generator is seeded through splitmix64 so that
 * low-entropy seeds (0, 1, 2, ...) still produce well-mixed streams.
 *
 * Every draw is defined in this header so the trace and uop
 * generators inline it. Besides the double-valued draws, two exact
 * integer forms serve the generators' hot loops (EXPERIMENTS.md
 * "Synthetic-input kernel" gives the exactness arguments):
 *  - chance(chanceThreshold(p)) takes the same draw as bernoulli(p)
 *    and returns the same outcome for every double p;
 *  - below(Bound(n)) takes the same draws as below(n) and returns
 *    the same value, with the rejection threshold and the remainder
 *    reciprocal computed once.
 */
class Rng
{
  public:
    /** chanceThreshold() of a certain event: 2^53, one past the
     *  largest 53-bit draw. */
    static constexpr uint64_t kChanceOne = 1ull << 53;

    /**
     * A below() bound with its per-bound work done once: the rejection
     * threshold 2^64 mod n and the exact remainder reciprocal of n.
     * Throws std::invalid_argument for n == 0. The members are plain
     * data so a test can inspect them.
     */
    struct Bound
    {
        explicit Bound(uint64_t bound)
            : n(nonzero(bound)), threshold(-n % n),
              recip(remainderReciprocal(n))
        {
        }

        /** x % n, exact for every 64-bit x. */
        uint64_t
        reduce(uint64_t x) const
        {
            return remainderBy(recip, n, x);
        }

        uint64_t n;
        /** Draws below it are rejected (0 for powers of two). */
        uint64_t threshold;
        unsigned __int128 recip;
    };

    /** Construct a generator from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

    /** Re-initialize the internal state from @p seed. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit output. */
    uint64_t
    next64()
    {
        const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1): 53 high-quality bits. */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /**
     * The integer threshold T with (k < T) == (k * 2^-53 < p) for
     * every 53-bit draw k: ceil(p * 2^53), 0 for p <= 0 or NaN, and
     * kChanceOne for p >= 1.
     */
    static uint64_t
    chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return kChanceOne;
        return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** bernoulli(p) for threshold = chanceThreshold(p): one draw. */
    bool chance(uint64_t threshold) { return (next64() >> 11) < threshold; }

    /**
     * Uniform integer in [0, bound). Uses rejection sampling to avoid
     * modulo bias; a power-of-two bound rejects nothing and is a mask.
     * Throws std::invalid_argument for bound == 0.
     */
    uint64_t
    below(uint64_t bound)
    {
        if ((bound & (bound - 1)) == 0) {
            if (bound == 0)
                throwZeroBound();
            return next64() & (bound - 1);
        }
        // Draw until the value falls inside the largest multiple of
        // bound that fits in 64 bits.
        const uint64_t threshold = -bound % bound;
        for (;;) {
            const uint64_t r = next64();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** below(b.n), with b's precomputed threshold and reciprocal. */
    uint64_t
    below(const Bound &b)
    {
        for (;;) {
            const uint64_t r = next64();
            if (r >= b.threshold)
                return b.reduce(r);
        }
    }

    /**
     * Uniform integer in the inclusive range [lo, hi]. The full 64-bit
     * span is one raw draw; hi < lo throws std::invalid_argument.
     */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        if (hi < lo)
            throwEmptyRange(lo, hi);
        const uint64_t span =
            static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
        const uint64_t offset = span == 0 ? next64() : below(span);
        return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
    }

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Geometric-like sample: number of failures before first success
     * of a Bernoulli(p) process, capped at @p cap. A certain success
     * (p >= 1) draws nothing.
     */
    uint64_t
    geometric(double p, uint64_t cap)
    {
        return geometricChance(chanceThreshold(p), cap);
    }

    /** geometric(p, cap) for threshold = chanceThreshold(p), the form
     *  a generator with a fixed p precomputes. */
    uint64_t
    geometricChance(uint64_t threshold, uint64_t cap)
    {
        if (threshold >= kChanceOne)
            return 0;
        uint64_t n = 0;
        while (n < cap && !chance(threshold))
            ++n;
        return n;
    }

  private:
    static uint64_t
    nonzero(uint64_t bound)
    {
        if (bound == 0)
            throwZeroBound();
        return bound;
    }

    [[noreturn]] static void throwZeroBound();
    [[noreturn]] static void throwEmptyRange(int64_t lo, int64_t hi);

    uint64_t s_[4];
};

} // namespace mab

#endif // MAB_SIM_RNG_H
