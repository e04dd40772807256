#include "prefetch/pythia.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "trace/record.h"

namespace mab {

namespace {

uint64_t
hashMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 32;
    return x;
}

constexpr std::array<int, 4> kDegrees = {1, 2, 4, 6};

static_assert(PythiaPrefetcher::kMaxDegree ==
                  *std::max_element(kDegrees.begin(), kDegrees.end()),
              "an EQ entry holds the lines of the deepest action");

const PythiaConfig &
checkedConfig(const PythiaConfig &config)
{
    if (config.planeEntries < 1)
        throw std::invalid_argument(
            "PythiaConfig: planeEntries must be at least 1, got " +
            std::to_string(config.planeEntries));
    if (config.eqDepth < 0)
        throw std::invalid_argument(
            "PythiaConfig: eqDepth must be at least 0, got " +
            std::to_string(config.eqDepth));
    return config;
}

} // namespace

const std::array<int, 16> &
PythiaPrefetcher::offsets()
{
    static const std::array<int, 16> offs = {
        0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, -1, -2, -3, -6,
    };
    return offs;
}

const std::array<int, 4> &
PythiaPrefetcher::degrees()
{
    return kDegrees;
}

PythiaPrefetcher::PythiaPrefetcher(const PythiaConfig &config)
    : config_(checkedConfig(config)), rng_(config.seed),
      q0_(static_cast<size_t>(config.planeEntries) * kNumActions,
          config.qInit / 2.0),
      q1_(static_cast<size_t>(config.planeEntries) * kNumActions,
          config.qInit / 2.0),
      planeRecip_(remainderReciprocal(
          static_cast<uint64_t>(config.planeEntries))),
      eq_(static_cast<size_t>(config.eqDepth) + 1),
      pending_(kMaxDegree * (static_cast<size_t>(config.eqDepth) + 1))
{
}

uint64_t
PythiaPrefetcher::storageBytes() const
{
    // Two feature planes of int16 Q-values plus the EQ metadata:
    // 2 x 96 x 64 x 2B = 24KB QVStore + ~1.5KB EQ, matching the
    // ~25.5KB the paper reports for Pythia.
    return 2ull * config_.planeEntries * kNumActions * 2 +
        static_cast<uint64_t>(config_.eqDepth) * 12;
}

void
PythiaPrefetcher::reset()
{
    std::fill(q0_.begin(), q0_.end(), config_.qInit / 2.0);
    std::fill(q1_.begin(), q1_.end(), config_.qInit / 2.0);
    eqHead_ = 0;
    eqSize_ = 0;
    pending_.clear();
    eqNextId_ = 0;
    eqBaseId_ = 0;
    lastLine_ = 0;
    delta1_ = 0;
    delta2_ = 0;
    actionCounts_.fill(0);
    rng_.reseed(config_.seed);
}

int
PythiaPrefetcher::planeIndex(uint64_t key) const
{
    return static_cast<int>(remainderBy(
        planeRecip_, static_cast<uint64_t>(config_.planeEntries), key));
}

int
PythiaPrefetcher::featurePc(uint64_t pc) const
{
    return planeIndex(hashMix(pc));
}

int
PythiaPrefetcher::featureDeltas() const
{
    return planeIndex(hashMix(static_cast<uint64_t>(delta1_) * 131 +
                              static_cast<uint64_t>(delta2_) * 7 + 3));
}

double
PythiaPrefetcher::qValue(int f0, int f1, int a) const
{
    return q0_[static_cast<size_t>(f0) * kNumActions + a] +
        q1_[static_cast<size_t>(f1) * kNumActions + a];
}

int
PythiaPrefetcher::selectAction(int f0, int f1)
{
    if (rng_.bernoulli(config_.epsilon))
        return static_cast<int>(rng_.below(kNumActions));
#ifdef __SSE2__
    // The first maximum of the 64 sums, as the strict-> scan below
    // finds it: a packed add is the same IEEE add as the scalar one,
    // and == treats +0 and -0 alike, as the scan's > does. Where a
    // sum is NaN the scan's answer depends on where the NaN sits, so
    // any NaN falls through to the scan.
    const double *p0 = q0_.data() + static_cast<size_t>(f0) * kNumActions;
    const double *p1 = q1_.data() + static_cast<size_t>(f1) * kNumActions;
    alignas(16) double sums[kNumActions];
    __m128d vmax =
        _mm_set1_pd(-std::numeric_limits<double>::infinity());
    __m128d unordered = _mm_setzero_pd();
    for (int a = 0; a < kNumActions; a += 2) {
        const __m128d s =
            _mm_add_pd(_mm_loadu_pd(p0 + a), _mm_loadu_pd(p1 + a));
        _mm_store_pd(sums + a, s);
        vmax = _mm_max_pd(vmax, s);
        unordered = _mm_or_pd(unordered, _mm_cmpunord_pd(s, s));
    }
    if (_mm_movemask_pd(unordered) == 0) {
        const double best_q =
            std::max(_mm_cvtsd_f64(vmax),
                     _mm_cvtsd_f64(_mm_unpackhi_pd(vmax, vmax)));
        int a = 0;
        while (sums[a] != best_q)
            ++a;
        return a;
    }
#endif
    int best = 0;
    double best_q = qValue(f0, f1, 0);
    for (int a = 1; a < kNumActions; ++a) {
        const double q = qValue(f0, f1, a);
        if (q > best_q) {
            best_q = q;
            best = a;
        }
    }
    return best;
}

PythiaPrefetcher::EqEntry &
PythiaPrefetcher::eqAt(int age)
{
    int pos = eqHead_ + age;
    if (pos >= static_cast<int>(eq_.size()))
        pos -= static_cast<int>(eq_.size());
    return eq_[static_cast<size_t>(pos)];
}

void
PythiaPrefetcher::retireOldest()
{
    // The slot stays intact until a later decision reuses it.
    const EqEntry &e = eq_[static_cast<size_t>(eqHead_)];
    eqHead_ = eqHead_ + 1 == static_cast<int>(eq_.size()) ? 0 : eqHead_ + 1;
    --eqSize_;
    const int retired_id = eqBaseId_++;

    for (int i = 0; i < e.numPredicted; ++i) {
        const uint64_t line = e.predictedLines[i];
        const int *id = pending_.find(line);
        if (id && *id == retired_id)
            pending_.erase(line);
    }

    double reward;
    if (e.issued) {
        // Per-line reward: every timely covered line earns credit,
        // every uncovered line costs a bandwidth-scaled penalty.
        // Deep accurate actions (high degree) therefore strictly
        // dominate shallow ones — the pressure that drives Pythia
        // toward deep lookahead on streams.
        const double timely = static_cast<double>(e.timelyHits);
        const double late = static_cast<double>(e.lateHits);
        const double miss =
            static_cast<double>(e.numPredicted) - timely - late;
        reward = timely * config_.rewardHit +
            late * config_.rewardLate +
            miss * (config_.rewardMiss -
                    config_.bwPenaltyScale * e.bwUtil);
    } else {
        reward = config_.rewardNone +
            0.5 * config_.bwPenaltyScale * e.bwUtil;
    }

    // SARSA: the next decision in program order provides (s', a').
    double q_next = 0.0;
    if (eqSize_ > 0) {
        const EqEntry &n = eqAt(0);
        q_next = qValue(n.f0, n.f1, n.action);
    }

    const double q_sa = qValue(e.f0, e.f1, e.action);
    const double delta = reward + config_.gamma * q_next - q_sa;
    const double step = config_.alpha * delta * 0.5;
    q0_[static_cast<size_t>(e.f0) * kNumActions + e.action] += step;
    q1_[static_cast<size_t>(e.f1) * kNumActions + e.action] += step;
}

void
PythiaPrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    // Reward matching: did this demand access validate a prediction?
    if (const int *id = pending_.find(static_cast<uint64_t>(line))) {
        const int idx = *id - eqBaseId_;
        if (idx >= 0 && idx < eqSize_) {
            EqEntry &entry = eqAt(idx);
            const uint64_t elapsed = access.cycle - entry.issueCycle;
            if (elapsed >= config_.lateThresholdCycles)
                ++entry.timelyHits;
            else
                ++entry.lateHits;
        }
        pending_.erase(static_cast<uint64_t>(line));
    }

    const int f0 = featurePc(access.pc);
    const int f1 = featureDeltas();
    const int action = selectAction(f0, f1);
    ++actionCounts_[action];

    const int offset = offsets()[action >> 2];
    const int degree = degrees()[action & 3];

    // The ring has a free slot: at most eqDepth entries survive the
    // previous access.
    EqEntry &entry = eqAt(eqSize_);
    entry = EqEntry{};
    entry.f0 = f0;
    entry.f1 = f1;
    entry.action = action;
    entry.issued = offset != 0;
    entry.bwUtil = bwProbe_ ? bwProbe_(access.cycle) : 0.0;
    entry.issueCycle = access.cycle;

    if (offset != 0) {
        // A degree-d action applies the offset d times (a run of
        // strided lookaheads: works for unit streams and for larger
        // strides alike).
        for (int i = 1; i <= degree; ++i) {
            const int64_t target = line +
                static_cast<int64_t>(offset) * i;
            if (target <= 0)
                continue;
            // Always re-issue (the L2 filters lines it already has,
            // and re-issuing heals prefetches dropped on full
            // queues), but credit each line to a single in-flight
            // decision so overlapping deep actions don't penalize
            // each other.
            out.push_back(static_cast<uint64_t>(target) * kLineBytes);
            if (pending_.find(static_cast<uint64_t>(target)))
                continue;
            entry.predictedLines[entry.numPredicted++] =
                static_cast<uint64_t>(target);
            pending_.insert(static_cast<uint64_t>(target), eqNextId_);
        }
        // A fully covered expansion keeps issued=true with no novel
        // lines; its reward is neutral (0), not the no-prefetch one.
    }

    ++eqSize_;
    ++eqNextId_;
    while (eqSize_ > config_.eqDepth)
        retireOldest();

    // Update the delta history after the decision.
    const int64_t d = line - lastLine_;
    if (d != 0) {
        delta2_ = delta1_;
        delta1_ = d;
    }
    lastLine_ = line;
}

} // namespace mab
