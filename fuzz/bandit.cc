#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

#include "core/swucb.h"
#include "core/ucb.h"
#include "fuzz/domains.h"
#include "fuzz/shrink.h"
#include "sim/rng.h"

namespace mab::fuzz {

std::string
formatBanditCase(const BanditCase &c)
{
    std::ostringstream os;
    os << "bandit case: algo=" << mab::toString(c.algo)
       << " arms=" << c.mab.numArms << " gamma=" << c.mab.gamma
       << " c=" << c.mab.c << " eps=" << c.mab.epsilon
       << " norm=" << c.mab.normalizeRewards
       << " rrRestart=" << c.mab.rrRestartProb
       << " window=" << c.window << " steps=" << c.steps
       << " policySeed=" << c.mab.seed << " rewardSeed="
       << c.rewardSeed;
    return os.str();
}

BanditCase
genBanditCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 16));
    BanditCase c;
    const uint64_t pick = rng.below(100);
    if (pick < 40)
        c.algo = MabAlgorithm::Ducb;
    else if (pick < 65)
        c.algo = MabAlgorithm::SwUcb;
    else if (pick < 85)
        c.algo = MabAlgorithm::Ucb;
    else
        c.algo = MabAlgorithm::EpsilonGreedy;

    c.mab.numArms = 2 + static_cast<int>(rng.below(10));
    c.mab.gamma = 0.9 + rng.uniform() * 0.099;
    c.mab.c = rng.uniform(0.01, 0.5);
    c.mab.epsilon = rng.uniform(0.0, 0.3);
    c.mab.normalizeRewards = rng.bernoulli(0.5);
    c.mab.rrRestartProb =
        rng.bernoulli(0.25) ? rng.uniform(0.0, 0.04) : 0.0;
    c.mab.seed = subSeed(seed, 17);
    // Small windows so eviction actually triggers within the run.
    c.window = c.mab.numArms + static_cast<int>(rng.below(60));
    c.steps = 60 + static_cast<int>(rng.below(260));
    c.rewardSeed = subSeed(seed, 18);
    return c;
}

namespace {

/** Instantiate the policy a case describes. */
std::unique_ptr<MabPolicy>
makeCasePolicy(const BanditCase &c)
{
    if (c.algo == MabAlgorithm::SwUcb)
        return std::make_unique<SwUcb>(c.mab, c.window);
    return makePolicy(c.algo, c.mab);
}

/** Relative/absolute closeness for double-vs-long-double shadows. */
bool
close(double a, long double b, double tol = 1e-6)
{
    const long double diff = fabsl(static_cast<long double>(a) - b);
    const long double scale = std::max<long double>(
        {1.0L, fabsl(static_cast<long double>(a)), fabsl(b)});
    return diff <= tol * scale;
}

std::string
stepMsg(int step, const std::string &what)
{
    return "step " + std::to_string(step) + ": " + what;
}

} // namespace

std::string
diffBanditPolicy(MabPolicy &policy, const BanditCase &c)
{
    const int M = c.mab.numArms;
    Rng rew(c.rewardSeed);
    // Per-arm reward means with one abrupt phase change halfway — the
    // regime DUCB's discounting exists for.
    std::vector<double> mu(M), mu_late(M);
    for (int i = 0; i < M; ++i)
        mu[i] = rew.uniform(0.2, 1.8);
    for (int i = 0; i < M; ++i)
        mu_late[i] = rew.uniform(0.2, 1.8);

    const bool ucb_family =
        dynamic_cast<const Ucb *>(&policy) != nullptr;
    const bool is_ducb = c.algo == MabAlgorithm::Ducb;
    const bool is_sw = c.algo == MabAlgorithm::SwUcb;
    const long double gamma = c.mab.gamma;

    // Shadow state, all long double, updated by the long-form rules.
    std::vector<long double> r(M, 0.0L), n(M, 0.0L);
    long double n_total = 0.0L;
    long double r_avg = 1.0L;
    int seeded = 0;

    struct SwSample
    {
        int arm;
        long double reward;
        bool hasReward;
    };
    std::deque<SwSample> window;
    const auto windowSum = [&](int arm) {
        // Long-form: rescan the whole window instead of maintaining
        // the incremental sum the implementation keeps.
        long double sum = 0.0L;
        for (const SwSample &s : window) {
            if (s.arm == arm && s.hasReward)
                sum += s.reward;
        }
        return sum;
    };

    std::vector<int> sel_history; // post-seeding updSels, in order

    for (int step = 0; step < c.steps; ++step) {
        const bool rr_before = policy.inRoundRobin();
        std::vector<double> pre_scores;
        if (ucb_family && !rr_before)
            pre_scores = policy.selectionScores();

        const ArmId arm = policy.selectArm();
        if (arm < 0 || arm >= M)
            return stepMsg(step, "selected arm out of range");
        const bool rr_after = policy.inRoundRobin();

        if (ucb_family && !rr_before && !rr_after) {
            // Deterministic selection rule: the arm must maximize the
            // scores as they stood before the selection (first-max
            // tie break, matching Ucb::nextArm).
            ArmId best = 0;
            for (ArmId i = 1; i < M; ++i) {
                if (pre_scores[i] > pre_scores[best])
                    best = i;
            }
            if (arm != best)
                return stepMsg(step,
                               "selected arm " + std::to_string(arm) +
                                   " but argmax(scores) is " +
                                   std::to_string(best));
        }

        const bool seeding =
            policy.steps() < static_cast<uint64_t>(M);

        // Long-form updSels (selection-count update at select time).
        if (!seeding) {
            if (is_ducb) {
                for (long double &ni : n)
                    ni *= gamma;
                n_total = n_total * gamma + 1.0L;
                n[arm] += 1.0L;
                sel_history.push_back(arm);
            } else if (is_sw) {
                window.push_back({arm, 0.0L, false});
                n[arm] += 1.0L;
                n_total += 1.0L;
                while (static_cast<int>(window.size()) > c.window) {
                    const SwSample old = window.front();
                    window.pop_front();
                    if (old.hasReward) {
                        n[old.arm] -= 1.0L;
                        n_total -= 1.0L;
                        if (n[old.arm] > 0.5L)
                            r[old.arm] =
                                windowSum(old.arm) / n[old.arm];
                    }
                }
            } else {
                n[arm] += 1.0L;
                n_total += 1.0L;
            }
        }

        const double reward =
            (step < c.steps / 2 ? mu[arm] : mu_late[arm]) +
            rew.uniform(-0.2, 0.2);
        policy.observeReward(reward);

        // Long-form updRew (value update at observe time).
        if (seeding) {
            r[arm] = reward;
            n[arm] = 1.0L;
            n_total += 1.0L;
            if (++seeded == M && c.mab.normalizeRewards) {
                long double sum = 0.0L;
                for (const long double &ri : r)
                    sum += ri;
                r_avg = sum / M;
                if (r_avg <= 1e-12L) {
                    r_avg = 1.0L;
                } else {
                    for (long double &ri : r)
                        ri /= r_avg;
                }
            }
        } else {
            const long double rs = c.mab.normalizeRewards
                ? static_cast<long double>(reward) / r_avg
                : static_cast<long double>(reward);
            if (is_sw) {
                for (auto it = window.rbegin(); it != window.rend();
                     ++it) {
                    if (it->arm == arm && !it->hasReward) {
                        it->hasReward = true;
                        it->reward = rs;
                        break;
                    }
                }
                if (n[arm] > 0.5L)
                    r[arm] = windowSum(arm) / n[arm];
            } else if (n[arm] <= 0.0L) {
                r[arm] = rs;
                n[arm] = 1.0L;
            } else {
                r[arm] += (rs - r[arm]) / n[arm];
            }
        }

        // ---- compare implementation state against the shadow ----
        const std::vector<double> &ir = policy.armRewards();
        const std::vector<double> &in = policy.armCounts();
        for (int i = 0; i < M; ++i) {
            if (!std::isfinite(ir[i]) || !std::isfinite(in[i]))
                return stepMsg(step, "non-finite policy state");
            if (!close(ir[i], r[i]))
                return stepMsg(
                    step, "r[" + std::to_string(i) + "] impl=" +
                        std::to_string(ir[i]) + " ref=" +
                        std::to_string(static_cast<double>(r[i])));
            if (!close(in[i], n[i]))
                return stepMsg(
                    step, "n[" + std::to_string(i) + "] impl=" +
                        std::to_string(in[i]) + " ref=" +
                        std::to_string(static_cast<double>(n[i])));
        }
        if (!close(policy.totalCount(), n_total))
            return stepMsg(
                step,
                "nTotal impl=" + std::to_string(policy.totalCount()) +
                    " ref=" +
                    std::to_string(static_cast<double>(n_total)));
        if (seeded == M && !close(policy.rewardNormalizer(), r_avg))
            return stepMsg(
                step, "rAvg impl=" +
                    std::to_string(policy.rewardNormalizer()) +
                    " ref=" +
                    std::to_string(static_cast<double>(r_avg)));

        // Discounted-count identity: n_total tracks sum(n_i) under
        // every update rule (property check, not just differential).
        long double impl_sum = 0.0L;
        for (int i = 0; i < M; ++i)
            impl_sum += static_cast<long double>(in[i]);
        if (!close(policy.totalCount(), impl_sum, 1e-6))
            return stepMsg(step,
                           "count identity broken: nTotal=" +
                               std::to_string(policy.totalCount()) +
                               " sum(n_i)=" +
                               std::to_string(
                                   static_cast<double>(impl_sum)));

        // Selection scores recomputed long-form from the shadow.
        const std::vector<double> scores = policy.selectionScores();
        for (int i = 0; i < M; ++i) {
            long double expect;
            if (ucb_family) {
                const long double log_total =
                    logl(std::max<long double>(n_total, 1.0L));
                const long double ni =
                    std::max<long double>(n[i], 1e-9L);
                expect = r[i] + static_cast<long double>(c.mab.c) *
                        sqrtl(log_total / ni);
            } else {
                expect = r[i];
            }
            if (!close(scores[i], expect, 1e-5))
                return stepMsg(
                    step, "score[" + std::to_string(i) + "] impl=" +
                        std::to_string(scores[i]) + " ref=" +
                        std::to_string(static_cast<double>(expect)));
        }

        // DUCB closed form: counts recomputed as explicit sums of
        // gamma powers over the full selection history, completely
        // independent of the incremental recurrence.
        const bool checkpoint =
            step % 32 == 31 || step == c.steps - 1;
        if (is_ducb && checkpoint && seeded == M) {
            const size_t P = sel_history.size();
            std::vector<long double> cf(
                M, powl(gamma, static_cast<long double>(P)));
            for (size_t k = 0; k < P; ++k)
                cf[sel_history[k]] +=
                    powl(gamma, static_cast<long double>(P - 1 - k));
            for (int i = 0; i < M; ++i) {
                if (!close(in[i], cf[i], 1e-5))
                    return stepMsg(
                        step,
                        "closed-form n[" + std::to_string(i) +
                            "] impl=" + std::to_string(in[i]) +
                            " ref=" +
                            std::to_string(
                                static_cast<double>(cf[i])));
            }
        }
    }
    return "";
}

std::string
diffBanditCase(const BanditCase &c)
{
    std::unique_ptr<MabPolicy> policy = makeCasePolicy(c);
    return diffBanditPolicy(*policy, c);
}

BanditCase
shrinkBanditCase(const BanditCase &c)
{
    return shrinkCase(
        c, [](const BanditCase &t) { return !diffBanditCase(t).empty(); },
        {[](BanditCase &t) { return halveAbove(t.steps, 8); }},
        {[](BanditCase &t) { t.mab.normalizeRewards = false; },
         [](BanditCase &t) { t.mab.rrRestartProb = 0.0; }});
}

std::string
checkBandit(uint64_t seed, bool shrink)
{
    const BanditCase c = genBanditCase(seed);
    std::string err = diffBanditCase(c);
    if (!err.empty() && shrink)
        err += "\nminimized: " + formatBanditCase(shrinkBanditCase(c));
    return err;
}

std::string
describeBandit(uint64_t seed)
{
    return formatBanditCase(genBanditCase(seed));
}

} // namespace mab::fuzz
