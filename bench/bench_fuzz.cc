/**
 * @file
 * Differential-fuzzing driver (sim/fuzz.h): random-but-valid cache op
 * streams, bandit rollouts, end-to-end CoreModel runs and sweep grids,
 * each derived from a replayable uint64 seed, checked against naive
 * reference models and structural property checks.
 *
 *   bench_fuzz                          200 iterations from seed 1
 *   bench_fuzz --iters 1000 --seed 7    fixed-budget campaign
 *   bench_fuzz --max-seconds 60         time-capped campaign (CI)
 *   bench_fuzz --replay <caseSeed>      re-run one failing case
 *   bench_fuzz --replay <seed> --shrink ...and minimize the witness
 *   bench_fuzz --domain drift           restrict to one oracle domain
 *                                       (cache, bandit, sim, replay,
 *                                       lockstep, drift, smt, sweep)
 *   bench_fuzz --self-test              prove the harness catches
 *                                       planted cache bugs and shrinks
 *                                       them to short repros
 *
 * Exit codes: 0 = all checks passed, 1 = mismatch or property
 * violation (repro lines printed), 2 = usage error.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common.h"
#include "sim/fuzz.h"

namespace {

using namespace mab;
using namespace mab::bench;

void
printFailures(const fuzz::FuzzReport &report)
{
    for (const fuzz::FuzzFailure &f : report.failures) {
        std::printf("FAIL [%s] case seed %" PRIu64 "\n%s\n",
                    f.domain.c_str(), f.caseSeed, f.message.c_str());
        std::printf("repro: %s\n", f.repro.c_str());
    }
}

void
printSummary(const fuzz::FuzzReport &report)
{
    std::printf("fuzz: %" PRIu64 " iterations (%" PRIu64
                " cache, %" PRIu64 " bandit, %" PRIu64
                " sim, %" PRIu64 " replay, %" PRIu64
                " lockstep, %" PRIu64 " drift, %" PRIu64
                " smt, %" PRIu64 " sweep cases), %zu failure(s)\n",
                report.iterations, report.cacheCases,
                report.banditCases, report.simCases,
                report.replayCases, report.lockstepCases,
                report.driftCases, report.smtCases, report.sweepCases,
                report.failures.size());
}

/**
 * Harness self-test: every planted cache mutation must be caught by
 * the differential loop within a bounded number of case seeds, and the
 * shrinker must reduce the witness to a short repro. This is the
 * standing proof that a real regression in the single-pass fill probe
 * would be noticed.
 */
int
runSelfTest(uint64_t seed_base)
{
    constexpr int kMaxSeeds = 50;
    constexpr size_t kMaxShrunkOps = 20;
    bool ok = true;
    for (const fuzz::CacheMutation m : fuzz::allCacheMutations()) {
        const fuzz::CacheModelFactory mutant =
            fuzz::mutantCacheFactory(m);
        bool caught = false;
        for (int i = 0; i < kMaxSeeds && !caught; ++i) {
            const uint64_t cs = fuzz::iterationSeed(seed_base, i);
            const fuzz::CacheCase c =
                fuzz::genCacheCase(fuzz::subSeed(cs, 1));
            const std::string err = fuzz::diffCacheCase(c, mutant);
            if (err.empty())
                continue;
            caught = true;
            const fuzz::CacheCase min = fuzz::shrinkCacheCase(c, mutant);
            std::printf("mutant %-28s caught at seed #%d, "
                        "shrunk %zu -> %zu ops\n",
                        fuzz::toString(m), i, c.ops.size(),
                        min.ops.size());
            if (min.ops.size() > kMaxShrunkOps) {
                std::printf("  ERROR: shrunk repro exceeds %zu ops\n",
                            kMaxShrunkOps);
                ok = false;
            }
        }
        if (!caught) {
            std::printf("mutant %-28s NOT caught in %d seeds\n",
                        fuzz::toString(m), kMaxSeeds);
            ok = false;
        }
    }
    std::printf("self-test: %s\n", ok ? "all mutants caught" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    fuzz::FuzzOptions opt;

    const auto usageError = [](const std::string &msg) {
        std::fprintf(stderr, "%s\n", msg.c_str());
        return 2;
    };

    const char *v = nullptr;
    std::string err = findFlagValue(argc, argv, "--iters", &v);
    if (!err.empty())
        return usageError(err);
    if (v && !parseUint64(v, &opt.iters))
        return usageError(
            std::string("usage error: --iters needs an unsigned "
                        "integer, got '") +
            v + "'");

    err = findFlagValue(argc, argv, "--seed", &v);
    if (!err.empty())
        return usageError(err);
    if (v && !parseUint64(v, &opt.seedBase))
        return usageError(
            std::string("usage error: --seed needs an unsigned "
                        "integer, got '") +
            v + "'");

    err = findFlagValue(argc, argv, "--max-seconds", &v);
    if (!err.empty())
        return usageError(err);
    if (v) {
        char *end = nullptr;
        opt.maxSeconds = std::strtod(v, &end);
        if (end == v || *end != '\0' || opt.maxSeconds <= 0.0)
            return usageError(
                std::string("usage error: --max-seconds needs a "
                            "positive number, got '") +
                v + "'");
    }

    uint64_t replay_seed = 0;
    bool replay = false;
    err = findFlagValue(argc, argv, "--replay", &v);
    if (!err.empty())
        return usageError(err);
    if (v) {
        if (!parseUint64(v, &replay_seed))
            return usageError(
                std::string("usage error: --replay needs a case "
                            "seed, got '") +
                v + "'");
        replay = true;
    }

    err = findFlagValue(argc, argv, "--domain", &v);
    if (!err.empty())
        return usageError(err);
    if (v) {
        static const char *const kDomains[] = {
            "cache",    "bandit", "sim", "replay",
            "lockstep", "drift",  "smt", "sweep"};
        bool known = false;
        for (const char *d : kDomains)
            known = known || std::strcmp(v, d) == 0;
        if (!known)
            return usageError(
                std::string("usage error: unknown --domain '") + v +
                "' (cache, bandit, sim, replay, lockstep, drift, "
                "smt, sweep)");
        opt.domain = v;
    }

    opt.shrink = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--shrink") == 0)
            opt.shrink = true;
    }

    int jobs = 1;
    err = resolveJobs(argc, argv, std::getenv("MAB_BENCH_JOBS"),
                      &jobs);
    if (!err.empty())
        return usageError(err);
    opt.jobs = jobs;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--self-test") == 0)
            return runSelfTest(opt.seedBase);
    }

    if (replay) {
        fuzz::FuzzReport report;
        fuzz::runFuzzIteration(replay_seed, report, opt.shrink,
                               opt.domain);
        printSummary(report);
        if (!report.ok()) {
            printFailures(report);
            return 1;
        }
        std::printf("case seed %" PRIu64 ": all checks passed\n",
                    replay_seed);
        return 0;
    }

    const fuzz::FuzzReport report = fuzz::runFuzz(opt);
    printSummary(report);
    if (!report.ok()) {
        printFailures(report);
        return 1;
    }
    return 0;
}
