/**
 * @file
 * Differential-fuzzing driver (fuzz/fuzz.h): seeded random cases of
 * every registered domain, each derived from a replayable uint64 seed,
 * checked against naive reference models and structural property
 * checks.
 *
 *   bench_fuzz                          200 iterations from seed 1
 *   bench_fuzz --iters 1000 --seed 7    fixed-budget campaign
 *   bench_fuzz --max-seconds 60         time-capped campaign (CI)
 *   bench_fuzz --replay <caseSeed>      re-run one failing case
 *   bench_fuzz --replay <seed> --shrink ...and minimize the witness
 *   bench_fuzz --domain drift           restrict to one registered
 *                                       domain (see fuzz/registry.cc)
 *   bench_fuzz --self-test              prove the harness catches
 *                                       planted bugs and shrinks them
 *                                       to short repros
 *
 * Exit codes: 0 = all checks passed, 1 = mismatch or property
 * violation (repro lines printed), 2 = usage error.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "fuzz/fuzz.h"
#include "sweep.h"

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
    std::printf("fuzz: %" PRIu64 " iterations (", report.iterations);
    for (size_t i = 0; i < report.cases.size(); ++i)
        std::printf("%s%" PRIu64 " %s", i ? ", " : "", report.cases[i],
                    fuzz::domains()[i].name);
    std::printf(" cases), %zu failure(s)\n", report.failures.size());
}

/** Every domain's planted-fault proof (Domain::selfTest). */
int
runSelfTest(uint64_t seed_base)
{
    bool ok = true;
    for (const fuzz::Domain &d : fuzz::domains()) {
        if (!d.selfTest)
            continue;
        std::string log;
        ok = d.selfTest(seed_base, d.lane, log) && ok;
        std::fputs(log.c_str(), stdout);
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

    std::string err = checkFlags(
        argc, argv,
        {{"--iters", "n"}, {"--seed", "n"}, {"--max-seconds", "s"},
         {"--replay", "caseSeed"}, {"--domain", "name"}, {"--jobs", "n"},
         {"--shrink", nullptr}, {"--self-test", nullptr}});
    if (!err.empty())
        return usageError(err);
    // The table vetted every flag, so a lookup cannot fail; a switch
    // is present when its name is.
    const auto value = [&](const char *flag) {
        const char *v = nullptr;
        findFlagValue(argc, argv, flag, &v);
        return v;
    };
    const auto given = [&](const char *flag) {
        return std::find_if(argv + 1, argv + argc, [&](const char *a) {
                   return std::strcmp(a, flag) == 0;
               }) != argv + argc;
    };

    const char *v = value("--iters");
    if (v && (!parseUint64(v, &opt.iters) || opt.iters == 0))
        return usageError(
            std::string("usage error: --iters needs an integer above "
                        "0, got '") +
            v + "'");

    v = value("--seed");
    if (v && !parseUint64(v, &opt.seedBase))
        return usageError(
            std::string("usage error: --seed needs an unsigned "
                        "integer, got '") +
            v + "'");

    // MAB_BENCH_SCALE's rule: one whole token holding a finite number
    // above 0, no ERANGE. inf and 1e999 would lift the time cap, and
    // nan would silently fall back to the iteration cap.
    v = value("--max-seconds");
    if (v && !resolveScale(v, &opt.maxSeconds).empty())
        return usageError(
            std::string("usage error: --max-seconds needs a finite "
                        "number above 0, got '") +
            v + "'");

    uint64_t replay_seed = 0;
    const bool replay = (v = value("--replay")) != nullptr;
    if (replay && !parseUint64(v, &replay_seed))
        return usageError(
            std::string("usage error: --replay needs a case seed, got '") +
            v + "'");

    v = value("--domain");
    if (v) {
        if (!fuzz::findDomain(v))
            return usageError(
                std::string("usage error: unknown --domain '") + v +
                "' (" + fuzz::domainNames() + ")");
        opt.domain = v;
    }
    opt.shrink = given("--shrink");

    int jobs = 1;
    err = resolveJobs(argc, argv, std::getenv("MAB_BENCH_JOBS"),
                      &jobs);
    if (!err.empty())
        return usageError(err);
    opt.jobs = jobs;

    if (given("--self-test"))
        return runSelfTest(opt.seedBase);

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
