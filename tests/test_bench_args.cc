#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common.h"

/**
 * Bench arg-parsing edge cases: duplicate flags, negative or
 * non-numeric `--jobs`, a malformed MAB_BENCH_SCALE or trace
 * granularity, flags with missing values and unknown prefetcher names
 * must produce usage errors (or abort) instead of being silently
 * clamped, atoi'd to 0 or run as a default. The tests
 * target the non-exiting cores (findFlagValue / parseInt64 /
 * parseUint64 / resolveJobs / resolveScale / scaledBudget /
 * resolveGranularity); the argValue / benchJobs / benchScale /
 * scaled / TracingSession wrappers print the same message and exit 2.
 */

namespace mab::bench {
namespace {

/** argv builder: keeps the strings alive, hands out char* vectors. */
class Args
{
  public:
    explicit Args(std::vector<std::string> tokens)
        : tokens_(std::move(tokens))
    {
        argv_.push_back(const_cast<char *>("bench"));
        for (std::string &t : tokens_)
            argv_.push_back(t.data());
    }

    int argc() const { return static_cast<int>(argv_.size()); }
    char **argv() { return argv_.data(); }

  private:
    std::vector<std::string> tokens_;
    std::vector<char *> argv_;
};

TEST(FindFlagValue, ReturnsValueAndNullWhenAbsent)
{
    Args args({"--seed", "7", "--shrink"});
    const char *v = nullptr;
    EXPECT_EQ(findFlagValue(args.argc(), args.argv(), "--seed", &v),
              "");
    ASSERT_NE(v, nullptr);
    EXPECT_STREQ(v, "7");

    EXPECT_EQ(findFlagValue(args.argc(), args.argv(), "--iters", &v),
              "");
    EXPECT_EQ(v, nullptr);
}

TEST(FindFlagValue, FlagAsFinalTokenIsAUsageError)
{
    Args args({"--iters", "10", "--replay"});
    const char *v = nullptr;
    const std::string err =
        findFlagValue(args.argc(), args.argv(), "--replay", &v);
    EXPECT_NE(err.find("--replay needs a value"), std::string::npos)
        << err;
}

TEST(FindFlagValue, DuplicateFlagIsAUsageError)
{
    Args args({"--jobs", "2", "--jobs", "4"});
    const char *v = nullptr;
    const std::string err =
        findFlagValue(args.argc(), args.argv(), "--jobs", &v);
    EXPECT_NE(err.find("duplicate --jobs"), std::string::npos) << err;
}

TEST(FindFlagValue, FlagValuedWithAFlagLiteralIsConsumed)
{
    // The flag consumes the next token verbatim; "--jobs --jobs" is
    // one occurrence whose (nonsensical) value fails numeric parsing
    // downstream, not a duplicate.
    Args args({"--jobs", "--jobs"});
    const char *v = nullptr;
    EXPECT_EQ(findFlagValue(args.argc(), args.argv(), "--jobs", &v),
              "");
    ASSERT_NE(v, nullptr);
    EXPECT_STREQ(v, "--jobs");
}

TEST(StrictParsers, AcceptWholeTokenNumbersOnly)
{
    int64_t i = 0;
    EXPECT_TRUE(parseInt64("42", &i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseInt64("-3", &i));
    EXPECT_EQ(i, -3);
    EXPECT_FALSE(parseInt64("", &i));
    EXPECT_FALSE(parseInt64("abc", &i));
    EXPECT_FALSE(parseInt64("4x", &i));
    EXPECT_FALSE(parseInt64(nullptr, &i));

    uint64_t u = 0;
    EXPECT_TRUE(parseUint64("18446744073709551615", &u));
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_FALSE(parseUint64("-1", &u));
    EXPECT_FALSE(parseUint64("+1", &u));
    EXPECT_FALSE(parseUint64("1.5", &u));
    EXPECT_FALSE(parseUint64("99999999999999999999999", &u));
}

TEST(ResolveJobs, DefaultsToSerial)
{
    Args args({});
    int jobs = 0;
    EXPECT_EQ(resolveJobs(args.argc(), args.argv(), nullptr, &jobs),
              "");
    EXPECT_EQ(jobs, 1);
}

TEST(ResolveJobs, FlagAndEnvSelectTheCount)
{
    Args args({"--jobs", "3"});
    int jobs = 0;
    EXPECT_EQ(resolveJobs(args.argc(), args.argv(), "8", &jobs), "");
    EXPECT_EQ(jobs, 3) << "the flag outranks the environment";

    Args noflag({});
    EXPECT_EQ(resolveJobs(noflag.argc(), noflag.argv(), "8", &jobs),
              "");
    EXPECT_EQ(jobs, 8);
}

TEST(ResolveJobs, ZeroStillSelectsHardwareConcurrency)
{
    // Documented behavior: --jobs 0 = hardware concurrency. Only
    // negative and non-numeric counts are usage errors.
    Args args({"--jobs", "0"});
    int jobs = 0;
    EXPECT_EQ(resolveJobs(args.argc(), args.argv(), nullptr, &jobs),
              "");
    EXPECT_EQ(jobs, SweepRunner::hardwareJobs());
    EXPECT_GE(jobs, 1);
}

TEST(ResolveJobs, NegativeCountIsAUsageError)
{
    Args args({"--jobs", "-3"});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), nullptr, &jobs);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
    EXPECT_EQ(jobs, 1) << "the out-param stays at the safe default";
}

TEST(ResolveJobs, NonNumericCountIsAUsageError)
{
    // The old code atoi'd this to 0 and silently fanned out to every
    // hardware thread.
    Args args({"--jobs", "many"});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), nullptr, &jobs);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
    EXPECT_EQ(jobs, 1);
}

TEST(ResolveJobs, NegativeEnvironmentIsAUsageErrorToo)
{
    Args args({});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), "-2", &jobs);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
}

TEST(ResolveJobs, DuplicateFlagIsAUsageError)
{
    Args args({"--jobs", "2", "--jobs", "4"});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), nullptr, &jobs);
    EXPECT_NE(err.find("duplicate --jobs"), std::string::npos) << err;
}

TEST(ResolveScale, UnsetDefaultsToOne)
{
    double scale = 0.0;
    EXPECT_EQ(resolveScale(nullptr, &scale), "");
    EXPECT_EQ(scale, 1.0);
}

TEST(ResolveScale, AcceptsAFinitePositiveNumber)
{
    double scale = 0.0;
    EXPECT_EQ(resolveScale("0.01", &scale), "");
    EXPECT_EQ(scale, 0.01);
    EXPECT_EQ(resolveScale("10", &scale), "");
    EXPECT_EQ(scale, 10.0);
}

TEST(ResolveScale, RejectsEverythingElseNamingTheValue)
{
    // atof would run abc, -2 and nan at scale 1, and hand inf and
    // 1e400 to an out-of-range double -> uint64 cast.
    for (const char *bad :
         {"abc", "-2", "0", "nan", "inf", "1e400", "0.5x", "", " 1"}) {
        double scale = 0.0;
        const std::string err = resolveScale(bad, &scale);
        EXPECT_NE(err.find("usage error"), std::string::npos)
            << "'" << bad << "': " << err;
        EXPECT_NE(err.find(std::string("'") + bad + "'"),
                  std::string::npos)
            << "the message names the value: " << err;
        EXPECT_EQ(scale, 1.0) << "the out-param stays at the default";
    }
}

TEST(ResolveScale, BudgetMustLandInRange)
{
    uint64_t budget = 7;
    EXPECT_EQ(scaledBudget(1'000'000, 0.01, &budget), "");
    EXPECT_EQ(budget, 10'000u);
    EXPECT_EQ(scaledBudget(0, 1e-9, &budget), "")
        << "a zero budget stays zero at any scale";
    EXPECT_EQ(budget, 0u);

    // 1e-9 turns a 1M budget into 0.001 instructions: a table of
    // zero IPCs, not a run.
    std::string err = scaledBudget(1'000'000, 1e-9, &budget);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
    EXPECT_NE(err.find("1e-09"), std::string::npos) << err;
    EXPECT_EQ(budget, 0u);

    // 1e30 overflows uint64: the product has no budget value at all.
    err = scaledBudget(1'000'000, 1e30, &budget);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
    EXPECT_NE(err.find("1e+30"), std::string::npos) << err;
}

TEST(ResolveGranularity, UnsetKeepsTheTracerDefault)
{
    Args args({});
    uint64_t cycles = 9;
    EXPECT_EQ(
        resolveGranularity(args.argc(), args.argv(), nullptr, &cycles),
        "");
    EXPECT_EQ(cycles, 0u);
}

TEST(ResolveGranularity, FlagOutranksEnvironment)
{
    Args args({"--trace-granularity", "500"});
    uint64_t cycles = 0;
    EXPECT_EQ(
        resolveGranularity(args.argc(), args.argv(), "2000", &cycles),
        "");
    EXPECT_EQ(cycles, 500u);

    Args noflag({});
    EXPECT_EQ(resolveGranularity(noflag.argc(), noflag.argv(), "2000",
                                 &cycles),
              "");
    EXPECT_EQ(cycles, 2000u);
}

TEST(ResolveGranularity, NonPositiveOrNonNumericIsAUsageError)
{
    // strtoull would turn -5 into 2^64 - 5 (a sampler that never
    // fires) and abc into 0, which the tracer ignores.
    for (const char *bad : {"abc", "-5", "0", "12x"}) {
        Args args({"--trace-granularity", bad});
        uint64_t cycles = 0;
        const std::string err = resolveGranularity(
            args.argc(), args.argv(), nullptr, &cycles);
        EXPECT_NE(err.find("usage error"), std::string::npos)
            << "--trace-granularity " << bad << ": " << err;
        EXPECT_EQ(cycles, 0u);

        Args noflag({});
        EXPECT_NE(resolveGranularity(noflag.argc(), noflag.argv(), bad,
                                     &cycles),
                  "")
            << "MAB_TRACE_GRANULARITY=" << bad;
    }
}

TEST(ResolveGranularity, DuplicateFlagIsAUsageError)
{
    Args args({"--trace-granularity", "100", "--trace-granularity",
               "200"});
    uint64_t cycles = 0;
    const std::string err =
        resolveGranularity(args.argc(), args.argv(), nullptr, &cycles);
    EXPECT_NE(err.find("duplicate --trace-granularity"),
              std::string::npos)
        << err;
}

TEST(MakePrefetcher, BanditSuffixBuildsTheNamedAlgorithm)
{
    // Hierarchical is the last MabAlgorithm enumerator.
    for (int a = 0; a <= static_cast<int>(MabAlgorithm::Hierarchical);
         ++a) {
        const std::string algo = toString(static_cast<MabAlgorithm>(a));
        SCOPED_TRACE(algo);
        const std::unique_ptr<Prefetcher> pf =
            makePrefetcher("Bandit:" + algo, 1);
        const auto *ctrl =
            dynamic_cast<const BanditPrefetchController *>(pf.get());
        ASSERT_NE(ctrl, nullptr);
        EXPECT_EQ(ctrl->agent().policy().name(), algo);
    }
}

TEST(MakePrefetcherDeathTest, UnknownBanditAlgorithmAborts)
{
    // A typo used to run DUCB under the misspelled label.
    EXPECT_DEATH(makePrefetcher("Bandit:DUBC", 1),
                 "unknown prefetcher: Bandit:DUBC");
}

} // namespace
} // namespace mab::bench
