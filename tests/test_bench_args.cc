#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common.h"

/**
 * Bench arg-parsing edge cases (ISSUE 4 satellite, extending the PR 3
 * `argValue` flag-needs-value fix): duplicate flags, negative or
 * non-numeric `--jobs`, and flags with missing values must produce
 * usage errors instead of being silently clamped or atoi'd to 0. The
 * tests target the non-exiting cores (findFlagValue / parseInt64 /
 * parseUint64 / resolveJobs); the argValue / benchJobs wrappers print
 * the same message and exit 2.
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

TEST(ResolveShards, DefaultsToOff)
{
    Args args({});
    ShardSpec spec;
    EXPECT_EQ(resolveShards(args.argc(), args.argv(), nullptr,
                            nullptr, &spec),
              "");
    EXPECT_EQ(spec.shards, 1);
    EXPECT_EQ(spec.shardId, -1) << "no worker role by default";
}

TEST(ResolveShards, FlagsSelectCountAndId)
{
    Args args({"--shards", "4", "--shard-id", "2"});
    ShardSpec spec;
    EXPECT_EQ(resolveShards(args.argc(), args.argv(), nullptr,
                            nullptr, &spec),
              "");
    EXPECT_EQ(spec.shards, 4);
    EXPECT_EQ(spec.shardId, 2);
}

TEST(ResolveShards, FlagOutranksEnvironment)
{
    Args args({"--shards", "3"});
    ShardSpec spec;
    EXPECT_EQ(
        resolveShards(args.argc(), args.argv(), "8", "1", &spec), "");
    EXPECT_EQ(spec.shards, 3) << "the flag outranks the environment";
    EXPECT_EQ(spec.shardId, 1)
        << "each knob falls back to the environment independently";

    // The env id is validated against the effective (flag) count.
    ShardSpec bad;
    const std::string err =
        resolveShards(args.argc(), args.argv(), "8", "5", &bad);
    EXPECT_NE(err.find("must be below"), std::string::npos) << err;
}

TEST(ResolveShards, EnvironmentAloneConfiguresAWorker)
{
    Args args({});
    ShardSpec spec;
    EXPECT_EQ(
        resolveShards(args.argc(), args.argv(), "4", "0", &spec), "");
    EXPECT_EQ(spec.shards, 4);
    EXPECT_EQ(spec.shardId, 0);
}

TEST(ResolveShards, DuplicateFlagIsAUsageError)
{
    Args args({"--shards", "2", "--shards", "4"});
    ShardSpec spec;
    const std::string err = resolveShards(args.argc(), args.argv(),
                                          nullptr, nullptr, &spec);
    EXPECT_NE(err.find("duplicate --shards"), std::string::npos)
        << err;
}

TEST(ResolveShards, NonPositiveCountIsAUsageError)
{
    for (const char *bad : {"0", "-2", "many", "2.5", ""}) {
        Args args({"--shards", bad});
        ShardSpec spec;
        const std::string err = resolveShards(
            args.argc(), args.argv(), nullptr, nullptr, &spec);
        EXPECT_NE(err.find("usage error"), std::string::npos)
            << "--shards " << bad << ": " << err;
        EXPECT_EQ(spec.shards, 1)
            << "the out-param stays at the safe default";
    }
}

TEST(ResolveShards, ShardIdWithoutACountIsAUsageError)
{
    Args args({"--shard-id", "0"});
    ShardSpec spec;
    const std::string err = resolveShards(args.argc(), args.argv(),
                                          nullptr, nullptr, &spec);
    EXPECT_NE(err.find("needs --shards"), std::string::npos) << err;
}

TEST(ResolveShards, NegativeOrNonNumericIdIsAUsageError)
{
    for (const char *bad : {"-1", "two", "1.0"}) {
        Args args({"--shards", "4", "--shard-id", bad});
        ShardSpec spec;
        const std::string err = resolveShards(
            args.argc(), args.argv(), nullptr, nullptr, &spec);
        EXPECT_NE(err.find("usage error"), std::string::npos)
            << "--shard-id " << bad << ": " << err;
        EXPECT_EQ(spec.shardId, -1);
    }
}

TEST(ResolveShards, IdAtOrAboveTheCountIsAUsageError)
{
    for (const char *bad : {"4", "9"}) {
        Args args({"--shards", "4", "--shard-id", bad});
        ShardSpec spec;
        const std::string err = resolveShards(
            args.argc(), args.argv(), nullptr, nullptr, &spec);
        EXPECT_NE(err.find("must be below"), std::string::npos)
            << "--shard-id " << bad << ": " << err;
    }
}

} // namespace
} // namespace mab::bench
