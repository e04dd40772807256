#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "trace/suites.h"
#include "trace/trace_io.h"

namespace mab {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per case and process: ctest runs each case as its
        // own process, concurrently under -j.
        path_ = ::testing::TempDir() + "mab_trace_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".mabt";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceIoTest, RoundTripPreservesRecords)
{
    SyntheticTrace original(appByName("gcc06"));
    ASSERT_TRUE(trace_io::write(path_, original, 5000));

    original.reset();
    FileTrace replay(path_);
    ASSERT_EQ(replay.size(), 5000u);
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord a = original.next();
        const TraceRecord b = replay.next();
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.isLoad, b.isLoad);
        ASSERT_EQ(a.isStore, b.isStore);
        ASSERT_EQ(a.isBranch, b.isBranch);
        ASSERT_EQ(a.mispredicted, b.mispredicted);
        ASSERT_EQ(a.dependsOnPrevLoad, b.dependsOnPrevLoad);
    }
}

TEST_F(TraceIoTest, RecordCountReadsHeader)
{
    SyntheticTrace original(appByName("mcf06"));
    ASSERT_TRUE(trace_io::write(path_, original, 123));
    EXPECT_EQ(trace_io::recordCount(path_), 123u);
}

TEST_F(TraceIoTest, ReplayLoopsLikeTraceConcatenation)
{
    SyntheticTrace original(appByName("mcf06"));
    ASSERT_TRUE(trace_io::write(path_, original, 100));
    FileTrace replay(path_);
    for (int i = 0; i < 250; ++i)
        replay.next();
    EXPECT_EQ(replay.laps(), 2u);
    // After exactly one lap, the stream restarts at record 0.
    replay.reset();
    const TraceRecord first = replay.next();
    replay.reset();
    for (int i = 0; i < 100; ++i)
        replay.next();
    const TraceRecord wrapped = replay.next();
    EXPECT_EQ(wrapped.pc, first.pc);
    EXPECT_EQ(wrapped.addr, first.addr);
}

TEST_F(TraceIoTest, ResetRestarts)
{
    SyntheticTrace original(appByName("lbm06"));
    ASSERT_TRUE(trace_io::write(path_, original, 50));
    FileTrace replay(path_);
    const TraceRecord first = replay.next();
    for (int i = 0; i < 20; ++i)
        replay.next();
    replay.reset();
    EXPECT_EQ(replay.next().addr, first.addr);
}

TEST_F(TraceIoTest, MissingFileThrows)
{
    EXPECT_THROW({ FileTrace t("/nonexistent/trace.mabt"); },
                 std::runtime_error);
}

TEST_F(TraceIoTest, CorruptHeaderRejected)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage-not-a-trace-header", f);
    std::fclose(f);
    EXPECT_THROW({ FileTrace t(path_); }, std::runtime_error);
    EXPECT_EQ(trace_io::recordCount(path_), 0u);
}

TEST_F(TraceIoTest, TruncatedBodyRejected)
{
    SyntheticTrace original(appByName("gcc06"));
    ASSERT_TRUE(trace_io::write(path_, original, 100));

    // Chop the file mid-record: header + 10.5 records.
    ASSERT_EQ(::truncate(path_.c_str(), 16 + 10 * 24 + 12), 0);

    try {
        FileTrace t(path_);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
    // recordCount must not trust the header of a truncated file.
    EXPECT_EQ(trace_io::recordCount(path_), 0u);
}

TEST_F(TraceIoTest, UnsupportedVersionRejected)
{
    SyntheticTrace original(appByName("gcc06"));
    ASSERT_TRUE(trace_io::write(path_, original, 10));

    // Bump the version field (bytes 4..7) to an unknown value.
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
    const uint32_t bad_version = 999;
    ASSERT_EQ(std::fwrite(&bad_version, 4, 1, f), 1u);
    std::fclose(f);

    EXPECT_THROW({ FileTrace t(path_); }, std::runtime_error);
}

TEST_F(TraceIoTest, EmptyTraceRejected)
{
    SyntheticTrace original(appByName("gcc06"));
    ASSERT_TRUE(trace_io::write(path_, original, 0));
    EXPECT_THROW({ FileTrace t(path_); }, std::runtime_error);
    // A zero-record file is well-formed for recordCount, though.
    EXPECT_EQ(trace_io::recordCount(path_), 0u);
}

} // namespace
} // namespace mab
