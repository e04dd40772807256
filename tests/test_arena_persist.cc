#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace/arena_file.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

using namespace mab;

/**
 * On-disk trace arena tests (MABA v2 spill files). The contract under
 * test: a warm load is byte-identical to live generation, and *every*
 * corruption mode — truncation, flipped payload bytes, a stale format
 * version, the wrong key, the wrong record count — is detected,
 * counted as a reject, and silently repaired by regeneration. A bad
 * file must never crash a run or skew its results.
 */

namespace {

namespace fs = std::filesystem;

/**
 * Every test runs against the process-global arena; snapshot and
 * restore its knobs (including the spill directory) so tests compose
 * in any order, and give each test its own empty directory.
 */
class ArenaPersistTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceArena &arena = TraceArena::global();
        enabled_ = arena.stats().enabled;
        budget_ = arena.budgetBytes();
        dir_ = arena.dir();
        arena.clear();
        arena.setEnabled(true);

        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        tmp_ = fs::path(::testing::TempDir()) /
            (std::string("mab_arena_") + info->name());
        fs::remove_all(tmp_);
        fs::create_directories(tmp_);
        arena.setDir(tmp_.string());
    }

    void
    TearDown() override
    {
        TraceArena &arena = TraceArena::global();
        arena.clear();
        arena.setDir(dir_);
        arena.setEnabled(enabled_);
        arena.setBudgetBytes(budget_);
        fs::remove_all(tmp_);
    }

    /** The one spill file a single-workload test produced. */
    fs::path
    spillFile() const
    {
        for (const auto &e : fs::directory_iterator(tmp_)) {
            if (e.path().extension() == ".maba")
                return e.path();
        }
        ADD_FAILURE() << "no .maba spill file in " << tmp_;
        return {};
    }

    /** Drop the in-memory copy so the next acquire goes to disk. */
    static void
    forgetMemory()
    {
        // clear() also zeroes the stats; tests sample them first.
        TraceArena::global().clear();
    }

    fs::path tmp_;

  private:
    bool enabled_ = true;
    uint64_t budget_ = 0;
    std::string dir_;
};

std::vector<char>
readAll(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const fs::path &p, const std::vector<char> &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
expectMatchesLive(const AppProfile &app,
                  std::shared_ptr<MaterializedTrace> trace,
                  uint64_t n, const std::string &who)
{
    SyntheticTrace live(app);
    ReplaySource replay(std::move(trace));
    for (uint64_t i = 0; i < n; ++i) {
        const TraceRecord a = live.next();
        const TraceRecord b = replay.next();
        ASSERT_EQ(a.pc, b.pc) << who << " record " << i;
        ASSERT_EQ(a.addr, b.addr) << who << " record " << i;
        ASSERT_EQ(a.isLoad, b.isLoad) << who << " record " << i;
        ASSERT_EQ(a.isStore, b.isStore) << who << " record " << i;
        ASSERT_EQ(a.isBranch, b.isBranch) << who << " record " << i;
    }
}

} // namespace

TEST_F(ArenaPersistTest, ColdRunSpillsAndWarmRunLoads)
{
    const AppProfile app = allWorkloads().front().app;
    const uint64_t n = MaterializedTrace::kChunkWords + 777;

    // Cold: generate + spill.
    auto cold = TraceArena::global().acquireTrace(app, n);
    TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.fileSpills, 1u);
    EXPECT_EQ(s.fileHits, 0u);
    EXPECT_EQ(s.dir, tmp_.string());
    EXPECT_FALSE(cold->isMapped());
    EXPECT_TRUE(fs::exists(spillFile()));

    // Warm: a fresh acquire maps the file instead of generating.
    forgetMemory();
    auto warm = TraceArena::global().acquireTrace(app, n);
    s = TraceArena::global().stats();
    EXPECT_EQ(s.fileHits, 1u);
    EXPECT_EQ(s.fileSpills, 0u);
    EXPECT_TRUE(warm->isMapped());
    expectMatchesLive(app, warm, n, "warm-load");
}

TEST_F(ArenaPersistTest, WarmLoadIsByteIdenticalAcrossAllWorkloads)
{
    const uint64_t n = 4096;
    for (const WorkloadSpec &w : allWorkloads())
        TraceArena::global().acquireTrace(w.app, n);
    forgetMemory();
    for (const WorkloadSpec &w : allWorkloads()) {
        auto warm = TraceArena::global().acquireTrace(w.app, n);
        ASSERT_TRUE(warm->isMapped()) << w.app.name;
        expectMatchesLive(w.app, warm, n, w.app.name);
    }
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.fileHits, allWorkloads().size());
    EXPECT_EQ(s.fileRejects, 0u);
}

TEST_F(ArenaPersistTest, TruncatedFileIsRejectedAndRegenerated)
{
    const AppProfile app = allWorkloads().front().app;
    const uint64_t n = 2048;
    TraceArena::global().acquireTrace(app, n);
    const fs::path file = spillFile();

    std::vector<char> bytes = readAll(file);
    bytes.resize(bytes.size() - sizeof(PackedRecord)); // lose the last record
    writeAll(file, bytes);

    forgetMemory();
    auto trace = TraceArena::global().acquireTrace(app, n);
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.fileRejects, 1u) << "truncation must be detected";
    EXPECT_EQ(s.fileHits, 0u);
    EXPECT_EQ(s.fileSpills, 1u) << "a good file must be re-spilled";
    expectMatchesLive(app, trace, n, "post-truncation");
}

TEST_F(ArenaPersistTest, FlippedPayloadByteFailsTheChecksum)
{
    const AppProfile app = allWorkloads().front().app;
    const uint64_t n = 2048;
    TraceArena::global().acquireTrace(app, n);
    const fs::path file = spillFile();

    std::vector<char> bytes = readAll(file);
    bytes[bytes.size() / 2] ^= 0x40; // deep inside the payload
    writeAll(file, bytes);

    forgetMemory();
    auto trace = TraceArena::global().acquireTrace(app, n);
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.fileRejects, 1u) << "bit rot must fail the checksum";
    EXPECT_EQ(s.fileSpills, 1u);
    expectMatchesLive(app, trace, n, "post-bitflip");

    // The repaired file serves the next warm start.
    forgetMemory();
    auto warm = TraceArena::global().acquireTrace(app, n);
    EXPECT_EQ(TraceArena::global().stats().fileHits, 1u);
    EXPECT_TRUE(warm->isMapped());
}

TEST_F(ArenaPersistTest, StaleFormatVersionIsRejected)
{
    const AppProfile app = allWorkloads().front().app;
    const uint64_t n = 1024;
    TraceArena::global().acquireTrace(app, n);
    const fs::path file = spillFile();

    std::vector<char> bytes = readAll(file);
    bytes[4] = 99; // u32 version field right after the magic
    writeAll(file, bytes);

    forgetMemory();
    auto trace = TraceArena::global().acquireTrace(app, n);
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.fileRejects, 1u)
        << "a future/stale version must not be parsed";
    expectMatchesLive(app, trace, n, "post-version-bump");
}

/**
 * A version-1 file (16-byte records: PC and flags in one word, the
 * full address in the next) for the right key, count and checksum is
 * still rejected by its version, and the trace is regenerated into the
 * same v2 bytes a cold start spills.
 */
TEST_F(ArenaPersistTest, VersionOneFileIsRejectedAndRegenerated)
{
    const AppProfile app = allWorkloads().front().app;
    const uint64_t n = 1500;
    TraceArena::global().acquireTrace(app, n);
    const fs::path file = spillFile();
    const std::vector<char> v2 = readAll(file);

    const std::string key = "trace:" + profileFingerprint(app) + "#" +
        std::to_string(n);
    ASSERT_EQ(fs::path(arena_file::filePath(tmp_.string(), key)), file);
    std::vector<uint64_t> payload;
    SyntheticTrace live(app);
    for (uint64_t i = 0; i < n; ++i) {
        const TraceRecord r = live.next();
        payload.push_back(r.pc | uint64_t{r.isLoad} << 56 |
                          uint64_t{r.isStore} << 57 |
                          uint64_t{r.isBranch} << 58 |
                          uint64_t{r.mispredicted} << 59 |
                          uint64_t{r.dependsOnPrevLoad} << 60);
        payload.push_back(r.addr);
    }
    uint64_t checksum = 0xcbf29ce484222325ull;
    for (const uint64_t w : payload) {
        checksum ^= w;
        checksum *= 0x100000001b3ull;
    }
    const uint32_t version = 1;
    const uint32_t keyLen = static_cast<uint32_t>(key.size());
    const uint32_t payloadOffset = (32 + keyLen + 15) & ~15u;
    std::vector<char> v1(payloadOffset + payload.size() * 8, 0);
    std::memcpy(v1.data(), "MABA", 4);
    std::memcpy(v1.data() + 4, &version, 4);
    std::memcpy(v1.data() + 8, &n, 8);
    std::memcpy(v1.data() + 16, &checksum, 8);
    std::memcpy(v1.data() + 24, &keyLen, 4);
    std::memcpy(v1.data() + 28, &payloadOffset, 4);
    std::memcpy(v1.data() + 32, key.data(), key.size());
    std::memcpy(v1.data() + payloadOffset, payload.data(),
                payload.size() * 8);
    writeAll(file, v1);

    forgetMemory();
    auto trace = TraceArena::global().acquireTrace(app, n);
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.fileRejects, 1u) << "a v1 file must not be parsed";
    EXPECT_EQ(s.fileHits, 0u);
    EXPECT_EQ(s.fileSpills, 1u);
    expectMatchesLive(app, trace, n, "post-v1");
    EXPECT_EQ(readAll(file), v2) << "regenerated file differs from a "
                                    "cold v2 spill";
}

TEST_F(ArenaPersistTest, WrongMagicIsRejected)
{
    const AppProfile app = allWorkloads().front().app;
    const uint64_t n = 512;
    TraceArena::global().acquireTrace(app, n);
    const fs::path file = spillFile();

    std::vector<char> bytes = readAll(file);
    bytes[0] = 'X';
    writeAll(file, bytes);

    forgetMemory();
    auto trace = TraceArena::global().acquireTrace(app, n);
    EXPECT_EQ(TraceArena::global().stats().fileRejects, 1u);
    expectMatchesLive(app, trace, n, "post-magic");
}

TEST_F(ArenaPersistTest, FingerprintCollisionInFilenameIsCaught)
{
    // Two different keys never share a file honestly; simulate a
    // hash collision (or a renamed file) by moving workload A's
    // spill onto workload B's slot. The embedded key must veto it.
    const auto &ws = allWorkloads();
    ASSERT_GE(ws.size(), 2u);
    const AppProfile a = ws[0].app;
    const AppProfile b = ws[1].app;
    const uint64_t n = 1024;

    TraceArena::global().acquireTrace(a, n);
    const fs::path fileA = spillFile();
    forgetMemory();
    TraceArena::global().acquireTrace(b, n);
    fs::path fileB;
    for (const auto &e : fs::directory_iterator(tmp_)) {
        if (e.path() != fileA && e.path().extension() == ".maba")
            fileB = e.path();
    }
    ASSERT_FALSE(fileB.empty());
    fs::copy_file(fileA, fileB,
                  fs::copy_options::overwrite_existing);

    forgetMemory();
    auto trace = TraceArena::global().acquireTrace(b, n);
    EXPECT_EQ(TraceArena::global().stats().fileRejects, 1u)
        << "the stored key must reject an impostor payload";
    expectMatchesLive(b, trace, n, "post-impostor");
}

TEST_F(ArenaPersistTest, CountMismatchInHeaderIsRejected)
{
    const AppProfile app = allWorkloads().front().app;
    const uint64_t n = 1000;
    TraceArena::global().acquireTrace(app, n);
    const fs::path file = spillFile();

    std::vector<char> bytes = readAll(file);
    bytes[8] ^= 0x01; // low byte of the u64 record count
    writeAll(file, bytes);

    forgetMemory();
    auto trace = TraceArena::global().acquireTrace(app, n);
    EXPECT_EQ(TraceArena::global().stats().fileRejects, 1u);
    expectMatchesLive(app, trace, n, "post-count-patch");
}

TEST_F(ArenaPersistTest, DirectApiReportsNoFileOnEmptyDir)
{
    const AppProfile app = allWorkloads().front().app;
    const arena_file::LoadResult r = arena_file::tryLoad(
        tmp_.string(), "trace:not-spilled#1", app, 1);
    EXPECT_EQ(r.status, arena_file::LoadStatus::NoFile);
    EXPECT_EQ(r.trace, nullptr);
}

TEST_F(ArenaPersistTest, SaveRefusesAPartiallyMaterializedTrace)
{
    const AppProfile app = allWorkloads().front().app;
    // A lazy trace no consumer has read has no chunk generated;
    // spilling it would persist garbage.
    MaterializedTrace lazy(app, 4096);
    EXPECT_FALSE(
        arena_file::save(tmp_.string(), "trace:lazy#4096", lazy));
}

TEST_F(ArenaPersistTest, SaveIntoMissingDirectoryCreatesIt)
{
    const AppProfile app = allWorkloads().front().app;
    const fs::path nested = tmp_ / "a" / "b";
    TraceArena::global().setDir(nested.string());
    TraceArena::global().acquireTrace(app, 256);
    EXPECT_EQ(TraceArena::global().stats().fileSpills, 1u);
    EXPECT_TRUE(fs::exists(nested));
}

TEST_F(ArenaPersistTest, UnsetDirDisablesPersistence)
{
    TraceArena::global().setDir("");
    const AppProfile app = allWorkloads().front().app;
    auto trace = TraceArena::global().acquireTrace(app, 256);
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.fileSpills, 0u);
    EXPECT_EQ(s.fileHits, 0u);
    EXPECT_FALSE(trace->isMapped());
    EXPECT_TRUE(fs::is_empty(tmp_));
}
