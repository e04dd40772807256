#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/bandit_prefetch.h"
#include "prefetch/bingo.h"
#include "prefetch/ensemble.h"
#include "prefetch/ipcp.h"
#include "prefetch/mlop.h"
#include "prefetch/nextline.h"
#include "prefetch/pythia.h"
#include "prefetch/stream.h"
#include "prefetch/stride.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab {
namespace {

PrefetchAccess
access(uint64_t pc, uint64_t addr, uint64_t cycle = 0)
{
    PrefetchAccess a;
    a.pc = pc;
    a.addr = addr;
    a.cycle = cycle;
    return a;
}

bool
contains(const std::vector<uint64_t> &v, uint64_t addr)
{
    return std::find(v.begin(), v.end(), addr) != v.end();
}

/** Byte addresses of @p lines. */
std::vector<uint64_t>
lineAddrs(std::initializer_list<uint64_t> lines)
{
    std::vector<uint64_t> v;
    for (const uint64_t l : lines)
        v.push_back(l * kLineBytes);
    return v;
}

/** What @p pf emits for one access to @p line. */
std::vector<uint64_t>
touchLine(Prefetcher &pf, uint64_t line)
{
    std::vector<uint64_t> out;
    pf.onAccess(access(1, line * kLineBytes), out);
    return out;
}

/** The message of the std::invalid_argument @p make throws, else "". */
template <typename F>
std::string
rejection(F make)
{
    try {
        make();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

// ---------------------------------------------------------------------
// Next-line.
// ---------------------------------------------------------------------

TEST(NextLine, PrefetchesFollowingLine)
{
    NextLinePrefetcher pf;
    std::vector<uint64_t> out;
    pf.onAccess(access(1, 0x1008), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u);
}

TEST(NextLine, DisabledIsSilent)
{
    NextLinePrefetcher pf;
    pf.setEnabled(false);
    std::vector<uint64_t> out;
    pf.onAccess(access(1, 0x1000), out);
    EXPECT_TRUE(out.empty());
}

TEST(NextLine, ZeroStorage)
{
    EXPECT_EQ(NextLinePrefetcher{}.storageBytes(), 0u);
}

// ---------------------------------------------------------------------
// Stream.
// ---------------------------------------------------------------------

TEST(Stream, DetectsAscendingStreamAfterTraining)
{
    StreamPrefetcher pf(8);
    pf.setDegree(4);
    std::vector<uint64_t> out;
    const uint64_t base = 0x100000;
    for (int i = 0; i < 3; ++i) {
        out.clear();
        pf.onAccess(access(1, base + i * kLineBytes), out);
    }
    // Third access confirms direction; degree-4 prefetch issued.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], base + 3 * kLineBytes);
    EXPECT_EQ(out[3], base + 6 * kLineBytes);
}

TEST(Stream, DetectsDescendingStream)
{
    StreamPrefetcher pf(8);
    pf.setDegree(2);
    std::vector<uint64_t> out;
    const uint64_t base = 0x200000;
    for (int i = 0; i < 3; ++i) {
        out.clear();
        pf.onAccess(access(1, base - i * kLineBytes), out);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], base - 3 * kLineBytes);
}

TEST(Stream, DegreeZeroDisablesPrefetchButKeepsTraining)
{
    StreamPrefetcher pf(8);
    pf.setDegree(0);
    std::vector<uint64_t> out;
    const uint64_t base = 0x300000;
    for (int i = 0; i < 5; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    EXPECT_TRUE(out.empty());
    // Re-enabling picks up the already-trained stream immediately.
    pf.setDegree(3);
    pf.onAccess(access(1, base + 5 * kLineBytes), out);
    EXPECT_EQ(out.size(), 3u);
}

TEST(Stream, RandomAccessesDoNotTrigger)
{
    StreamPrefetcher pf(8);
    pf.setDegree(4);
    std::vector<uint64_t> out;
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        pf.onAccess(access(1, rng.below(1 << 30) * kLineBytes), out);
    // Spurious matches possible but must stay rare.
    EXPECT_LT(out.size(), 20u);
}

TEST(Stream, TracksMultipleConcurrentStreams)
{
    StreamPrefetcher pf(8);
    pf.setDegree(1);
    std::vector<uint64_t> out;
    const uint64_t a = 0x1000000, b = 0x9000000;
    for (int i = 0; i < 4; ++i) {
        pf.onAccess(access(1, a + i * kLineBytes), out);
        pf.onAccess(access(2, b + i * kLineBytes), out);
    }
    EXPECT_TRUE(contains(out, a + 4 * kLineBytes) ||
                contains(out, a + 3 * kLineBytes));
    EXPECT_TRUE(contains(out, b + 4 * kLineBytes) ||
                contains(out, b + 3 * kLineBytes));
}

TEST(Stream, StorageScalesWithTrackers)
{
    EXPECT_GT(StreamPrefetcher(64).storageBytes(),
              StreamPrefetcher(16).storageBytes());
}

TEST(Stream, ResetForgetsStreams)
{
    StreamPrefetcher pf(8);
    pf.setDegree(2);
    std::vector<uint64_t> out;
    const uint64_t base = 0x400000;
    for (int i = 0; i < 3; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    pf.reset();
    out.clear();
    pf.onAccess(access(1, base + 3 * kLineBytes), out);
    EXPECT_TRUE(out.empty());
}

TEST(Stream, OverlappingWindowsPickLowestTracker)
{
    // Trackers fill from the highest index down, so stream B, opened
    // after stream A, holds the lower index. Line 102 lies within +-4
    // lines of both A (at 106, descending) and B (at 101, ascending):
    // the lowest-index tracker, B, extends upward. A would have
    // prefetched 101..98.
    StreamPrefetcher pf(64);
    pf.setDegree(4);
    touchLine(pf, 110);
    touchLine(pf, 108);
    EXPECT_EQ(touchLine(pf, 106), lineAddrs({105, 104, 103, 102}));
    EXPECT_TRUE(touchLine(pf, 100).empty()); // 6 lines from A: opens B
    EXPECT_TRUE(touchLine(pf, 101).empty()); // B: up, confidence 1
    EXPECT_EQ(touchLine(pf, 102), lineAddrs({103, 104, 105, 106}));
}

TEST(Stream, RepeatedLineAllocatesSecondTracker)
{
    // An exact repeat of a tracker's last line (delta 0) is no match:
    // it opens a second tracker on the same line. That one has the
    // lower index, so it takes the next access from the trained
    // tracker, which would have prefetched 104..107 there.
    StreamPrefetcher pf(64);
    pf.setDegree(4);
    touchLine(pf, 100);
    touchLine(pf, 101);
    EXPECT_EQ(touchLine(pf, 102), lineAddrs({103, 104, 105, 106}));
    EXPECT_TRUE(touchLine(pf, 102).empty());
    EXPECT_TRUE(touchLine(pf, 103).empty());
    EXPECT_EQ(touchLine(pf, 104), lineAddrs({105, 106, 107, 108}));
}

TEST(Stream, RejectsDegenerateTrackerCounts)
{
    EXPECT_THROW(StreamPrefetcher(0), std::invalid_argument);
    // The window index holds one bit per tracker in a 64-bit mask.
    EXPECT_THROW(StreamPrefetcher(65), std::invalid_argument);
    EXPECT_NE(rejection([] { StreamPrefetcher(-3); }).find("-3"),
              std::string::npos);
    EXPECT_NO_THROW(StreamPrefetcher(1));
    EXPECT_NO_THROW(StreamPrefetcher(64));
}

// ---------------------------------------------------------------------
// PC-stride.
// ---------------------------------------------------------------------

TEST(Stride, LearnsPerPcStride)
{
    StridePrefetcher pf(16, 2);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i) {
        out.clear();
        pf.onAccess(access(0xA, 0x10000 + i * 512), out);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x10000 + 3 * 512 + 512);
    EXPECT_EQ(out[1], 0x10000 + 3 * 512 + 1024);
}

TEST(Stride, DistinguishesPcs)
{
    StridePrefetcher pf(16, 1);
    std::vector<uint64_t> out;
    // Interleaved PCs with different strides.
    for (int i = 0; i < 5; ++i) {
        pf.onAccess(access(0xA, 0x10000 + i * 256), out);
        pf.onAccess(access(0xB, 0x80000 + i * 1024), out);
    }
    EXPECT_TRUE(contains(out, 0x10000 + 4 * 256 + 256));
    EXPECT_TRUE(contains(out, 0x80000 + 4 * 1024 + 1024));
}

TEST(Stride, StrideChangeRetrains)
{
    StridePrefetcher pf(16, 1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i)
        pf.onAccess(access(0xA, 0x10000 + i * 256), out);
    out.clear();
    // Stride changes: first new-stride access must not prefetch with
    // the old stride's confidence.
    pf.onAccess(access(0xA, 0x50000), out);
    EXPECT_TRUE(out.empty());
    pf.onAccess(access(0xA, 0x50000 + 128), out);
    EXPECT_TRUE(out.empty()); // confidence 1 < threshold
    pf.onAccess(access(0xA, 0x50000 + 256), out);
    EXPECT_TRUE(contains(out, 0x50000 + 256 + 128));
}

TEST(Stride, ZeroDeltaDoesNotPrefetch)
{
    StridePrefetcher pf(16, 2);
    std::vector<uint64_t> out;
    for (int i = 0; i < 5; ++i)
        pf.onAccess(access(0xA, 0x10000), out);
    EXPECT_TRUE(out.empty());
}

TEST(Stride, NegativeStrideSupported)
{
    StridePrefetcher pf(16, 1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i) {
        out.clear();
        pf.onAccess(access(0xA, 0x100000 - i * 320), out);
    }
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x100000 - 3 * 320 - 320);
}

TEST(Stride, TableEvictsLruPc)
{
    StridePrefetcher pf(2, 1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i) {
        pf.onAccess(access(0xA, 0x10000 + i * 256), out);
        pf.onAccess(access(0xB, 0x20000 + i * 256), out);
    }
    // A third PC evicts the LRU entry; retraining PC 0xC works.
    for (int i = 0; i < 4; ++i) {
        out.clear();
        pf.onAccess(access(0xC, 0x30000 + i * 256), out);
    }
    EXPECT_FALSE(out.empty());
}

TEST(Stride, EvictsLeastRecentlyUsedPcAtCapacities1And64)
{
    for (const int cap : {1, 64}) {
        SCOPED_TRACE(cap);
        StridePrefetcher pf(cap, 1);
        const auto pc = [](int k) { return 0x400000ull + 4 * k; };
        // PC k's n-th access: a 64-byte stride in its own region.
        const auto addr = [](int k, int n) {
            return 0x100000ull * (k + 1) + 64ull * n;
        };
        std::vector<int> next(cap + 1, 0);
        const auto step = [&](int k) {
            std::vector<uint64_t> out;
            pf.onAccess(access(pc(k), addr(k, next[k]++)), out);
            return out;
        };
        // Two accesses per PC in PC order: stride learned at
        // confidence 1, PC 0 least recently used.
        for (int round = 0; round < 2; ++round) {
            for (int k = 0; k < cap; ++k)
                EXPECT_TRUE(step(k).empty());
        }
        // Confirming PC 0 prefetches and makes it the most recent.
        EXPECT_EQ(step(0), std::vector<uint64_t>{addr(0, 3)});
        // A new PC evicts the LRU one: PC 1, or PC 0 when alone.
        EXPECT_TRUE(step(cap).empty());
        const int evicted = cap == 1 ? 0 : 1;
        for (int k = 0; k < cap; ++k) {
            if (k != evicted) {
                EXPECT_EQ(step(k).size(), 1u) << "PC " << k;
            }
        }
        EXPECT_TRUE(step(evicted).empty()); // retrains from scratch
    }
}

TEST(Stride, RejectsDegenerateTrackerCounts)
{
    EXPECT_THROW(StridePrefetcher(0, 2), std::invalid_argument);
    EXPECT_NE(rejection([] { StridePrefetcher(-1, 2); }).find("-1"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Ensemble / Table 7 arms.
// ---------------------------------------------------------------------

TEST(Ensemble, ArmTableMatchesTable7)
{
    const auto &arms = prefetchArmTable();
    ASSERT_EQ(arms.size(), 11u);
    // Spot-check the arms the paper prints.
    EXPECT_FALSE(arms[0].nextLineOn);
    EXPECT_EQ(arms[0].strideDegree, 0);
    EXPECT_EQ(arms[0].streamDegree, 4);
    // Arm 1: everything off.
    EXPECT_FALSE(arms[1].nextLineOn);
    EXPECT_EQ(arms[1].strideDegree, 0);
    EXPECT_EQ(arms[1].streamDegree, 0);
    // Arm 2: next-line only.
    EXPECT_TRUE(arms[2].nextLineOn);
    // Arm 10: most aggressive.
    EXPECT_EQ(arms[10].strideDegree, 15);
    EXPECT_EQ(arms[10].streamDegree, 15);
}

TEST(Ensemble, ArmOffProducesNoPrefetches)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 20; ++i)
        pf.onAccess(access(1, 0x1000000 + i * kLineBytes), out);
    EXPECT_TRUE(out.empty());
}

TEST(Ensemble, NextLineArmPrefetchesOneAhead)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(2);
    std::vector<uint64_t> out;
    pf.onAccess(access(1, 0x1000), out);
    EXPECT_TRUE(contains(out, 0x1040));
}

TEST(Ensemble, ArmSwitchKeepsWarmTrainingState)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(1); // off, but trackers keep training
    std::vector<uint64_t> out;
    const uint64_t base = 0x2000000;
    for (int i = 0; i < 6; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    EXPECT_TRUE(out.empty());
    pf.applyArm(0); // streamer degree 4
    pf.onAccess(access(1, base + 6 * kLineBytes), out);
    EXPECT_FALSE(out.empty()); // fires immediately: already trained
}

TEST(Ensemble, CurrentArmTracked)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(7);
    EXPECT_EQ(pf.currentArm(), 7);
}

TEST(Ensemble, StorageUnder2KB)
{
    // Section 7.2.1: ensemble + agent < 2KB.
    EXPECT_LT(BanditEnsemblePrefetcher{}.storageBytes(), 2048u);
}

TEST(Ensemble, RejectsArmsOutsideTable7)
{
    BanditEnsemblePrefetcher pf;
    EXPECT_THROW(pf.applyArm(11), std::invalid_argument);
    EXPECT_NE(rejection([&] { pf.applyArm(-1); }).find("-1"),
              std::string::npos);
    EXPECT_EQ(pf.currentArm(), 0);
}

TEST(PrefetcherStorage, ReportsTheModelledTablesOnly)
{
    // storageBytes() prices the modelled fully associative tables;
    // the host-side lookup indexes are not hardware and add nothing.
    EXPECT_EQ(NextLinePrefetcher{}.storageBytes(), 0u);
    EXPECT_EQ(StreamPrefetcher(64).storageBytes(), 576u);
    EXPECT_EQ(StreamPrefetcher(1).storageBytes(), 9u);
    EXPECT_EQ(StridePrefetcher(64, 1).storageBytes(), 1344u);
    EXPECT_EQ(StridePrefetcher(1, 0).storageBytes(), 21u);
    EXPECT_EQ(IpcpPrefetcher{}.storageBytes(), 1416u);
    EXPECT_EQ(IpcpPrefetcher(1).storageBytes(), 30u);
    EXPECT_EQ(BingoPrefetcher{}.storageBytes(), 26240u);
    EXPECT_EQ(BingoPrefetcher(64, 1, 4).storageBytes(), 74u);
    EXPECT_EQ(MlopPrefetcher{}.storageBytes(), 3040u);
    EXPECT_EQ(PythiaPrefetcher{}.storageBytes(), 25344u);
    PythiaConfig tiny;
    tiny.planeEntries = 1;
    tiny.eqDepth = 0;
    EXPECT_EQ(PythiaPrefetcher(tiny).storageBytes(), 256u);
    EXPECT_EQ(BanditEnsemblePrefetcher{}.storageBytes(), 1920u);
    EXPECT_EQ(BanditPrefetchController{}.storageBytes(), 88u);
}

/** Property sweep: every arm's configuration is applied faithfully. */
class ArmTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ArmTest, AppliedDegreesMatchTable)
{
    const int arm = GetParam();
    BanditEnsemblePrefetcher pf;
    pf.applyArm(arm);
    const PrefetchArm &expect = prefetchArmTable()[arm];

    // Strided accesses with a 2-line stride: only the stride
    // prefetcher fires, emitting exactly strideDegree requests.
    std::vector<uint64_t> out;
    for (int i = 0; i < 6; ++i) {
        out.clear();
        pf.onAccess(access(0xAB, 0x4000000 + i * 8 * kLineBytes), out);
    }
    const int nl = expect.nextLineOn ? 1 : 0;
    EXPECT_EQ(out.size(),
              static_cast<size_t>(expect.strideDegree + nl));
}

INSTANTIATE_TEST_SUITE_P(AllArms, ArmTest,
                         ::testing::Range(0, 11));

} // namespace
} // namespace mab
