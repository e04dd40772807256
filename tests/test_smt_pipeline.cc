#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "smt/pipeline.h"
#include "smt/thread_source.h"

namespace mab {
namespace {

SmtAppParams
computeApp()
{
    SmtAppParams p;
    p.name = "compute";
    p.loadFrac = 0.1;
    p.storeFrac = 0.05;
    p.branchFrac = 0.1;
    p.fpFrac = 0.0;
    p.mispredictRate = 0.0;
    p.l1MissRate = 0.0;
    p.depProb = 0.1;
    p.depMeanDistance = 20;
    return p;
}

SmtAppParams
memoryHogApp()
{
    SmtAppParams p;
    p.name = "hog";
    p.loadFrac = 0.35;
    p.storeFrac = 0.2;
    p.branchFrac = 0.05;
    p.fpFrac = 0.1;
    p.mispredictRate = 0.001;
    p.l1MissRate = 0.25;
    p.dramRate = 0.8;
    p.depProb = 0.4;
    p.depMeanDistance = 10;
    p.storeDrainDramRate = 0.6;
    return p;
}

struct Rig
{
    explicit Rig(SmtAppParams a, SmtAppParams b,
                 const SmtConfig &cfg = {})
        : src0(a, 1), src1(b, 2), pipe(cfg, {&src0, &src1})
    {
    }

    ThreadSource src0;
    ThreadSource src1;
    SmtPipeline pipe;
};

TEST(SmtPipeline, CommitsInstructionsFromBothThreads)
{
    Rig rig(computeApp(), computeApp());
    rig.pipe.run(20'000);
    EXPECT_GT(rig.pipe.committed(0), 10'000u);
    EXPECT_GT(rig.pipe.committed(1), 10'000u);
}

TEST(SmtPipeline, IpcBoundedByWidths)
{
    Rig rig(computeApp(), computeApp());
    rig.pipe.run(20'000);
    EXPECT_LE(rig.pipe.ipcSum(), SmtConfig{}.decodeWidth + 0.01);
    EXPECT_GT(rig.pipe.ipcSum(), 1.0);
}

TEST(SmtPipeline, DeterministicAcrossRuns)
{
    Rig a(computeApp(), memoryHogApp());
    Rig b(computeApp(), memoryHogApp());
    a.pipe.run(30'000);
    b.pipe.run(30'000);
    EXPECT_EQ(a.pipe.committed(0), b.pipe.committed(0));
    EXPECT_EQ(a.pipe.committed(1), b.pipe.committed(1));
}

TEST(SmtPipeline, OccupanciesNeverExceedStructureSizes)
{
    const SmtConfig cfg;
    Rig rig(memoryHogApp(), memoryHogApp());
    for (int i = 0; i < 50'000; ++i) {
        rig.pipe.cycle();
        const int rob = rig.pipe.robUsed(0) + rig.pipe.robUsed(1);
        const int iq = rig.pipe.iqUsed(0) + rig.pipe.iqUsed(1);
        const int lq = rig.pipe.lqUsed(0) + rig.pipe.lqUsed(1);
        const int sq = rig.pipe.sqUsed(0) + rig.pipe.sqUsed(1);
        const int irf = rig.pipe.irfUsed(0) + rig.pipe.irfUsed(1);
        const int frf = rig.pipe.frfUsed(0) + rig.pipe.frfUsed(1);
        ASSERT_LE(rob, cfg.robSize);
        ASSERT_LE(iq, cfg.iqSize);
        ASSERT_LE(lq, cfg.lqSize);
        ASSERT_LE(sq, cfg.sqSize);
        ASSERT_LE(irf, cfg.irfSize);
        ASSERT_LE(frf, cfg.frfSize);
        ASSERT_GE(rob, 0);
        ASSERT_GE(iq, 0);
        ASSERT_GE(lq, 0);
        ASSERT_GE(sq, 0);
    }
}

TEST(SmtPipeline, RenameStatsPartitionCycles)
{
    Rig rig(computeApp(), memoryHogApp());
    rig.pipe.run(30'000);
    const RenameStats &s = rig.pipe.renameStats();
    EXPECT_EQ(s.stalled + s.idle + s.running, s.cycles);
    EXPECT_EQ(s.cycles, 30'000u);
}

TEST(SmtPipeline, MemoryHogStallsRename)
{
    Rig rig(memoryHogApp(), memoryHogApp());
    rig.pipe.run(50'000);
    const RenameStats &s = rig.pipe.renameStats();
    EXPECT_GT(s.stalled, 0u);
    // The hog's long-latency stores/loads back up the queues, so at
    // least one specific structure must be implicated.
    EXPECT_GT(s.stallRob + s.stallIq + s.stallLq + s.stallSq +
                  s.stallRf,
              0u);
}

TEST(SmtPipeline, NoGatingWhenPolicyMonitorsNothing)
{
    Rig rig(memoryHogApp(), memoryHogApp());
    rig.pipe.setPolicy(icountPolicy()); // IC_0000
    for (int i = 0; i < 10'000; ++i) {
        rig.pipe.cycle();
        ASSERT_FALSE(rig.pipe.isGated(0));
        ASSERT_FALSE(rig.pipe.isGated(1));
    }
}

TEST(SmtPipeline, GatingTriggersWhenShareExceeded)
{
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(choiPolicy());
    rig.pipe.setShares({0.05, 0.95}); // starve thread 0
    bool gated = false;
    for (int i = 0; i < 20'000 && !gated; ++i) {
        rig.pipe.cycle();
        gated = rig.pipe.isGated(0);
    }
    EXPECT_TRUE(gated);
}

TEST(SmtPipeline, GatingLimitsThreadOccupancy)
{
    const SmtConfig cfg;
    Rig gated(memoryHogApp(), computeApp());
    gated.pipe.setPolicy(choiPolicy());
    gated.pipe.setShares({0.25, 0.75});
    Rig open(memoryHogApp(), computeApp());
    open.pipe.setPolicy(icountPolicy());
    gated.pipe.run(50'000);
    open.pipe.run(50'000);
    // Under gating, the hog commits less than with free rein.
    EXPECT_LT(gated.pipe.committed(0), open.pipe.committed(0));
}

TEST(SmtPipeline, LsqAwareGatingReducesSqPressure)
{
    // The Section 3.3 motivation: an SQ-hungry thread paired with a
    // compute thread. LSQ-aware gating must cut SQ-full stalls
    // relative to Choi (which ignores the LSQ).
    Rig choi(memoryHogApp(), computeApp());
    choi.pipe.setPolicy(choiPolicy());
    Rig lsq(memoryHogApp(), computeApp());
    lsq.pipe.setPolicy(pgPolicyFromName("IC_1110"));
    choi.pipe.run(80'000);
    lsq.pipe.run(80'000);
    EXPECT_LE(lsq.pipe.renameStats().stallSq,
              choi.pipe.renameStats().stallSq);
}

TEST(SmtPipeline, MispredictionsReduceThroughput)
{
    SmtAppParams clean = computeApp();
    SmtAppParams noisy = computeApp();
    noisy.branchFrac = 0.2;
    noisy.mispredictRate = 0.1;
    Rig a(clean, clean);
    Rig b(noisy, noisy);
    a.pipe.run(30'000);
    b.pipe.run(30'000);
    EXPECT_LT(b.pipe.ipcSum(), a.pipe.ipcSum());
}

TEST(SmtPipeline, DramBoundThreadHasLowIpc)
{
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(choiPolicy());
    rig.pipe.run(50'000);
    EXPECT_LT(rig.pipe.ipc(0), rig.pipe.ipc(1));
}

/** Fetch priority policies pick the metric-minimizing thread. */
TEST(SmtPipeline, IcountPrefersLowIqThread)
{
    // A memory hog accumulates IQ entries (waiting on operands);
    // ICount must favor the compute thread, giving it higher IPC
    // than the hog by a wide margin.
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(icountPolicy());
    rig.pipe.run(50'000);
    EXPECT_GT(rig.pipe.ipc(1), 2.0 * rig.pipe.ipc(0));
}

class PolicyRunTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PolicyRunTest, EveryPolicyRunsAndCommits)
{
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(pgPolicyFromName(GetParam()));
    rig.pipe.run(20'000);
    EXPECT_GT(rig.pipe.committed(0) + rig.pipe.committed(1), 5'000u);
    const RenameStats &s = rig.pipe.renameStats();
    EXPECT_EQ(s.stalled + s.idle + s.running, s.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Arms, PolicyRunTest,
    ::testing::Values("IC_0000", "BrC_1000", "IC_1110", "IC_1111",
                      "LSQC_1111", "RR_1111", "IC_1011", "LSQC_0100",
                      "RR_0000", "BrC_1111"));

/** One SmtConfig field set to a value the constructor must reject. */
const std::pair<const char *, void (*)(SmtConfig &)> kBadFields[] = {
    {"fetchWidth", [](SmtConfig &c) { c.fetchWidth = 0; }},
    {"decodeWidth", [](SmtConfig &c) { c.decodeWidth = 0; }},
    {"commitWidth", [](SmtConfig &c) { c.commitWidth = -1; }},
    {"iqSize", [](SmtConfig &c) { c.iqSize = 0; }},
    {"robSize", [](SmtConfig &c) { c.robSize = 0; }},
    {"lqSize", [](SmtConfig &c) { c.lqSize = -3; }},
    {"sqSize", [](SmtConfig &c) { c.sqSize = 0; }},
    {"irfSize", [](SmtConfig &c) { c.irfSize = 0; }},
    {"frfSize", [](SmtConfig &c) { c.frfSize = 0; }},
    {"fetchQueueSize", [](SmtConfig &c) { c.fetchQueueSize = 0; }},
    // The per-slot calendar counters must hold a full IQ / SQ.
    {"iqSize", [](SmtConfig &c) { c.iqSize = 1 << 16; }},
    {"sqSize", [](SmtConfig &c) { c.sqSize = 1 << 16; }},
};

class SmtPipelineBadConfig : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SmtPipelineBadConfig, ConstructorRejectsAndNamesField)
{
    const auto [field, set] = kBadFields[GetParam()];
    SmtConfig cfg;
    set(cfg);
    ThreadSource a(computeApp(), 1), b(computeApp(), 2);
    try {
        SmtPipeline pipe(cfg, {&a, &b});
        FAIL() << "accepted a bad " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(Fields, SmtPipelineBadConfig,
                         ::testing::Range<size_t>(0, std::size(kBadFields)));

TEST(SmtPipeline, LargestCountableStructuresAccepted)
{
    SmtConfig cfg;
    cfg.iqSize = (1 << 16) - 1;
    cfg.sqSize = (1 << 16) - 1;
    ThreadSource a(computeApp(), 1), b(computeApp(), 2);
    SmtPipeline pipe(cfg, {&a, &b});
    pipe.run(1000);
    EXPECT_GT(pipe.committed(0), 0u);
}

TEST(SmtPipeline, AdvanceStaysWithinLimit)
{
    Rig rig(memoryHogApp(), memoryHogApp());
    EXPECT_EQ(rig.pipe.advance(0), 0u);
    EXPECT_EQ(rig.pipe.cycles(), 0u);
    for (uint64_t limit : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 500; ++i) {
            const uint64_t before = rig.pipe.cycles();
            const uint64_t n = rig.pipe.advance(limit);
            ASSERT_GE(n, 1u);
            ASSERT_LE(n, limit);
            ASSERT_EQ(rig.pipe.cycles(), before + n);
        }
    }
}

/**
 * Fast-forward exactness: a pipeline stepped one cycle at a time and a
 * twin driven by free-running advance() calls must agree at every
 * epoch edge on every counter and occupancy, with identical share
 * changes applied at the edges (as Hill Climbing does).
 */
void
expectSameState(const SmtPipeline &a, const SmtPipeline &b, uint64_t edge)
{
    ASSERT_EQ(a.cycles(), b.cycles()) << "edge " << edge;
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        EXPECT_EQ(a.committed(t), b.committed(t)) << "edge " << edge;
        EXPECT_EQ(a.fetched(t), b.fetched(t)) << "edge " << edge;
        EXPECT_EQ(a.iqUsed(t), b.iqUsed(t)) << "edge " << edge;
        EXPECT_EQ(a.robUsed(t), b.robUsed(t)) << "edge " << edge;
        EXPECT_EQ(a.lqUsed(t), b.lqUsed(t)) << "edge " << edge;
        EXPECT_EQ(a.sqUsed(t), b.sqUsed(t)) << "edge " << edge;
        EXPECT_EQ(a.irfUsed(t), b.irfUsed(t)) << "edge " << edge;
        EXPECT_EQ(a.frfUsed(t), b.frfUsed(t)) << "edge " << edge;
        EXPECT_EQ(a.branchesInRob(t), b.branchesInRob(t))
            << "edge " << edge;
    }
    const RenameStats &x = a.renameStats();
    const RenameStats &y = b.renameStats();
    EXPECT_EQ(x.stallRob, y.stallRob) << "edge " << edge;
    EXPECT_EQ(x.stallIq, y.stallIq) << "edge " << edge;
    EXPECT_EQ(x.stallLq, y.stallLq) << "edge " << edge;
    EXPECT_EQ(x.stallSq, y.stallSq) << "edge " << edge;
    EXPECT_EQ(x.stallRf, y.stallRf) << "edge " << edge;
    EXPECT_EQ(x.stalled, y.stalled) << "edge " << edge;
    EXPECT_EQ(x.idle, y.idle) << "edge " << edge;
    EXPECT_EQ(x.running, y.running) << "edge " << edge;
    EXPECT_EQ(x.cycles, y.cycles) << "edge " << edge;
}

/** Runs @p cycles in epochs of @p epoch cycles; returns the number of
 *  advance() calls the free-running twin needed. */
uint64_t
runTwins(const SmtAppParams &app0, const SmtAppParams &app1,
         const SmtConfig &cfg, const PgPolicy &policy, uint64_t cycles,
         uint64_t epoch)
{
    ThreadSource a0(app0, 11), a1(app1, 12);
    ThreadSource b0(app0, 11), b1(app1, 12);
    SmtPipeline stepped(cfg, {&a0, &a1});
    SmtPipeline free_run(cfg, {&b0, &b1});
    stepped.setPolicy(policy);
    free_run.setPolicy(policy);
    const std::array<std::array<double, 2>, 4> shares = {
        {{0.5, 0.5}, {0.2, 0.8}, {0.75, 0.25}, {0.05, 0.95}}};
    uint64_t advances = 0;
    for (uint64_t edge = epoch, e = 0; edge <= cycles;
         edge += epoch, ++e) {
        while (stepped.cycles() < edge)
            stepped.advance(1);
        while (free_run.cycles() < edge) {
            const uint64_t limit = edge - free_run.cycles();
            const uint64_t n = free_run.advance(limit);
            EXPECT_LE(n, limit);
            ++advances;
        }
        expectSameState(stepped, free_run, edge);
        if (::testing::Test::HasFailure())
            return advances;
        stepped.setShares(shares[e % shares.size()]);
        free_run.setShares(shares[e % shares.size()]);
    }
    return advances;
}

class SmtFastForwardTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::tuple<int, int, int>>>
{
};

TEST_P(SmtFastForwardTest, MatchesPlainSteppingAtEveryEpochEdge)
{
    const auto [policy, geometry] = GetParam();
    const auto [rob, iq, sq] = geometry;
    SmtConfig cfg;
    cfg.robSize = rob;
    cfg.iqSize = iq;
    cfg.sqSize = sq;
    constexpr uint64_t kCycles = 40'000;
    const uint64_t advances =
        runTwins(smtAppByName("mcf"), smtAppByName("lbm"), cfg,
                 pgPolicyFromName(policy), kCycles, 2'000);
    // The memory-bound mix leaves quiescent runs to skip.
    EXPECT_LT(advances, kCycles);
}

INSTANTIATE_TEST_SUITE_P(
    ArmsByGeometry, SmtFastForwardTest,
    ::testing::Combine(
        ::testing::Values("IC_0000", "BrC_1000", "IC_1110", "IC_1111",
                          "LSQC_1111", "RR_1111", "IC_1011"),
        ::testing::Values(std::make_tuple(64, 32, 16),
                          std::make_tuple(128, 64, 32),
                          std::make_tuple(224, 97, 56),
                          std::make_tuple(512, 192, 112))));

/** The word path end to end: a pipeline whose sources replay shared
 *  UopStreams through ThreadSource's inline chunk window equals one
 *  whose sources generate live, for 200k cycles in which each thread
 *  reads across several 16,384-word chunk boundaries. Every statistic
 *  is compared at each epoch edge, and the exported stats at the end,
 *  under each of the 6 Table 1 arms and Choi (IC_1011). */
class SmtReplayWordsTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SmtReplayWordsTest, ReplayingSourcesMatchLiveSources)
{
    const PgPolicy policy = pgPolicyFromName(GetParam());
    const SmtAppParams &app0 = smtAppByName("gcc");
    const SmtAppParams &app1 = smtAppByName("mcf");
    ThreadSource live0(app0, 21), live1(app1, 22);
    ThreadSource rep0(app0, 21), rep1(app1, 22);
    rep0.attachStream(std::make_shared<UopStream>(app0, 21));
    rep1.attachStream(std::make_shared<UopStream>(app1, 22));
    SmtPipeline live(SmtConfig{}, {&live0, &live1});
    SmtPipeline replay(SmtConfig{}, {&rep0, &rep1});
    live.setPolicy(policy);
    replay.setPolicy(policy);
    const std::array<std::array<double, 2>, 4> shares = {
        {{0.5, 0.5}, {0.2, 0.8}, {0.75, 0.25}, {0.05, 0.95}}};
    constexpr uint64_t kCycles = 200'000;
    constexpr uint64_t kEpoch = 4096;
    for (uint64_t edge = kEpoch, e = 0; edge < kCycles + kEpoch;
         edge += kEpoch, ++e) {
        const uint64_t stop = std::min(edge, kCycles);
        live.run(stop - live.cycles());
        replay.run(stop - replay.cycles());
        expectSameState(live, replay, stop);
        if (::testing::Test::HasFailure())
            return;
        live.setShares(shares[e % shares.size()]);
        replay.setShares(shares[e % shares.size()]);
    }
    StatsRegistry a;
    StatsRegistry b;
    live.exportStats(a, "smt");
    replay.exportStats(b, "smt");
    EXPECT_EQ(a.toJsonString(), b.toJsonString());
    for (int t = 0; t < 2; ++t)
        EXPECT_GT(replay.fetched(t), 2 * UopStream::kChunkWords)
            << "thread " << t << " never left its second chunk";
}

INSTANTIATE_TEST_SUITE_P(ArmsAndChoi, SmtReplayWordsTest,
                         ::testing::Values("IC_0000", "BrC_1000", "IC_1110",
                                           "IC_1111", "LSQC_1111",
                                           "RR_1111", "IC_1011"));

TEST(SmtFastForward, PathologicalChainPastCalendarHorizon)
{
    // Loads only, all to DRAM, each depending on the previous one:
    // issue times run far past the calendar horizon, so the clamp that
    // releases such IQ entries early is exercised on both twins.
    SmtAppParams chain;
    chain.name = "chain";
    chain.loadFrac = 1.0;
    chain.storeFrac = 0.0;
    chain.branchFrac = 0.0;
    chain.fpFrac = 0.0;
    chain.l1MissRate = 1.0;
    chain.dramRate = 1.0;
    chain.dramLatency = 2500;
    chain.depProb = 1.0;
    chain.depMeanDistance = 1;
    const uint64_t cycles = 3 * SmtPipeline::kCalendarSize;
    const uint64_t advances = runTwins(chain, chain, SmtConfig{},
                                       choiPolicy(), cycles, 4'096);
    EXPECT_LT(advances, cycles / 100);

    ThreadSource a(chain, 11), b(chain, 12);
    SmtPipeline pipe(SmtConfig{}, {&a, &b});
    pipe.setPolicy(choiPolicy());
    pipe.run(cycles);
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        // A serial chain has at most one issued load in flight, so
        // without the clamp every other ROB entry would still hold its
        // IQ entry.
        EXPECT_LT(pipe.iqUsed(t) + 1, pipe.robUsed(t));
    }
}

} // namespace
} // namespace mab
