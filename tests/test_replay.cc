#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cpu/core_model.h"
#include "prefetch/stride.h"
#include "smt/thread_source.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

using namespace mab;

/**
 * Trace-arena / replay tests: the hard invariant is that replay is
 * byte-identical to live generation — every field of every record,
 * for every workload, across chunk boundaries, after reset(), and
 * regardless of which consumer ends up holding the recorder role.
 */

static_assert(sizeof(PackedRecord) == 16,
              "replay buffers assume 16-byte packed records");

namespace {

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 uint64_t index, const std::string &who)
{
    ASSERT_EQ(a.pc, b.pc) << who << " record " << index;
    ASSERT_EQ(a.addr, b.addr) << who << " record " << index;
    ASSERT_EQ(a.isLoad, b.isLoad) << who << " record " << index;
    ASSERT_EQ(a.isStore, b.isStore) << who << " record " << index;
    ASSERT_EQ(a.isBranch, b.isBranch) << who << " record " << index;
    ASSERT_EQ(a.mispredicted, b.mispredicted)
        << who << " record " << index;
    ASSERT_EQ(a.dependsOnPrevLoad, b.dependsOnPrevLoad)
        << who << " record " << index;
}

/** Every end-to-end counter of a run, bit-exact. */
std::vector<uint64_t>
coreCounters(const CoreModel &core)
{
    const CacheHierarchy &h = core.hierarchy();
    const PrefetchStats &ps = h.prefetchStats();
    uint64_t ipc = 0;
    const double v = core.ipc();
    std::memcpy(&ipc, &v, sizeof(ipc));
    return {core.instructions(),      core.cycles(),
            ipc,                      h.hitsAt(HitLevel::L1),
            h.hitsAt(HitLevel::L2),   h.hitsAt(HitLevel::Llc),
            h.hitsAt(HitLevel::Dram), h.l2DemandAccesses(),
            h.llcDemandMisses(),      ps.issued,
            ps.timely,                ps.late,
            ps.wrong};
}

/**
 * Every test runs against the process-global arena; snapshot and
 * restore its knobs (and contents) so tests compose in any order.
 */
class ReplayTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceArena &arena = TraceArena::global();
        enabled_ = arena.stats().enabled;
        budget_ = arena.budgetBytes();
        arena.clear();
        arena.setEnabled(true);
    }

    void
    TearDown() override
    {
        TraceArena &arena = TraceArena::global();
        arena.clear();
        arena.setEnabled(enabled_);
        arena.setBudgetBytes(budget_);
    }

  private:
    bool enabled_ = true;
    uint64_t budget_ = 0;
};

} // namespace

TEST(PackedRecord, RoundTripsEveryFieldCombination)
{
    for (unsigned bits = 0; bits < 32; ++bits) {
        TraceRecord rec;
        rec.pc = 0x400000 + bits * 0x1111;
        rec.addr = 0xdeadbeef000 + bits;
        rec.isLoad = bits & 1;
        rec.isStore = (bits >> 1) & 1;
        rec.isBranch = (bits >> 2) & 1;
        rec.mispredicted = (bits >> 3) & 1;
        rec.dependsOnPrevLoad = (bits >> 4) & 1;
        const TraceRecord back = PackedRecord::pack(rec).unpack();
        expectSameRecord(rec, back, bits, "roundtrip");
    }
}

TEST(PackedRecord, PreservesFullAddressAndMaxPc)
{
    TraceRecord rec;
    rec.pc = PackedRecord::kPcMask; // 56-bit ceiling
    rec.addr = ~0ull;
    const TraceRecord back = PackedRecord::pack(rec).unpack();
    EXPECT_EQ(back.pc, PackedRecord::kPcMask);
    EXPECT_EQ(back.addr, ~0ull);
}

TEST(PackedRecord, RejectsOverwidePc)
{
    TraceRecord rec;
    rec.pc = PackedRecord::kPcMask + 1;
    EXPECT_THROW(PackedRecord::pack(rec), std::runtime_error);
}

/** Replay equivalence for every field of every record of every
 *  workload of every suite, crossing at least one chunk boundary. */
TEST_F(ReplayTest, ReplayMatchesLiveGenerationForEveryWorkload)
{
    const uint64_t n = MaterializedTrace::kChunkRecords + 1000;
    for (const WorkloadSpec &w : allWorkloads()) {
        SyntheticTrace live(w.app);
        ReplaySource replay(
            TraceArena::global().acquireTrace(w.app, n));
        for (uint64_t i = 0; i < n; ++i) {
            expectSameRecord(live.next(), replay.next(), i,
                             w.suite + "/" + w.app.name);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST_F(ReplayTest, ResetReplaysTheSameRecords)
{
    const AppProfile app = appByName("lbm06");
    const uint64_t n = 5000;
    ReplaySource replay(TraceArena::global().acquireTrace(app, n));
    for (uint64_t i = 0; i < 1234; ++i)
        replay.next(); // consume partway (source is the recorder)
    replay.reset();
    EXPECT_EQ(replay.position(), 0u);
    SyntheticTrace live(app);
    for (uint64_t i = 0; i < n; ++i) {
        expectSameRecord(live.next(), replay.next(), i, "post-reset");
        if (HasFatalFailure())
            return;
    }
}

TEST_F(ReplayTest, RecorderHandoffPreservesTheStream)
{
    const AppProfile app = appByName("mcf06");
    const uint64_t n = 3000;
    const auto trace = TraceArena::global().acquireTrace(app, n);
    {
        ReplaySource first(trace);
        for (uint64_t i = 0; i < n / 2; ++i)
            first.next();
        EXPECT_TRUE(first.recording());
        // Destroyed mid-trace: the recorder role is released with the
        // generator parked at the frontier.
    }
    ReplaySource second(trace);
    SyntheticTrace live(app);
    for (uint64_t i = 0; i < n; ++i) {
        // First half replays published records; the second half makes
        // this source claim the role and continue generation.
        expectSameRecord(live.next(), second.next(), i, "handoff");
        if (HasFatalFailure())
            return;
    }
    EXPECT_TRUE(second.recording());
}

TEST_F(ReplayTest, ExhaustionThrowsInsteadOfWrapping)
{
    const AppProfile app = appByName("lbm06");
    ReplaySource replay(TraceArena::global().acquireTrace(app, 100));
    for (uint64_t i = 0; i < 100; ++i)
        replay.next();
    EXPECT_THROW(replay.next(), std::runtime_error);
}

TEST_F(ReplayTest, SameThreadReadPastFrontierThrows)
{
    const AppProfile app = appByName("lbm06");
    const auto trace = TraceArena::global().acquireTrace(app, 1000);
    ReplaySource recorder(trace);
    recorder.next(); // becomes the recorder at record 0
    ASSERT_TRUE(recorder.recording());
    ReplaySource behind(trace);
    behind.next(); // published record: fine
    // Record 1 is past the frontier and the recorder lives on this
    // very thread — waiting can never succeed, so it must throw.
    EXPECT_THROW(behind.next(), std::runtime_error);
}

TEST_F(ReplayTest, ConcurrentConsumersSeeIdenticalRecords)
{
    const AppProfile app = appByName("ligra_bfs");
    const uint64_t n = 2 * MaterializedTrace::kChunkRecords;
    auto hashOf = [](TraceSource &src, uint64_t count) {
        uint64_t h = 1469598103934665603ull;
        for (uint64_t i = 0; i < count; ++i) {
            const TraceRecord rec = src.next();
            for (uint64_t v :
                 {rec.pc, rec.addr,
                  static_cast<uint64_t>(rec.isLoad) |
                      static_cast<uint64_t>(rec.isStore) << 1 |
                      static_cast<uint64_t>(rec.isBranch) << 2 |
                      static_cast<uint64_t>(rec.mispredicted) << 3 |
                      static_cast<uint64_t>(rec.dependsOnPrevLoad)
                          << 4}) {
                h ^= v;
                h *= 1099511628211ull;
            }
        }
        return h;
    };
    SyntheticTrace live(app);
    const uint64_t expected = hashOf(live, n);

    const auto trace = TraceArena::global().acquireTrace(app, n);
    std::vector<uint64_t> hashes(4, 0);
    {
        std::vector<std::thread> threads;
        for (size_t t = 0; t < hashes.size(); ++t)
            threads.emplace_back([&, t] {
                ReplaySource src(trace);
                hashes[t] = hashOf(src, n);
            });
        for (auto &th : threads)
            th.join();
    }
    for (size_t t = 0; t < hashes.size(); ++t)
        EXPECT_EQ(hashes[t], expected) << "consumer " << t;
}

TEST_F(ReplayTest, ArenaCountsHitsAndMisses)
{
    TraceArena &arena = TraceArena::global();
    const AppProfile app = appByName("lbm06");
    const auto a = arena.acquireTrace(app, 1000);
    const auto b = arena.acquireTrace(app, 1000);
    EXPECT_EQ(a.get(), b.get()); // one workload, one materialization
    const auto c = arena.acquireTrace(app, 2000);
    EXPECT_NE(a.get(), c.get()); // instruction count is part of the key

    AppProfile reseeded = app;
    reseeded.seed ^= 1;
    const auto d = arena.acquireTrace(reseeded, 1000);
    EXPECT_NE(a.get(), d.get()); // seed is part of the key

    const TraceArena::Stats s = arena.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.entries, 3u);
}

TEST_F(ReplayTest, ArenaEvictsLeastRecentlyUsedOverBudget)
{
    TraceArena &arena = TraceArena::global();
    const uint64_t n = 4096;
    // Budget fits exactly one fully-materialized 4096-record trace,
    // so the third acquire (with two resident) must evict the oldest.
    arena.setBudgetBytes(n * sizeof(PackedRecord));

    const char *apps[] = {"lbm06", "mcf06", "gcc06"};
    for (const char *name : apps) {
        ReplaySource src(
            arena.acquireTrace(appByName(name), n));
        for (uint64_t i = 0; i < n; ++i)
            src.next(); // materialize fully so bytes() is real
    }
    const TraceArena::Stats s = arena.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_LE(s.entries, 2u);

    // The survivor set is the most recently acquired; re-acquiring
    // the oldest is a miss again.
    arena.acquireTrace(appByName("lbm06"), n);
    EXPECT_EQ(arena.stats().misses, 4u);
}

TEST_F(ReplayTest, DisabledArenaFallsBackToLiveGeneration)
{
    TraceArena::global().setEnabled(false);
    const auto src = makeRunSource(appByName("lbm06"), 1000);
    EXPECT_NE(dynamic_cast<SyntheticTrace *>(src.get()), nullptr);
    EXPECT_EQ(TraceArena::global().stats().misses, 0u);

    TraceArena::global().setEnabled(true);
    const auto replay = makeRunSource(appByName("lbm06"), 1000);
    EXPECT_NE(dynamic_cast<ReplaySource *>(replay.get()), nullptr);
}

/** End-to-end: a CoreModel run over the arena must produce exactly
 *  the counters of the same run over a live generator. */
TEST_F(ReplayTest, CoreModelRunIsIdenticalOnAndOffArena)
{
    const AppProfile app = appByName("mcf06");
    const uint64_t instr = 30000; // > one chunk
    auto runOnce = [&] {
        StridePrefetcher pf(64, 1);
        const auto trace = makeRunSource(app, instr);
        CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, &pf);
        core.run(instr);
        return std::tuple<uint64_t, uint64_t, uint64_t>(
            core.cycles(), core.hierarchy().llcDemandMisses(),
            core.hierarchy().prefetchStats().issued);
    };
    const auto recorded = runOnce(); // arena miss: records while running
    const auto replayed = runOnce(); // arena hit: pure replay
    TraceArena::global().setEnabled(false);
    const auto live = runOnce(); // pre-arena behavior

    EXPECT_EQ(recorded, live);
    EXPECT_EQ(replayed, live);
    TraceArena::global().setEnabled(true);
}

/**
 * A consumer keeps its trace alive through its ReplaySource, so the
 * arena may evict the entry mid-run without disturbing the stream.
 * The run advances in 4k-instruction slices; between slices the
 * budget is 1 byte and other fully materialized traces churn through
 * the arena. The counters must equal one uninterrupted run.
 */
TEST_F(ReplayTest, ConsumerSurvivesMidStreamArenaEviction)
{
    TraceArena &arena = TraceArena::global();
    const uint64_t budget = arena.budgetBytes();
    const AppProfile app = appByName("lbm06");
    const uint64_t instr = 20'000;

    arena.clear();
    arena.setBudgetBytes(budget);
    std::vector<uint64_t> want;
    {
        StridePrefetcher pf(64, 1);
        ReplaySource src(arena.acquireTrace(app, instr));
        CoreModel core(CoreConfig{}, HierarchyConfig{}, src, &pf);
        core.run(instr);
        want = coreCounters(core);
    }

    arena.clear();
    StridePrefetcher pf(64, 1);
    ReplaySource src(arena.acquireTrace(app, instr));
    CoreModel core(CoreConfig{}, HierarchyConfig{}, src, &pf);
    arena.setBudgetBytes(1);
    uint64_t churnSeed = 1;
    for (uint64_t done = 0; done < instr;) {
        done = std::min<uint64_t>(done + 4'000, instr);
        core.run(done);
        AppProfile other = appByName("mcf06");
        other.seed += churnSeed++;
        ReplaySource churn(arena.acquireTrace(other, 1'000));
        for (int i = 0; i < 1'000; ++i)
            churn.next();
        // Only the churn trace is resident: the arena has dropped
        // the stream the core is still reading.
        EXPECT_EQ(arena.stats().entries, 1u);
    }
    EXPECT_EQ(coreCounters(core), want) << "diverged across arena churn";
}

/** SMT leg: a ThreadSource replaying a shared UopStream must emit
 *  exactly the uops of a live ThreadSource, across chunk borders. */
TEST_F(ReplayTest, UopStreamReplayMatchesLiveThreadSource)
{
    const SmtAppParams &params = smtAppCatalog().front();
    const uint64_t seed = 12345;
    const uint64_t n = UopStream::kChunkUops + 2000;

    ThreadSource live(params, seed);
    ThreadSource replay(params, seed);
    replay.attachStream(acquireUopStream(params, seed));
    ASSERT_TRUE(replay.replaying());
    ASSERT_FALSE(live.replaying());

    for (uint64_t i = 0; i < n; ++i) {
        const Uop a = live.next();
        const Uop b = replay.next();
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
            << "uop " << i;
        ASSERT_EQ(a.execLatency, b.execLatency) << "uop " << i;
        ASSERT_EQ(a.drainLatency, b.drainLatency) << "uop " << i;
        ASSERT_EQ(a.mispredicted, b.mispredicted) << "uop " << i;
        ASSERT_EQ(a.depDistance, b.depDistance) << "uop " << i;
    }

    // Same (params, seed) acquires the same shared stream; and reset
    // rewinds the replay to uop 0.
    EXPECT_EQ(acquireUopStream(params, seed).get(),
              acquireUopStream(params, seed).get());
    replay.reset();
    ThreadSource fresh(params, seed);
    const Uop a = fresh.next();
    const Uop b = replay.next();
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    EXPECT_EQ(a.execLatency, b.execLatency);
}
