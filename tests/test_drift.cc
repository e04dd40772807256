#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core_model.h"
#include "trace/drift.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

#include "sweep.h"

/**
 * Drifting trace-generator tests (trace/drift.h). The central
 * contract: a DriftProfile is an ordinary AppProfile plus a schedule,
 * so every property the stationary workloads enjoy — byte-exact
 * replay, arena spill/warm-start, jobs determinism — must hold
 * for drifting streams unchanged, and the regime switches must land
 * on the exact instruction the schedule names.
 */

namespace mab {
namespace {

namespace fs = std::filesystem;

using bench::PfTask;

/** The drift grid through the harness's execution core. */
std::vector<bench::PfRun>
runGrid(const std::vector<PfTask> &tasks, int jobs)
{
    std::vector<bench::PfRun> runs;
    bench::runCells(bench::pfCells(tasks, &runs), jobs);
    return runs;
}

/** A one-phase base profile so every drift segment maps to exactly
 *  one generated phase (boundary checks become exact). */
AppProfile
onePhaseBase(PatternKind kind, uint64_t seed)
{
    AppProfile app;
    app.name = kind == PatternKind::Streaming ? "base_stream"
                                              : "base_chase";
    PatternPhase ph;
    ph.kind = kind;
    ph.memFraction = 0.4;
    ph.storeFraction = 0.2;
    ph.branchFraction = 0.1;
    ph.mispredictRate = 0.02;
    ph.footprintBytes = 1 << 20;
    ph.lengthInstrs = 1'000'000;
    app.phases = {ph};
    app.seed = seed;
    return app;
}

uint64_t
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

std::vector<uint64_t>
runFingerprint(const std::vector<bench::PfRun> &runs)
{
    std::vector<uint64_t> fp;
    for (const bench::PfRun &r : runs) {
        fp.push_back(bits(r.ipc));
        fp.push_back(r.pf.issued);
        fp.push_back(r.pf.timely);
        fp.push_back(r.pf.late);
        fp.push_back(r.pf.wrong);
        fp.push_back(r.llcDemandMisses);
        fp.push_back(r.l2DemandAccesses);
        fp.push_back(r.instructions);
    }
    return fp;
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
        ASSERT_EQ(a.mispredicted, b.mispredicted)
            << who << " record " << i;
        ASSERT_EQ(a.dependsOnPrevLoad, b.dependsOnPrevLoad)
            << who << " record " << i;
    }
}

// ---------------------------------------------------------------------
// Schedule construction
// ---------------------------------------------------------------------

TEST(DriftProfile, CyclicScheduleAlternatesWithExactPeriod)
{
    const AppProfile a = onePhaseBase(PatternKind::Streaming, 21);
    const AppProfile b = onePhaseBase(PatternKind::PointerChase, 22);
    const DriftProfile d =
        makeCyclicProfile("cyc", a, b, 500, 2'600, 3);

    EXPECT_EQ(d.totalInstrs(), 2'600u);
    EXPECT_EQ(d.app.seed, 3u);
    EXPECT_TRUE(d.app.loopPhases);
    ASSERT_EQ(d.schedule.size(), 6u);
    ASSERT_EQ(d.app.phases.size(), 6u);
    for (size_t i = 0; i < d.schedule.size(); ++i) {
        EXPECT_EQ(d.schedule[i].base, i % 2) << "segment " << i;
        EXPECT_EQ(d.schedule[i].startInstr, i * 500) << i;
        EXPECT_EQ(d.schedule[i].lengthInstrs, i < 5 ? 500u : 100u)
            << i;
        EXPECT_EQ(d.app.phases[i].kind,
                  i % 2 == 0 ? PatternKind::Streaming
                             : PatternKind::PointerChase)
            << i;
        EXPECT_EQ(d.app.phases[i].lengthInstrs,
                  d.schedule[i].lengthInstrs)
            << i;
    }

    EXPECT_THROW(makeCyclicProfile("cyc", a, b, 0, 1000, 1),
                 std::invalid_argument);
    EXPECT_THROW(makeCyclicProfile("cyc", a, b, 100, 0, 1),
                 std::invalid_argument);
}

TEST(DriftProfile, PhaseShiftScheduleFollowsTheShiftList)
{
    const AppProfile a = onePhaseBase(PatternKind::Streaming, 31);
    const AppProfile b = onePhaseBase(PatternKind::PointerChase, 32);
    const DriftProfile d = makePhaseShiftProfile(
        "shift", {a, b}, {300, 200, 400}, 5);

    EXPECT_EQ(d.totalInstrs(), 900u);
    ASSERT_EQ(d.schedule.size(), 3u);
    const uint64_t lens[] = {300, 200, 400};
    uint64_t at = 0;
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(d.schedule[i].base, i % 2) << i;
        EXPECT_EQ(d.schedule[i].startInstr, at) << i;
        EXPECT_EQ(d.schedule[i].lengthInstrs, lens[i]) << i;
        at += lens[i];
    }
    EXPECT_THROW(makePhaseShiftProfile("shift", {}, {100}, 1),
                 std::invalid_argument);
    EXPECT_THROW(makePhaseShiftProfile("shift", {a}, {}, 1),
                 std::invalid_argument);
}

TEST(DriftProfile, AdversarialSegmentsStayInTheWindowBand)
{
    const AppProfile a = onePhaseBase(PatternKind::Streaming, 41);
    const AppProfile b = onePhaseBase(PatternKind::PointerChase, 42);
    const uint64_t window = 200;
    const DriftProfile d = makeAdversarialProfile(
        "adv", a, b, window, 5'000, 9);

    EXPECT_EQ(d.totalInstrs(), 5'000u);
    uint64_t sum = 0;
    for (size_t i = 0; i < d.schedule.size(); ++i) {
        EXPECT_EQ(d.schedule[i].base, i % 2) << i;
        // Lengths are drawn from [W/2, 3W/2] so a fixed W-length
        // window is always off-beat; only the final (truncated)
        // segment may undershoot.
        if (i + 1 < d.schedule.size()) {
            EXPECT_GE(d.schedule[i].lengthInstrs, window / 2) << i;
        }
        EXPECT_LE(d.schedule[i].lengthInstrs, 3 * window / 2) << i;
        sum += d.schedule[i].lengthInstrs;
    }
    EXPECT_EQ(sum, 5'000u);

    EXPECT_THROW(makeAdversarialProfile("adv", a, b, 1, 1000, 1),
                 std::invalid_argument);
}

TEST(DriftProfile, SegmentLookupAgreesWithBoundaries)
{
    const AppProfile a = onePhaseBase(PatternKind::Streaming, 51);
    const AppProfile b = onePhaseBase(PatternKind::PointerChase, 52);
    for (const DriftProfile &d :
         {makeCyclicProfile("cyc", a, b, 321, 2'000, 1),
          makeAdversarialProfile("adv", a, b, 150, 2'000, 2)}) {
        for (size_t i = 0; i < d.schedule.size(); ++i) {
            const DriftSegment &s = d.schedule[i];
            EXPECT_EQ(driftSegmentAt(d.schedule, s.startInstr), i);
            EXPECT_EQ(driftSegmentAt(d.schedule,
                                     s.startInstr +
                                         s.lengthInstrs - 1),
                      i);
        }
        // Past-the-end instructions clamp to the last segment.
        EXPECT_EQ(driftSegmentAt(d.schedule, d.totalInstrs() + 5),
                  d.schedule.size() - 1);
    }
}

// ---------------------------------------------------------------------
// Generated streams
// ---------------------------------------------------------------------

TEST(DriftTrace, RegimeSwitchesExactlyAtScheduleBoundaries)
{
    // One-phase bases make each segment exactly one generator phase,
    // so currentPhase() must equal the schedule's segment index at
    // every single instruction — the switch is exact, not approximate.
    const AppProfile a = onePhaseBase(PatternKind::Streaming, 61);
    const AppProfile b = onePhaseBase(PatternKind::PointerChase, 62);
    const DriftProfile d =
        makeCyclicProfile("cyc", a, b, 400, 2'000, 7);

    SyntheticTrace trace(d.app);
    for (uint64_t i = 0; i < d.totalInstrs(); ++i) {
        ASSERT_EQ(trace.currentPhase(), driftSegmentAt(d.schedule, i))
            << "instr " << i;
        trace.next();
    }
}

TEST(DriftTrace, SameSeedGeneratesIdenticalStreams)
{
    const AppProfile a = onePhaseBase(PatternKind::Streaming, 71);
    const AppProfile b = onePhaseBase(PatternKind::PointerChase, 72);
    const DriftProfile d1 =
        makeAdversarialProfile("adv", a, b, 120, 3'000, 13);
    const DriftProfile d2 =
        makeAdversarialProfile("adv", a, b, 120, 3'000, 13);

    SyntheticTrace t1(d1.app);
    SyntheticTrace t2(d2.app);
    for (uint64_t i = 0; i < 3'000; ++i) {
        const TraceRecord x = t1.next();
        const TraceRecord y = t2.next();
        ASSERT_EQ(x.pc, y.pc) << i;
        ASSERT_EQ(x.addr, y.addr) << i;
        ASSERT_EQ(x.isLoad, y.isLoad) << i;
    }
}

TEST(DriftTrace, ReplayMatchesLiveGeneration)
{
    for (const AppProfile &app :
         {driftBaseProfiles()[0], driftBaseProfiles()[1]}) {
        // Materialized drifting streams must replay byte-identically,
        // exactly like stationary ones.
        const AppProfile other = driftBaseProfiles()[1];
        const DriftProfile d = makeCyclicProfile(
            "cyc_" + app.name, app, other, 700, 4'000, 17);
        expectMatchesLive(d.app,
                          MaterializedTrace::generate(d.app, 4'000),
                          4'000, d.app.name);
    }
}

// ---------------------------------------------------------------------
// Sweep-machinery composition
// ---------------------------------------------------------------------

/** The drift grid the determinism tests sweep: two drifting workloads
 *  x two prefetchers at 6k instructions. */
std::vector<PfTask>
driftTasks()
{
    const std::vector<AppProfile> bases = driftBaseProfiles();
    const uint64_t instr = 6'000;
    std::vector<DriftProfile> workloads = {
        makeCyclicProfile("t_drift_cyc", bases[0], bases[1], 1'500,
                          instr, 911),
        makeAdversarialProfile("t_drift_adv", bases[0], bases[1],
                               750, instr, 913),
    };
    std::vector<PfTask> tasks;
    for (const DriftProfile &w : workloads)
        for (const char *pf : {"Stride", "Bandit:DUCB"})
            tasks.push_back({w.app, pf, instr});
    return tasks;
}

TEST(DriftSweep, ByteIdenticalAcrossJobs)
{
    TraceArena &arena = TraceArena::global();
    const bool enabled = arena.stats().enabled;
    arena.clear();
    arena.setEnabled(true);

    const std::vector<PfTask> tasks = driftTasks();
    const std::vector<uint64_t> want =
        runFingerprint(runGrid(tasks, 1));
    ASSERT_FALSE(want.empty());

    arena.clear();
    EXPECT_EQ(runFingerprint(runGrid(tasks, 4)), want)
        << "jobs 4 diverged from jobs 1";

    arena.clear();
    arena.setEnabled(enabled);
}

TEST(DriftReplay, SurvivesMidStreamArenaEviction)
{
    TraceArena &arena = TraceArena::global();
    const bool enabled = arena.stats().enabled;
    const uint64_t budget = arena.budgetBytes();
    arena.clear();
    arena.setEnabled(true);
    const uint64_t instr = 12'000;
    const std::vector<AppProfile> bases = driftBaseProfiles();
    const DriftProfile d = makeCyclicProfile(
        "evict_drift", bases[0], bases[1], 3'000, instr, 23);

    const auto counters = [](const CoreModel &core) {
        const CacheHierarchy &h = core.hierarchy();
        const PrefetchStats &ps = h.prefetchStats();
        return std::vector<uint64_t>{
            core.instructions(), core.cycles(), bits(core.ipc()),
            h.hitsAt(HitLevel::L1), h.hitsAt(HitLevel::L2),
            h.hitsAt(HitLevel::Llc), h.hitsAt(HitLevel::Dram),
            h.l2DemandAccesses(), h.llcDemandMisses(), ps.issued,
            ps.timely, ps.late, ps.wrong};
    };
    std::vector<uint64_t> want;
    {
        auto pf = bench::makePrefetcher("Stride", 7);
        ReplaySource src(arena.acquireTrace(d.app, instr));
        CoreModel core(CoreConfig{}, HierarchyConfig{}, src,
                       pf.get(), nullptr, DramConfig{});
        core.run(instr);
        want = counters(core);
    }

    // Evict the drifting trace mid-run; the ReplaySource's shared_ptr
    // must keep the stream alive and undisturbed through the phase
    // boundaries, which the 2.5k-instruction slices straddle.
    arena.clear();
    auto pf = bench::makePrefetcher("Stride", 7);
    ReplaySource src(arena.acquireTrace(d.app, instr));
    CoreModel core(CoreConfig{}, HierarchyConfig{}, src, pf.get(),
                   nullptr, DramConfig{});
    arena.setBudgetBytes(1);
    uint64_t churn_seed = 1;
    for (uint64_t done = 0; done < instr;) {
        done = std::min<uint64_t>(done + 2'500, instr);
        core.run(done);
        AppProfile other = bases[1];
        other.seed += churn_seed++;
        ReplaySource churn(arena.acquireTrace(other, 1'000));
        for (int i = 0; i < 1'000; ++i)
            churn.next();
        // Only the churn trace is resident.
        EXPECT_EQ(arena.stats().entries, 1u);
    }
    EXPECT_GT(arena.stats().evictions, 0u);
    EXPECT_EQ(counters(core), want);

    arena.clear();
    arena.setBudgetBytes(budget);
    arena.setEnabled(enabled);
}

TEST(DriftArena, MabaSpillWarmStartsByteIdentically)
{
    TraceArena &arena = TraceArena::global();
    const bool enabled = arena.stats().enabled;
    const uint64_t budget = arena.budgetBytes();
    const std::string dir = arena.dir();

    const fs::path tmp =
        fs::path(::testing::TempDir()) / "mab_drift_arena";
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    arena.clear();
    arena.setEnabled(true);
    arena.setDir(tmp.string());

    const std::vector<AppProfile> bases = driftBaseProfiles();
    const DriftProfile d = makeAdversarialProfile(
        "maba_drift", bases[0], bases[1], 600, 5'000, 29);
    const uint64_t n = 5'000;

    // Cold acquire generates and spills the drifting stream.
    auto cold = arena.acquireTrace(d.app, n);
    EXPECT_EQ(arena.stats().fileSpills, 1u);
    EXPECT_FALSE(cold->isMapped());
    cold.reset();

    // Warm start: a fresh process-state acquire must map the .maba
    // file and hand back the very records live generation produces.
    arena.clear();
    auto warm = arena.acquireTrace(d.app, n);
    EXPECT_EQ(arena.stats().fileHits, 1u);
    EXPECT_TRUE(warm->isMapped());
    expectMatchesLive(d.app, warm, n, "drift warm-start");

    arena.clear();
    arena.setDir(dir);
    arena.setEnabled(enabled);
    arena.setBudgetBytes(budget);
    fs::remove_all(tmp);
}

} // namespace
} // namespace mab
