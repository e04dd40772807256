#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.h"
#include "sim/rng.h"

#include "sweep.h"

/**
 * SweepRunner contract tests (tier 1), plus the determinism tests the
 * parallel bench harness relies on: a sweep submitted with --jobs 1
 * and --jobs 8 must produce byte-identical reports (outside the meta
 * block, which records the job count and wall-clock), and the claim
 * order every sweep's cells run in (bench::claimOrder, through
 * bench::runCells) must only reorder execution.
 */

namespace mab {
namespace {

TEST(SweepRunner, ResultsInSubmissionOrder)
{
    SweepRunner runner(4);
    const size_t n = 32;
    // Later tasks finish first (decreasing sleep), so completion
    // order differs from submission order.
    const std::vector<int> out = runner.runAll<int>(n, [&](size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(200 * ((n - i) % 5)));
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(SweepRunner, FirstSubmissionOrderExceptionPropagates)
{
    SweepRunner runner(4);
    std::atomic<int> ran{0};
    try {
        runner.runAll<int>(16, [&](size_t i) {
            ++ran;
            if (i == 3 || i == 10)
                throw std::runtime_error("task " + std::to_string(i));
            return 0;
        });
        FAIL() << "expected the task exception to propagate";
    } catch (const std::runtime_error &e) {
        // Of the two failures, the one earliest in submission order
        // wins, regardless of which thread hit it first.
        EXPECT_STREQ(e.what(), "task 3");
    }
    // The batch drains fully even when tasks fail.
    EXPECT_EQ(ran.load(), 16);
}

TEST(SweepRunner, MoreJobsThanTasks)
{
    SweepRunner runner(8);
    const std::vector<size_t> out =
        runner.runAll<size_t>(3, [](size_t i) { return i + 1; });
    EXPECT_EQ(out, (std::vector<size_t>{1, 2, 3}));
}

TEST(SweepRunner, SingleJobRunsInline)
{
    // jobs <= 1 must not spawn threads: every task runs on the
    // calling thread (the threadless fallback path).
    for (int jobs : {1, -2}) {
        SweepRunner runner(jobs);
        EXPECT_EQ(runner.jobs(), 1);
        const auto caller = std::this_thread::get_id();
        const std::vector<bool> inline_run = runner.runAll<bool>(
            5, [&](size_t) {
                return std::this_thread::get_id() == caller;
            });
        for (bool on_caller : inline_run)
            EXPECT_TRUE(on_caller);
    }
}

TEST(SweepRunner, CallerParticipates)
{
    // With N jobs the runner owns N-1 worker threads; the caller is
    // the Nth. With jobs=2 and serialized tasks, the caller thread
    // must pick up work too.
    SweepRunner runner(2);
    std::set<std::thread::id> ids;
    std::mutex mu;
    runner.runAll<int>(8, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
        return 0;
    });
    EXPECT_LE(ids.size(), 2u);
    EXPECT_TRUE(ids.count(std::this_thread::get_id()));
}

TEST(SweepRunner, RecordsPerTaskWallClock)
{
    SweepRunner runner(2);
    runner.runAll<int>(4, [](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return 0;
    });
    ASSERT_EQ(runner.lastTaskStats().size(), 4u);
    for (const SweepTaskStats &s : runner.lastTaskStats())
        EXPECT_GT(s.wallNs, 0u);
}

TEST(SweepRunner, ReusableAcrossBatches)
{
    SweepRunner runner(3);
    for (int batch = 0; batch < 3; ++batch) {
        const std::vector<int> out = runner.runAll<int>(
            6, [&](size_t i) {
                return batch * 100 + static_cast<int>(i);
            });
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], batch * 100 + static_cast<int>(i));
    }
}

/**
 * A miniature bench sweep through the real harness plumbing
 * (bench::runCells over full CoreModel simulations), serialized to
 * JSON the way --json reports are. Byte-identical across job counts.
 */
std::string
sweepReport(int jobs)
{
    using namespace mab::bench;
    const std::vector<std::string> apps = {"lbm06", "gcc06"};
    const std::vector<std::string> pfs = {"None", "Stride", "Bandit"};
    const uint64_t instr = 25'000;

    std::vector<PfTask> grid;
    for (const std::string &app : apps)
        for (const std::string &pf : pfs)
            grid.push_back({appByName(app), pf, instr});
    std::vector<PfRun> runs;
    runCells(pfCells(grid, &runs), jobs);

    json::Value root = json::Value::object();
    for (size_t a = 0; a < apps.size(); ++a) {
        json::Value row = json::Value::object();
        for (size_t p = 0; p < pfs.size(); ++p)
            row[pfs[p]] = runs[a * pfs.size() + p].ipc;
        root[apps[a]] = std::move(row);
    }
    return root.dump(2);
}

TEST(SweepRunner, BenchSweepIsDeterministicAcrossJobCounts)
{
    const std::string serial = sweepReport(1);
    const std::string parallel = sweepReport(8);
    // Byte-identical modulo the meta block (which this report omits;
    // meta records jobs and per-task wall-clock and so legitimately
    // differs between job counts).
    EXPECT_EQ(serial, parallel);
}

TEST(ClaimOrder, JobsOneRunsEachStreamBackToBack)
{
    // Groups in order of first appearance, cells within a group in
    // grid order.
    const std::vector<std::string> keys = {"a", "b", "a", "c",
                                           "b", "a"};
    EXPECT_EQ(bench::claimOrder(keys, 1),
              (std::vector<size_t>{0, 2, 5, 1, 4, 3}));
}

TEST(ClaimOrder, WindowsOfJobsGoRankMajor)
{
    // jobs 2 over a a a b b c: window {a, b} as a0 b0 a1 b1 a2, then
    // window {c}.
    const std::vector<std::string> keys = {"a", "a", "a",
                                           "b", "b", "c"};
    EXPECT_EQ(bench::claimOrder(keys, 2),
              (std::vector<size_t>{0, 3, 1, 4, 2, 5}));
}

TEST(ClaimOrder, AlwaysAPermutation)
{
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t n = rng.below(40);
        const uint64_t distinct = 1 + rng.below(8);
        std::vector<std::string> keys;
        for (size_t i = 0; i < n; ++i)
            keys.push_back(std::to_string(rng.below(distinct)));
        const int jobs = static_cast<int>(rng.below(10)) - 1;
        std::vector<size_t> order = bench::claimOrder(keys, jobs);
        std::sort(order.begin(), order.end());
        std::vector<size_t> all(n);
        std::iota(all.begin(), all.end(), size_t{0});
        EXPECT_EQ(order, all) << "trial " << trial << " jobs " << jobs;
    }
}

/** Bit-exact fingerprint of a prefetching sweep's results. */
std::vector<uint64_t>
pfFingerprint(const std::vector<bench::PfRun> &runs)
{
    std::vector<uint64_t> fp;
    for (const bench::PfRun &r : runs) {
        uint64_t ipc = 0;
        std::memcpy(&ipc, &r.ipc, sizeof(ipc));
        fp.insert(fp.end(), {ipc, r.pf.issued, r.pf.timely, r.pf.late,
                             r.pf.wrong, r.llcDemandMisses,
                             r.l2DemandAccesses, r.instructions});
    }
    return fp;
}

/** The bench-harness execution core: every cell of a prefetching
 *  sweep writes its result at its grid index, the same at any jobs
 *  count. */
TEST(SweepPrefetchRuns, ByteIdenticalAcrossJobs)
{
    TraceArena &arena = TraceArena::global();
    const bool enabled = arena.stats().enabled;
    arena.clear();
    arena.setEnabled(true);
    const uint64_t instr = 8'000;
    // Prefetcher-major, so the claim order differs from grid order at
    // every job count.
    std::vector<bench::PfTask> tasks;
    for (const char *pf : {"None", "Stride", "Bandit"})
        for (const char *app : {"lbm06", "mcf06"})
            tasks.push_back({appByName(app), pf, instr});

    std::vector<bench::PfRun> direct;
    for (const bench::Cell &cell : bench::pfCells(tasks, &direct))
        cell.run(); // grid order, no runner
    const std::vector<uint64_t> want = pfFingerprint(direct);

    for (int jobs : {1, 4}) {
        arena.clear();
        std::vector<bench::PfRun> runs;
        bench::runCells(bench::pfCells(tasks, &runs), jobs);
        EXPECT_EQ(pfFingerprint(runs), want) << "jobs " << jobs;
    }
    arena.clear();
    arena.setEnabled(enabled);
}

/**
 * A bandwidth-major grid (the shape of Fig. 10) under an arena that
 * holds one stream: claimed in grid order, every bandwidth pass
 * regenerates every workload's stream (6 misses); in claim order each
 * stream is recorded once (3 misses).
 */
TEST(SweepPrefetchRuns, BandwidthMajorGridRecordsEachStreamOnce)
{
    TraceArena &arena = TraceArena::global();
    const bool enabled = arena.stats().enabled;
    const uint64_t budget = arena.budgetBytes();
    arena.clear();
    arena.setEnabled(true);
    const uint64_t instr = 5'000;
    arena.setBudgetBytes(instr * sizeof(PackedRecord));

    std::vector<bench::PfTask> tasks;
    for (double mtps : {150.0, 9600.0}) {
        DramConfig dram;
        dram.mtps = mtps;
        for (const char *app : {"lbm06", "mcf06", "gcc06"})
            tasks.push_back({appByName(app), "Stride", instr, {}, dram});
    }
    std::vector<bench::PfRun> runs;
    bench::runCells(bench::pfCells(tasks, &runs), 1);
    EXPECT_EQ(arena.stats().misses, 3u);

    arena.clear();
    arena.setBudgetBytes(budget);
    arena.setEnabled(enabled);
}

/** Cells that replay no stream are groups of their own, so they keep
 *  their grid order; a stream's cells run back to back at jobs 1. */
TEST(RunCells, StreamlessCellsKeepGridOrder)
{
    std::vector<std::string> ran;
    std::vector<bench::Cell> cells;
    for (const char *name : {"x0", "s0", "x1", "s1", "x2"}) {
        const std::string stream = name[0] == 's' ? "app|#1" : "";
        cells.push_back({stream, json::Value::object(),
                         [&ran, name] { ran.push_back(name); }});
    }
    const std::vector<double> wall = bench::runCells(cells, 1);
    EXPECT_EQ(ran,
              (std::vector<std::string>{"x0", "s0", "s1", "x1", "x2"}));
    EXPECT_EQ(wall.size(), cells.size()) << "one wall-clock per cell";
}

} // namespace
} // namespace mab
