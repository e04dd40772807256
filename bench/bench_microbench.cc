/**
 * Simulator hot-path microbenchmarks: nanoseconds (and derived host
 * cycles) per simulated memory access for the inner loops the sweep
 * engine spends its time in.
 *
 * These are the harness behind the serial hot-path optimizations:
 *   - Cache lookup+fill as one single-pass probe per set scan
 *     (BM_CacheLookupFill),
 *   - devirtualized trace-source and prefetcher dispatch in
 *     CoreModel, and the per-access tracing branch hoisted out of the
 *     run loop (BM_CoreStep*),
 *   - the SMT pipeline kernel per simulated cycle (BM_SmtCycle).
 *
 * Counters: "ns/access" is wall time per simulated cache access (or
 * per instruction for core-level benches). Compare before/after with
 *     ./bench_microbench --benchmark_repetitions=3
 */
#include <benchmark/benchmark.h>

#include <memory>

#include "core/ducb.h"
#include "core/swucb.h"
#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "memory/cache.h"
#include "prefetch/stride.h"
#include "sim/lockstep.h"
#include "sim/rng.h"
#include "smt/fetch_policy.h"
#include "smt/pipeline.h"
#include "smt/thread_source.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

using namespace mab;

namespace {

/** A reproducible mixed stream of hot and streaming lines. */
std::vector<uint64_t>
addressStream(size_t n)
{
    Rng rng(12345);
    std::vector<uint64_t> lines;
    lines.reserve(n);
    uint64_t stream_base = 0x100000;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t r = rng.next64() % 100;
        if (r < 55) {
            // Hot set: revisit one of 512 lines (mostly hits).
            lines.push_back((rng.next64() % 512) * kLineBytes);
        } else {
            // Streaming: fresh lines that force fills + evictions.
            stream_base += kLineBytes;
            lines.push_back(stream_base);
        }
    }
    return lines;
}

} // namespace

/**
 * The Cache::lookupDemand + Cache::fill pair — the per-access work of
 * every level of the hierarchy. The single-pass probe (one combined
 * hit/first-invalid/LRU scan per set) shows up directly here.
 */
static void
BM_CacheLookupFill(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(state.range(0));
    Cache cache(cfg);
    const auto lines = addressStream(1 << 16);

    uint64_t cycle = 0;
    size_t i = 0;
    for (auto _ : state) {
        const uint64_t line = lines[i];
        i = (i + 1) & (lines.size() - 1);
        ++cycle;
        const Cache::LookupResult r = cache.lookupDemand(line, cycle);
        if (!r.hit)
            cache.fill(line, cycle + 30, false);
        benchmark::DoNotOptimize(cache.demandHits);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheLookupFill)
    ->Arg(32 * 1024)
    ->Arg(1024 * 1024)
    ->UseRealTime();

/**
 * Pure hit probe: every lookup finds a resident, fill-complete line.
 * Isolates the per-set tag scan + recency update — the cost every
 * level of the hierarchy pays on the (dominant) hit path.
 */
static void
BM_CacheProbeHit(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(state.range(0));
    Cache cache(cfg);
    // Resident working set: half the capacity, so every set stays
    // fully valid without evictions once warmed.
    const uint64_t resident = cfg.sizeBytes / kLineBytes / 2;
    for (uint64_t i = 0; i < 2 * resident; ++i)
        cache.fill(i * kLineBytes, 0, false);
    Rng rng(42);
    std::vector<uint64_t> lines(1 << 14);
    for (auto &l : lines)
        l = (resident + rng.below(resident)) * kLineBytes;

    uint64_t cycle = 1000;
    size_t i = 0;
    for (auto _ : state) {
        const Cache::LookupResult r =
            cache.lookupDemand(lines[i], ++cycle);
        i = (i + 1) & (lines.size() - 1);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheProbeHit)->Arg(32 * 1024)->Arg(2 * 1024 * 1024)
    ->UseRealTime();

/**
 * Pure miss probe + victim fill: a streaming line sequence that never
 * re-hits, against a fully valid cache. Every access scans a full set
 * without a match, then runs the fused first-invalid/LRU victim scan
 * and writes the new line — the worst-case per-access path.
 */
static void
BM_CacheProbeMiss(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(state.range(0));
    Cache cache(cfg);
    for (uint64_t i = 0; i < cfg.sizeBytes / kLineBytes; ++i)
        cache.fill(i * kLineBytes, 0, false);

    uint64_t next = cfg.sizeBytes / kLineBytes;
    uint64_t cycle = 0;
    for (auto _ : state) {
        ++cycle;
        const Cache::LookupResult r =
            cache.lookupDemand(next * kLineBytes, cycle);
        cache.fill(next * kLineBytes, cycle + 30, false);
        ++next;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheProbeMiss)->Arg(32 * 1024)->Arg(2 * 1024 * 1024)
    ->UseRealTime();

/**
 * Hits on lines whose fill has not completed (MSHR-merge path): the
 * readyCycle compare goes the in-flight way and the prefetched-line
 * first-use tagging stays live. The branchy tail of the hit path.
 */
static void
BM_CacheProbeInflight(benchmark::State &state)
{
    CacheConfig cfg;
    Cache cache(cfg);
    const uint64_t resident = cfg.sizeBytes / kLineBytes / 2;
    // Far-future readyCycle: every hit is an in-flight merge.
    for (uint64_t i = 0; i < resident; ++i)
        cache.fill(i * kLineBytes, ~0ull, true);
    Rng rng(7);
    std::vector<uint64_t> lines(1 << 14);
    for (auto &l : lines)
        l = rng.below(resident) * kLineBytes;

    uint64_t cycle = 0;
    size_t i = 0;
    for (auto _ : state) {
        const Cache::LookupResult r =
            cache.lookupDemand(lines[i], ++cycle);
        i = (i + 1) & (lines.size() - 1);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheProbeInflight)->UseRealTime();

namespace {

/** One full bandit interaction: nextArm's score maximization over the
 *  flat arm arrays, the per-arm count update (DUCB's decay multiply /
 *  SW-UCB's window bookkeeping) and the reward fold. */
template <typename Policy>
void
runPolicySteps(benchmark::State &state, Policy &policy)
{
    Rng rng(99);
    for (auto _ : state) {
        const ArmId arm = policy.selectArm();
        policy.observeReward(0.5 + 0.001 * static_cast<double>(
                                               rng.below(1000)));
        benchmark::DoNotOptimize(arm);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/step"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

} // namespace

/**
 * The DUCB decision loop at the Table-7 arm count (11) and a widened
 * arm table (64): the per-arm score loop (hoisted log, flat r/n
 * arrays) plus the per-step discount multiply over every count.
 */
static void
BM_PolicyScores(benchmark::State &state)
{
    MabConfig cfg;
    cfg.numArms = static_cast<int>(state.range(0));
    Ducb policy(cfg);
    runPolicySteps(state, policy);
}
BENCHMARK(BM_PolicyScores)->Arg(11)->Arg(64)->UseRealTime();

/** SW-UCB variant: score loop plus the sliding-window eviction. */
static void
BM_PolicyScoresSwUcb(benchmark::State &state)
{
    MabConfig cfg;
    cfg.numArms = static_cast<int>(state.range(0));
    SwUcb policy(cfg, 128);
    runPolicySteps(state, policy);
}
BENCHMARK(BM_PolicyScoresSwUcb)->Arg(11)->Arg(64)->UseRealTime();

namespace {

/** Run a CoreModel in chunks, one chunk per benchmark iteration. */
void
runCoreChunks(benchmark::State &state, Prefetcher *pf)
{
    const AppProfile app = appByName("lbm06");
    SyntheticTrace trace(app);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, trace, pf);

    constexpr uint64_t kChunk = 20'000;
    uint64_t target = 0;
    for (auto _ : state) {
        target += kChunk;
        core.run(target);
        benchmark::DoNotOptimize(core.instructions());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kChunk));
    state.counters["ns/instr"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kChunk),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

} // namespace

/**
 * Full core inner loop with a plain stride prefetcher — the dominant
 * cost of single-core sweeps. Exercises the devirtualized trace
 * source and prefetcher dispatch plus the hoisted tracing branch.
 */
static void
BM_CoreStepStride(benchmark::State &state)
{
    StridePrefetcher pf(64, 1);
    runCoreChunks(state, &pf);
}
BENCHMARK(BM_CoreStepStride)->UseRealTime();

/** Core inner loop with the Bandit controller (devirtualized path). */
static void
BM_CoreStepBandit(benchmark::State &state)
{
    BanditPrefetchConfig cfg;
    cfg.hw.stepUnits = 125;
    BanditPrefetchController pf(cfg);
    runCoreChunks(state, &pf);
}
BENCHMARK(BM_CoreStepBandit)->UseRealTime();

/** No prefetcher: the floor — trace generation + hierarchy only. */
static void
BM_CoreStepNoPrefetch(benchmark::State &state)
{
    runCoreChunks(state, nullptr);
}
BENCHMARK(BM_CoreStepNoPrefetch)->UseRealTime();

/**
 * Live trace generation: SyntheticTrace::next() alone — RNG draws,
 * phase machinery, stream cursors. The per-record cost every run pays
 * without the arena.
 */
static void
BM_GeneratorNext(benchmark::State &state)
{
    SyntheticTrace trace(appByName("lbm06"));
    for (auto _ : state) {
        const TraceRecord rec = trace.next();
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/record"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GeneratorNext)->UseRealTime();

/**
 * Materialized replay: ReplaySource::next() — a bounds check, one
 * 16-byte load and a flag unpack. The per-record cost with an arena
 * hit; compare against BM_GeneratorNext for the per-record saving.
 */
static void
BM_ReplayNext(benchmark::State &state)
{
    const auto trace =
        MaterializedTrace::generate(appByName("lbm06"), 1 << 20);
    ReplaySource src(trace);
    for (auto _ : state) {
        if (src.position() >= src.size())
            src.reset();
        const TraceRecord rec = src.next();
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/record"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReplayNext)->UseRealTime();

/**
 * Lockstep record delivery: the lockstepPump() loop of the batch
 * engine (sim/lockstep.h) over a trivial per-cell sink, at batch
 * widths 1 / 2 / 8 / 64. "ns/record/cell" is the amortized per-cell
 * cost of getting one record in front of one simulator instance: one
 * shared ReplaySource fetch per record feeds every cell, so the
 * counter must drop well below BM_ReplayNext's ns/record once the
 * batch is a few cells wide (the sub-ns target at batch >= 8).
 */
static void
BM_LockstepStep(benchmark::State &state)
{
    const size_t cells = static_cast<size_t>(state.range(0));
    const auto trace =
        MaterializedTrace::generate(appByName("lbm06"), 1 << 20);
    ReplaySource src(trace);
    constexpr uint64_t kChunk = 1 << 16;
    uint64_t acc = 0;
    for (auto _ : state) {
        if (src.position() + kChunk > src.size())
            src.reset();
        lockstepPump(src, kChunk, cells,
                     [&acc](size_t, const PackedRecord &rec) {
                         acc += rec.addr;
                     });
        benchmark::DoNotOptimize(acc);
    }
    const double delivered =
        static_cast<double>(state.iterations()) *
        static_cast<double>(kChunk) * static_cast<double>(cells);
    state.SetItemsProcessed(static_cast<int64_t>(delivered));
    state.counters["ns/record/cell"] = benchmark::Counter(
        delivered,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LockstepStep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime();

/**
 * Run construction on an arena hit: what a sweep task pays to get its
 * trace source once a sibling task has materialized the workload —
 * a fingerprint, one map lookup and a shared_ptr copy, instead of
 * regenerating the records.
 */
static void
BM_ArenaHitRunConstruction(benchmark::State &state)
{
    TraceArena &arena = TraceArena::global();
    arena.clear();
    const AppProfile app = appByName("lbm06");
    constexpr uint64_t kInstr = 1 << 16;
    arena.acquireTrace(app, kInstr); // warm: every iteration hits
    for (auto _ : state) {
        const auto src = makeRunSource(app, kInstr);
        benchmark::DoNotOptimize(src.get());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/run"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    arena.clear();
}
BENCHMARK(BM_ArenaHitRunConstruction)->UseRealTime();

/**
 * SMT pipeline kernel: SmtPipeline::run over pre-materialized uop
 * streams for one fixed mix (gcc+lbm), one Table 1 arm per argument
 * (0..5 = IC_0000, BrC_1000, IC_1110, IC_1111, LSQC_1111, RR_1111) at
 * fixed even shares. The streams are generated by an untimed warm-up
 * run, so the timed runs replay them and measure the pipeline alone
 * (no Hill Climbing, no agent). "ns/cycle" is host time per simulated
 * cycle, quiescent cycles included.
 */
static void
BM_SmtCycle(benchmark::State &state)
{
    constexpr uint64_t kCycles = 200'000;
    const PgPolicy policy =
        smtArmTable()[static_cast<size_t>(state.range(0))];
    const auto s0 =
        std::make_shared<UopStream>(smtAppByName("gcc"), 0x9E37u + 1);
    const auto s1 =
        std::make_shared<UopStream>(smtAppByName("lbm"), 0x9E37u + 2);
    ThreadSource src0(smtAppByName("gcc"), 0x9E37u + 1);
    ThreadSource src1(smtAppByName("lbm"), 0x9E37u + 2);
    const auto run = [&] {
        src0.attachStream(s0);
        src1.attachStream(s1);
        SmtPipeline pipe(SmtConfig{}, {&src0, &src1});
        pipe.setPolicy(policy);
        pipe.run(kCycles);
        return pipe.committed(0) + pipe.committed(1);
    };
    run(); // materialize the streams
    for (auto _ : state)
        benchmark::DoNotOptimize(run());
    const double cycles = static_cast<double>(state.iterations()) *
        static_cast<double>(kCycles);
    state.SetLabel(policy.name());
    state.SetItemsProcessed(static_cast<int64_t>(cycles));
    state.counters["ns/cycle"] = benchmark::Counter(
        cycles, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SmtCycle)->DenseRange(0, 5)->UseRealTime();

BENCHMARK_MAIN();
