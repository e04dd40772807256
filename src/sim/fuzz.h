#ifndef MAB_SIM_FUZZ_H
#define MAB_SIM_FUZZ_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/drift_env.h"
#include "core/factory.h"
#include "memory/cache.h"
#include "memory/dram.h"
#include "memory/hierarchy.h"
#include "smt/fetch_policy.h"
#include "smt/pipeline.h"
#include "smt/thread_source.h"
#include "trace/drift.h"
#include "trace/generator.h"

namespace mab::fuzz {

/**
 * Differential fuzzing harness for the optimized simulator paths.
 *
 * PR 3 rewrote the hottest loops (single-pass Cache::fill probe,
 * devirtualized CoreModel dispatch, thread-pooled sweeps); the golden
 * snapshots pin a handful of fixed configurations, but the paper's
 * claims rest on relative orderings across a large config x workload
 * space. This subsystem generates random-but-valid cases from a single
 * replayable uint64 seed, runs them through the optimized
 * implementations and through slow-but-obviously-correct reference
 * models, and checks structural invariants on every iteration:
 *
 *  - ReferenceCache: a textbook multi-pass LRU/MSHR cache checked
 *    op-for-op against the fused single-pass mab::Cache probe.
 *  - Bandit shadow replay: long-form (long double, recompute-from-
 *    history) DUCB / SW-UCB / UCB / eGreedy update math checked
 *    against the incremental implementations in src/core, including
 *    a closed-form discounted-count cross-check for DUCB.
 *  - Sweep oracle: serial vs parallel SweepRunner equivalence.
 *  - SMT fast-forward oracle: an SmtPipeline stepped one cycle at a
 *    time vs a twin that skips quiescent cycles, on random thread
 *    profiles, geometries, PG policies and share schedules.
 *  - End-to-end property checks on random CoreModel runs (counter
 *    conservation, MSHR/queue bounds, IPC in (0, commitWidth]).
 *
 * On mismatch the failing case is shrunk automatically (chunk removal
 * over the op stream / trace, then config-dimension reduction) and a
 * one-line repro command is reported:
 *
 *     bench_fuzz --replay <seed> --shrink
 *
 * Every generator consumes only the seed it is handed, so a case seed
 * replays the identical case forever.
 */

/** Derive an independent, well-mixed sub-seed for @p lane of @p seed
 *  (splitmix64 over the pair; lanes never collide across domains). */
uint64_t subSeed(uint64_t seed, uint64_t lane);

// ---------------------------------------------------------------------
// Cache differential
// ---------------------------------------------------------------------

/** One operation of a cache fuzz case (the Cache public API). */
struct CacheOp
{
    enum class Kind
    {
        Lookup,       ///< lookupDemand(line, cycle)
        DemandFill,   ///< fill(line, cycle, prefetch=false)
        PrefetchFill, ///< fill(line, cycle, prefetch=true)
        Invalidate,   ///< invalidate(line)
        Contains,     ///< contains(line)
        Clear,        ///< clear()
    };

    Kind kind = Kind::Lookup;
    uint64_t line = 0;  ///< line-aligned address
    uint64_t cycle = 0; ///< lookup cycle / fill ready cycle
};

const char *toString(CacheOp::Kind kind);

/** A complete, self-contained cache differential case. */
struct CacheCase
{
    CacheConfig config;
    std::vector<CacheOp> ops;
};

/** Human-readable dump of @p c (shrunk-repro reports). */
std::string formatCacheCase(const CacheCase &c);

/**
 * Uniform cache interface so the differential loop, the optimized
 * implementation, the reference model and the fault-injection mutants
 * (self-tests) all plug into the same checker.
 */
class CacheModel
{
  public:
    virtual ~CacheModel() = default;

    virtual Cache::LookupResult lookupDemand(uint64_t line,
                                             uint64_t cycle) = 0;
    virtual bool contains(uint64_t line) const = 0;
    virtual Cache::EvictInfo fill(uint64_t line, uint64_t readyCycle,
                                  bool prefetch) = 0;
    virtual void invalidate(uint64_t line) = 0;
    virtual void clear() = 0;

    virtual uint64_t demandHits() const = 0;
    virtual uint64_t demandMisses() const = 0;
    virtual uint64_t occupancy() const = 0;
};

/** The implementation under test: wraps mab::Cache unchanged. */
class OptimizedCacheModel final : public CacheModel
{
  public:
    explicit OptimizedCacheModel(const CacheConfig &config)
        : cache_(config)
    {
    }

    Cache::LookupResult
    lookupDemand(uint64_t line, uint64_t cycle) override
    {
        return cache_.lookupDemand(line, cycle);
    }

    bool contains(uint64_t line) const override
    {
        return cache_.contains(line);
    }

    Cache::EvictInfo
    fill(uint64_t line, uint64_t readyCycle, bool prefetch) override
    {
        return cache_.fill(line, readyCycle, prefetch);
    }

    void invalidate(uint64_t line) override
    {
        cache_.invalidate(line);
    }

    void clear() override { cache_.clear(); }

    uint64_t demandHits() const override { return cache_.demandHits; }
    uint64_t demandMisses() const override
    {
        return cache_.demandMisses;
    }
    uint64_t occupancy() const override { return cache_.occupancy(); }

  private:
    Cache cache_;
};

/**
 * Textbook reference cache: per-set line vectors, explicit separate
 * passes for hit probe, invalid-way scan and LRU victim scan — the
 * semantics mab::Cache's fused single-pass probe must reproduce
 * exactly (hit/miss, recency, MSHR readyCycle merge, prefetch
 * tagging/promotion, eviction attribution). Deliberately slow and
 * obvious; never optimize this class.
 */
class ReferenceCache final : public CacheModel
{
  public:
    explicit ReferenceCache(const CacheConfig &config);

    Cache::LookupResult lookupDemand(uint64_t line,
                                     uint64_t cycle) override;
    bool contains(uint64_t line) const override;
    Cache::EvictInfo fill(uint64_t line, uint64_t readyCycle,
                          bool prefetch) override;
    void invalidate(uint64_t line) override;
    void clear() override;

    uint64_t demandHits() const override { return hits_; }
    uint64_t demandMisses() const override { return misses_; }
    uint64_t occupancy() const override;

    uint64_t numSets() const { return static_cast<uint64_t>(sets_.size()); }

    /**
     * Structural invariants of the reference state: occupancy within
     * capacity, valid tags unique within a set, every tag mapping to
     * the set that holds it. Returns "" when all hold.
     */
    std::string checkInvariants() const;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t readyCycle = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool prefetched = false;
        bool used = false;
    };

    uint64_t setIndex(uint64_t line) const;
    Line *probe(uint64_t line);
    const Line *probe(uint64_t line) const;

    CacheConfig config_;
    std::vector<std::vector<Line>> sets_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

using CacheModelFactory =
    std::function<std::unique_ptr<CacheModel>(const CacheConfig &)>;

/** Factory producing the real (optimized) cache under test. */
CacheModelFactory optimizedCacheFactory();

/**
 * Deliberate semantic faults for harness self-tests: each mutation
 * wraps the optimized cache and corrupts one documented behavior. The
 * differential loop must catch every one of them and shrink the
 * witness to a short repro — the standing proof that the fuzzer would
 * notice a real regression in the single-pass fill probe.
 */
enum class CacheMutation
{
    /** Demand lookups stop refreshing recency (breaks LRU order). */
    DropRecencyUpdate,
    /** Demand fills no longer promote prefetched lines. */
    KeepPrefetchTagOnDemandFill,
    /** Victim selection picks the most recently used line. */
    EvictMostRecent,
    /** Victim selection ignores invalid ways (always evicts way 0). */
    IgnoreInvalidWays,
    /** In-flight hits report the lookup cycle as readyCycle. */
    ForgetInflightCycle,
    /** A hit's recency promotion also refreshes way 0 — the SoA
     *  stamp write landing in a neighboring lane (LRU-order
     *  corruption). */
    RankSkewOnHit,
    /** Prefetch fills also set the used flag — adjacent flag bits of
     *  the packed SoA tag word aliasing (kills the prefetch taxonomy:
     *  prefetchFirstUse / evictedUnusedPrefetch never fire). */
    PackedFlagAliasing,
    /** Set index masks with sets-2 instead of sets-1 — the classic
     *  off-by-one against the SoA plane stride (no-op at 1 set;
     *  collapses/aliases sets everywhere else). */
    SetIndexMaskOffByOne,
};

const char *toString(CacheMutation m);

/** All mutations, for exhaustive self-tests. */
std::vector<CacheMutation> allCacheMutations();

/** Factory producing a mutant of the optimized cache. */
CacheModelFactory mutantCacheFactory(CacheMutation m);

/** Generate a random-but-valid cache case from @p seed: degenerate
 *  geometries included (1 way, 1 set, single-line caches). */
CacheCase genCacheCase(uint64_t seed);

/**
 * Run @p c through @p impl and the reference model, comparing every
 * result field and the stats/occupancy after each op, plus the
 * reference invariants. Returns "" on full agreement, else a
 * description of the first divergence.
 */
std::string diffCacheCase(const CacheCase &c,
                          const CacheModelFactory &impl);

/** Same, against the optimized mab::Cache. */
std::string diffCacheCase(const CacheCase &c);

/**
 * Shrink a failing case: greedy chunk removal over the op stream
 * (ddmin-style halving passes), then config-dimension reduction
 * (fewer ways / sets). The result still fails diffCacheCase under
 * @p impl. Returns @p c unchanged if it does not fail.
 */
CacheCase shrinkCacheCase(const CacheCase &c,
                          const CacheModelFactory &impl);

// ---------------------------------------------------------------------
// Bandit differential
// ---------------------------------------------------------------------

/** A bandit shadow-replay case. */
struct BanditCase
{
    MabAlgorithm algo = MabAlgorithm::Ducb;
    MabConfig mab;
    /** SW-UCB window (ignored by the other algorithms). */
    int window = 0;
    /** Number of select/observe interactions to replay. */
    int steps = 200;
    /** Seed of the synthetic reward stream. */
    uint64_t rewardSeed = 1;
};

std::string formatBanditCase(const BanditCase &c);

/** Generate a bandit case (DUCB / SW-UCB / UCB / eGreedy pool). */
BanditCase genBanditCase(uint64_t seed);

/** Instantiate the policy a case describes. */
std::unique_ptr<MabPolicy> makeCasePolicy(const BanditCase &c);

/**
 * Drive @p policy through @p c while a long-form long-double shadow
 * replays the observed (arm, reward) sequence from scratch: round-
 * robin seeding, reward normalization, discounted / windowed counts,
 * running-average rewards and UCB selection scores are all recomputed
 * independently and compared after every step. DUCB additionally gets
 * a closed-form discounted-count cross-check (sum of gamma powers
 * over the selection history) at checkpoints, and every policy is
 * held to the discounted-count identity |n_total - sum n_i| ~ 0.
 * Returns "" on agreement, else the first divergence.
 */
std::string diffBanditPolicy(MabPolicy &policy, const BanditCase &c);

/** diffBanditPolicy over a freshly built makeCasePolicy(c). */
std::string diffBanditCase(const BanditCase &c);

/** Shrink a failing bandit case (halve steps, drop config knobs). */
BanditCase shrinkBanditCase(const BanditCase &c);

// ---------------------------------------------------------------------
// End-to-end property checks
// ---------------------------------------------------------------------

/** A random end-to-end CoreModel run. */
struct SimCase
{
    AppProfile app;
    HierarchyConfig hier;
    DramConfig dram;
    /** Prefetcher name ("None", "Stride", ..., "Bandit:<algo>"). */
    std::string prefetcher = "None";
    uint64_t instructions = 2000;
};

std::string formatSimCase(const SimCase &c);

/** Generate a random sim case: random phases/patterns, random valid
 *  cache geometries, DRAM speeds and prefetcher. */
SimCase genSimCase(uint64_t seed);

/**
 * Run the case and check the properties that must hold for any
 * config: IPC in (0, commitWidth], per-level counter conservation
 * (lookups at level N+1 == misses at level N), prefetch-taxonomy
 * bounds (timely + late + wrong <= issued), MSHR / prefetch-queue
 * occupancy within their configured capacities, and cache occupancy
 * within capacity. Returns "" when all hold.
 */
std::string checkSimProperties(const SimCase &c);

/** Shrink a failing sim case: halve the run, drop config dimensions
 *  (default hierarchy/DRAM, no prefetcher, single phase). */
SimCase shrinkSimCase(const SimCase &c);

// ---------------------------------------------------------------------
// Live-vs-replay trace oracle
// ---------------------------------------------------------------------

/**
 * Differential check of the trace arena's byte-identity invariant on
 * a fuzzed sim config: materialize the case's workload, then
 *  - diff a live SyntheticTrace against a ReplaySource field-for-
 *    field over every record (including again after reset()), and
 *  - run the case's CoreModel once over the live generator and once
 *    over the replay source, diffing every exported counter.
 * Returns "" on agreement, else the first divergence.
 */
std::string checkReplayEquivalence(uint64_t seed);

// ---------------------------------------------------------------------
// Drifting-generator oracle
// ---------------------------------------------------------------------

/**
 * A drift differential case: one seeded drifting profile (phase-
 * shifting, cyclic or adversarial — trace/drift.h) checked across the
 * whole delivery stack, plus a drifting-bandit rollout checked for
 * regret conservation against the per-phase oracle (core/regret.h).
 */
struct DriftCase
{
    /** 0 = phase-shift, 1 = cyclic, 2 = adversarial. */
    int kind = 1;
    DriftProfile drift;
    uint64_t instructions = 2000;
    /** Machine of the live-vs-replay counter leg. */
    HierarchyConfig hier;
    DramConfig dram;
    std::string prefetcher = "None";
    /** Regret-conservation rollout over the moving oracle. */
    DriftBanditConfig env;
    DriftPolicySpec policy;
};

std::string formatDriftCase(const DriftCase &c);

/** Generate a drift case: random generator kind, shift schedule,
 *  machine and bandit environment, all from @p seed. */
DriftCase genDriftCase(uint64_t seed);

/**
 * Check the case end to end:
 *  - schedule structure: contiguous segments covering the profile's
 *    phase lengths exactly, driftSegmentAt agreeing at boundaries;
 *  - replay equivalence: a live SyntheticTrace of the drifting
 *    profile vs its materialized replay, record-for-record (fresh and
 *    post-reset) and end-to-end counters (arena-on vs arena-off
 *    delivery of the same drifting stream);
 *  - regret conservation: per-phase regrets of the
 *    PhasedRegretTracker sum exactly to cumulative(), per-phase step
 *    counts to steps(), with the expected phase count.
 * Returns "" on agreement, else the first divergence.
 */
std::string diffDriftCase(const DriftCase &c);

/** Shrink a failing drift case: halve the run and the rollout, then
 *  default the machine config. */
DriftCase shrinkDriftCase(const DriftCase &c);

/** diffDriftCase over a freshly generated case. */
std::string checkDriftEquivalence(uint64_t seed);

// ---------------------------------------------------------------------
// SMT fast-forward oracle
// ---------------------------------------------------------------------

/**
 * An SMT pipeline case: two random thread profiles, a random geometry
 * and fetch PG policy, and a share schedule applied at epoch edges
 * (the way Hill Climbing moves the gating thresholds).
 */
struct SmtCase
{
    std::array<SmtAppParams, SmtConfig::kThreads> apps;
    std::array<uint64_t, SmtConfig::kThreads> seeds{1, 2};
    SmtConfig config;
    PgPolicy policy;
    uint64_t cycles = 4000;
    uint64_t epoch = 500;
    /** Shares installed at edge k: shares[k % size()]. */
    std::vector<std::array<double, SmtConfig::kThreads>> shares;
};

std::string formatSmtCase(const SmtCase &c);

/** Generate an SMT case: mixes from serial DRAM chains to branchy
 *  compute, widths and structure sizes down to 1, any of the 64
 *  fetch PG policies, DRAM latencies past the calendar horizon. */
SmtCase genSmtCase(uint64_t seed);

/**
 * Drive one SmtPipeline with advance(1) and a twin with free-running
 * advance(edge - cycles()) calls, applying the same share change to
 * both at every epoch edge, and compare at each edge: cycles,
 * per-thread committed/fetched, every per-thread occupancy and all
 * RenameStats fields. Also checks that no advance overruns its limit.
 * Returns "" on agreement, else the first divergence.
 */
std::string diffSmtCase(const SmtCase &c);

/** Shrink a failing SMT case: halve the run, then default the
 *  geometry, policy, share schedule and thread profiles. */
SmtCase shrinkSmtCase(const SmtCase &c);

// ---------------------------------------------------------------------
// Serial-vs-parallel sweep oracle
// ---------------------------------------------------------------------

/**
 * Build a random grid of pure simulation tasks and run it through
 * SweepRunner with jobs=1 and jobs=4: results must be identical and
 * in submission order. Returns "" on agreement.
 */
std::string checkSweepEquivalence(uint64_t seed);

// ---------------------------------------------------------------------
// Top-level harness
// ---------------------------------------------------------------------

struct FuzzOptions
{
    uint64_t seedBase = 1;
    uint64_t iters = 200;
    /** > 0: run until the time cap instead of the iteration cap. */
    double maxSeconds = 0.0;
    /** Shrink failing cases before reporting. */
    bool shrink = false;
    /** Stop at the first failing iteration (default on). */
    bool stopOnFailure = true;
    /** Parallel fuzz lanes (iterations are independent). */
    int jobs = 1;
    /** Restrict to one domain ("cache", "bandit", "sim", "replay",
     *  "drift", "smt", "sweep"); empty runs them all. */
    std::string domain;
};

struct FuzzFailure
{
    uint64_t caseSeed = 0;
    std::string domain;  ///< "cache", "bandit", "sim", "replay",
                         ///< "drift", "smt", "sweep"
    std::string message; ///< divergence + (when shrunk) minimal case
    std::string repro;   ///< one-line replay command
};

struct FuzzReport
{
    uint64_t iterations = 0;
    uint64_t cacheCases = 0;
    uint64_t banditCases = 0;
    uint64_t simCases = 0;
    uint64_t replayCases = 0;
    uint64_t driftCases = 0;
    uint64_t smtCases = 0;
    uint64_t sweepCases = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
    void merge(const FuzzReport &other);
};

/** Case seed of iteration @p index under @p seedBase — the value
 *  `bench_fuzz --replay` takes. */
uint64_t iterationSeed(uint64_t seedBase, uint64_t index);

/**
 * Run every domain check for one case seed (the sweep oracle runs on
 * a deterministic subset of seeds — thread spawn is comparatively
 * expensive). Failures are appended to @p report, shrunk first when
 * @p shrink is set. A non-empty @p domain restricts the iteration to
 * that single domain (the CI drift leg, `bench_fuzz --domain`).
 */
void runFuzzIteration(uint64_t caseSeed, FuzzReport &report,
                      bool shrink);
void runFuzzIteration(uint64_t caseSeed, FuzzReport &report,
                      bool shrink, const std::string &domain);

/** The full fuzz loop (the core of the bench_fuzz driver). */
FuzzReport runFuzz(const FuzzOptions &opt);

} // namespace mab::fuzz

#endif // MAB_SIM_FUZZ_H
