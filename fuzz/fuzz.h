#ifndef MAB_FUZZ_FUZZ_H
#define MAB_FUZZ_FUZZ_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/factory.h"
#include "memory/cache.h"
#include "memory/dram.h"
#include "memory/hierarchy.h"
#include "trace/generator.h"

namespace mab::fuzz {

/**
 * Differential fuzzing harness for the optimized simulator paths.
 *
 * The golden snapshots pin a handful of fixed configurations, but the
 * paper's claims rest on relative orderings across a large config x
 * workload space. This library generates random-but-valid cases from
 * a single replayable uint64 seed, runs them through the optimized
 * implementations and through slow-but-obviously-correct reference
 * models, and checks structural invariants on every iteration. Each
 * domain (cache, bandit, sim, replay, drift, smt, prefetch, generate)
 * is one family of checks in one source file of fuzz/; registry.cc
 * lists them.
 *
 * On mismatch the failing case can be shrunk (chunk removal over the
 * op stream, or halving the run, then config-dimension reduction) and
 * a one-line repro command is reported:
 *
 *     bench_fuzz --replay <seed> --shrink
 *
 * Every generator consumes only the seed it is handed, so a case seed
 * replays the identical case forever (tests/test_fuzz.cc pins the
 * case streams).
 */

/** Derive an independent, well-mixed sub-seed for @p lane of @p seed
 *  (splitmix64 over the pair; lanes never collide across domains). */
uint64_t subSeed(uint64_t seed, uint64_t lane);

/** Case seed of iteration @p index under @p seedBase — the value
 *  `bench_fuzz --replay` takes. */
uint64_t iterationSeed(uint64_t seedBase, uint64_t index);

// ---------------------------------------------------------------------
// Domain registry (fuzz/registry.cc)
// ---------------------------------------------------------------------

/**
 * One fuzz domain: a family of seeded checks. The registry lists every
 * domain once; runFuzzIteration, the report's case counts, and
 * bench_fuzz's --domain, --self-test and summary line all read it.
 */
struct Domain
{
    /** `--domain` value, summary column and failure label. */
    const char *name;
    /** The domain's case for case seed cs is drawn from
     *  subSeed(cs, lane). */
    uint64_t lane;
    /** Generate the case for @p seed and check it: "" when it passes,
     *  else the first divergence, followed by the shrunk case when
     *  @p shrink is set. */
    std::string (*check)(uint64_t seed, bool shrink);
    /** Description of the case @p seed generates. */
    std::string (*describe)(uint64_t seed);
    /** Planted-fault proof of check (nullptr: none): appends one line
     *  per fault to @p log and returns whether every fault was caught
     *  and shrunk, drawing case i from subSeed(iterationSeed(seedBase,
     *  i), lane). */
    bool (*selfTest)(uint64_t seedBase, uint64_t lane, std::string &log);
};

/** Every registered domain, in summary order. */
std::span<const Domain> domains();

/** The domain named @p name, else nullptr. */
const Domain *findDomain(std::string_view name);

/** The registered names, comma-separated in summary order. */
std::string domainNames();

// ---------------------------------------------------------------------
// Cache differential (fuzz/cache.cc)
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

/**
 * Textbook reference cache: per-set line vectors, explicit separate
 * passes for hit probe, invalid-way scan and LRU victim scan — the
 * semantics mab::Cache's one-scan probes over prefix-ordered sets
 * must reproduce exactly (hit/miss, recency, MSHR readyCycle merge, prefetch
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
// Bandit differential (fuzz/bandit.cc)
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

/** diffBanditPolicy over a fresh policy of the case's algorithm. */
std::string diffBanditCase(const BanditCase &c);

/** Shrink a failing bandit case (halve steps, drop config knobs). */
BanditCase shrinkBanditCase(const BanditCase &c);

// ---------------------------------------------------------------------
// End-to-end property checks (fuzz/sim.cc)
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
// Top-level harness (fuzz/registry.cc)
// ---------------------------------------------------------------------

struct FuzzOptions
{
    uint64_t seedBase = 1;
    uint64_t iters = 200;
    /** > 0: run until the time cap instead of the iteration cap. */
    double maxSeconds = 0.0;
    /** Shrink failing cases before reporting. */
    bool shrink = false;
    /** Parallel fuzz lanes (iterations are independent). */
    int jobs = 1;
    /** Restrict to the registered domain of this name; empty runs
     *  them all. */
    std::string domain;
};

struct FuzzFailure
{
    uint64_t caseSeed = 0;
    std::string domain;  ///< Domain::name
    std::string message; ///< divergence + (when shrunk) minimal case
    std::string repro;   ///< one-line replay command
};

struct FuzzReport
{
    uint64_t iterations = 0;
    /** Cases run per domain, in domains() order. */
    std::vector<uint64_t> cases = std::vector<uint64_t>(domains().size());
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
    void merge(const FuzzReport &other);
};

/**
 * Run every domain's check for one case seed, each on its own lane.
 * Failures are appended to @p report, shrunk first when @p shrink is
 * set. A non-empty @p domain restricts the iteration to that single
 * domain (the CI drift leg, `bench_fuzz --domain`).
 */
void runFuzzIteration(uint64_t caseSeed, FuzzReport &report,
                      bool shrink, const std::string &domain);

/** The full fuzz loop (the core of the bench_fuzz driver). It stops
 *  after the first batch of iterations with a failure. */
FuzzReport runFuzz(const FuzzOptions &opt);

} // namespace mab::fuzz

#endif // MAB_FUZZ_FUZZ_H
