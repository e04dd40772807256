#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "memory/cache.h"
#include "fuzz/fuzz.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab {
namespace {

CacheConfig
smallCache()
{
    return {"test", 4 * 1024, 4, 4}; // 16 sets x 4 ways
}

TEST(Cache, GeometryComputedFromConfig)
{
    Cache c(smallCache());
    EXPECT_EQ(c.numSets(), 16u);
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.lookupDemand(0x1000, 0).hit);
    c.fill(0x1000, 10, false);
    EXPECT_TRUE(c.lookupDemand(0x1000, 20).hit);
    EXPECT_EQ(c.demandHits, 1u);
    EXPECT_EQ(c.demandMisses, 1u);
}

TEST(Cache, InflightLineReportsReadyCycle)
{
    Cache c(smallCache());
    c.fill(0x2000, 500, false);
    const auto r = c.lookupDemand(0x2000, 100);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.inflight);
    EXPECT_EQ(r.readyCycle, 500u);
    const auto r2 = c.lookupDemand(0x2000, 600);
    EXPECT_FALSE(r2.inflight);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache());
    // Fill one set (4 ways): lines mapping to the same set are
    // setBytes apart (16 sets * 64B = 1KB).
    for (uint64_t i = 0; i < 4; ++i)
        c.fill(i * 1024, 0, false);
    // Touch lines 0..2 so line 3 becomes LRU.
    c.lookupDemand(0 * 1024, 1);
    c.lookupDemand(1 * 1024, 2);
    c.lookupDemand(2 * 1024, 3);
    const auto evict = c.fill(4 * 1024, 0, false);
    EXPECT_TRUE(evict.evictedValid);
    EXPECT_EQ(evict.evictedLine, 3 * 1024u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(3 * 1024));
}

TEST(Cache, FillIntoPresentLineIsNoOp)
{
    Cache c(smallCache());
    c.fill(0x40, 0, false);
    const auto evict = c.fill(0x40, 0, true);
    EXPECT_FALSE(evict.evictedValid);
    EXPECT_TRUE(c.contains(0x40));
}

TEST(Cache, DemandFillClearsPrefetchTag)
{
    Cache c(smallCache());
    c.fill(0x40, 0, true);
    c.fill(0x40, 0, false); // demand fill promotes
    // Evicting it now must not count as an unused prefetch.
    for (uint64_t i = 1; i <= 4; ++i)
        c.fill(0x40 + i * 1024, 0, false);
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, PrefetchFirstUseReportedOnce)
{
    Cache c(smallCache());
    c.fill(0x80, 0, true);
    EXPECT_TRUE(c.lookupDemand(0x80, 10).prefetchFirstUse);
    EXPECT_FALSE(c.lookupDemand(0x80, 20).prefetchFirstUse);
}

TEST(Cache, UnusedPrefetchEvictionFlagged)
{
    Cache c(smallCache());
    c.fill(0x0, 0, true);
    Cache::EvictInfo evict;
    for (uint64_t i = 1; i <= 4; ++i) {
        evict = c.fill(i * 1024, 0, false);
        if (evict.evictedValid)
            break;
    }
    EXPECT_TRUE(evict.evictedValid);
    EXPECT_TRUE(evict.evictedUnusedPrefetch);
}

TEST(Cache, UsedPrefetchEvictionNotFlagged)
{
    Cache c(smallCache());
    c.fill(0x0, 0, true);
    c.lookupDemand(0x0, 5);
    // Make line 0 LRU again by touching the others.
    for (uint64_t i = 1; i < 4; ++i) {
        c.fill(i * 1024, 0, false);
        c.lookupDemand(i * 1024, 10 + i);
    }
    const auto evict = c.fill(4 * 1024, 0, false);
    EXPECT_TRUE(evict.evictedValid);
    EXPECT_FALSE(evict.evictedUnusedPrefetch);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(smallCache());
    c.fill(0x100, 0, false);
    EXPECT_TRUE(c.contains(0x100));
    c.invalidate(0x100);
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, ClearResetsContentsAndStats)
{
    Cache c(smallCache());
    c.fill(0x100, 0, false);
    c.lookupDemand(0x100, 1);
    c.lookupDemand(0x200, 1);
    c.clear();
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_EQ(c.demandHits, 0u);
    EXPECT_EQ(c.demandMisses, 0u);
}

TEST(Cache, ContainsDoesNotUpdateStats)
{
    Cache c(smallCache());
    c.contains(0x5000);
    EXPECT_EQ(c.demandMisses, 0u);
}

/** Geometries that index past the planes or fold addresses onto a
 *  subset of the sets are rejected, naming the field and its value. */
TEST(Cache, RejectsDegenerateGeometry)
{
    struct Bad
    {
        CacheConfig config;
        const char *field;
    };
    const Bad cases[] = {
        {{"tiny", 256, 8, 4}, "sizeBytes 256"},     // smaller than a set
        {{"noways", 4096, 0, 4}, "ways 0"},         // no way at all
        {{"negative", 4096, -1, 4}, "ways -1"},
        {{"wide", 12800, 200, 4}, "ways 200"},      // above kMaxWays
        {{"threesets", 1536, 8, 4}, "sizeBytes 1536"}, // 3 sets
    };
    for (const Bad &b : cases) {
        try {
            Cache c(b.config);
            ADD_FAILURE() << b.config.name << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(b.field),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(b.config.name),
                      std::string::npos)
                << e.what();
        }
    }
    // The boundaries themselves are valid.
    EXPECT_EQ(Cache({"one", kLineBytes, 1, 4}).numSets(), 1u);
    EXPECT_EQ(Cache({"max", kLineBytes * Cache::kMaxWays,
                     Cache::kMaxWays, 4})
                  .numSets(),
              1u);
}

/** Property sweep: invariants hold across geometries. */
class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometryTest, NeverExceedsCapacityAndFindsRecentLines)
{
    const auto [size_kb, ways] = GetParam();
    CacheConfig cfg{"p", static_cast<uint64_t>(size_kb) * 1024, ways,
                    4};
    Cache c(cfg);
    Rng rng(size_kb * 131 + ways);
    const uint64_t lines = cfg.sizeBytes / kLineBytes;

    uint64_t evictions = 0;
    std::set<uint64_t> inserted;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t line = rng.below(4 * lines) * kLineBytes;
        const bool fresh = inserted.insert(line).second;
        const auto evict = c.fill(line, 0, rng.bernoulli(0.3));
        evictions += evict.evictedValid;
        // A just-filled line must be present, and an eviction must
        // never report the line that was just inserted.
        ASSERT_TRUE(c.contains(line));
        if (evict.evictedValid)
            ASSERT_NE(evict.evictedLine, line);
        (void)fresh;
    }
    // Capacity conservation: at least (distinct inserts - capacity)
    // lines must have been evicted.
    if (inserted.size() > lines)
        EXPECT_GE(evictions, inserted.size() - lines);
}

TEST_P(CacheGeometryTest, WorkingSetSmallerThanWaysAlwaysHits)
{
    const auto [size_kb, ways] = GetParam();
    CacheConfig cfg{"p", static_cast<uint64_t>(size_kb) * 1024, ways,
                    4};
    Cache c(cfg);
    // 'ways' lines mapping to the same set can all live there.
    const uint64_t set_stride = c.numSets() * kLineBytes;
    for (int w = 0; w < ways; ++w)
        c.fill(static_cast<uint64_t>(w) * set_stride, 0, false);
    for (int round = 0; round < 3; ++round) {
        for (int w = 0; w < ways; ++w) {
            ASSERT_TRUE(
                c.lookupDemand(static_cast<uint64_t>(w) * set_stride,
                               100)
                    .hit);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Combine(::testing::Values(4, 32, 256),
                       ::testing::Values(1, 4, 8, 16)));

// ---------------------------------------------------------------------------
// Degenerate geometries (ISSUE 4 satellite): the PR 3 single-pass
// fill probe has its boundary behavior at 1-way (no LRU scan to
// speak of), 1-set (every line conflicts) and single-line caches.
// Each geometry is driven op-for-op against the textbook reference
// model as a fixed regression test, not just fuzz coverage.

/** Run a deterministic conflict-heavy op mix through mab::Cache and
 *  fuzz::ReferenceCache and require op-for-op agreement. */
void
diffDegenerateGeometry(int ways, uint64_t sets, uint64_t seed)
{
    fuzz::CacheCase c;
    c.config.name = "degenerate";
    c.config.ways = ways;
    c.config.sizeBytes = kLineBytes * ways * sets;
    c.config.hitLatency = 2;

    Rng rng(seed);
    const uint64_t capacity = sets * static_cast<uint64_t>(ways);
    const uint64_t pool = capacity * 2 + 2;
    uint64_t cycle = 0;
    for (int i = 0; i < 800; ++i) {
        cycle += rng.below(6);
        fuzz::CacheOp op;
        op.line = rng.below(pool) * kLineBytes;
        const uint64_t kind = rng.below(100);
        if (kind < 40) {
            op.kind = fuzz::CacheOp::Kind::Lookup;
            op.cycle = cycle;
        } else if (kind < 65) {
            op.kind = fuzz::CacheOp::Kind::DemandFill;
            op.cycle = cycle + rng.below(200);
        } else if (kind < 80) {
            op.kind = fuzz::CacheOp::Kind::PrefetchFill;
            op.cycle = cycle + rng.below(200);
        } else if (kind < 90) {
            op.kind = fuzz::CacheOp::Kind::Invalidate;
        } else {
            op.kind = fuzz::CacheOp::Kind::Contains;
            op.cycle = cycle;
        }
        c.ops.push_back(op);
    }
    EXPECT_EQ(fuzz::diffCacheCase(c), "")
        << ways << " ways x " << sets << " sets, seed " << seed;
}

TEST(CacheDegenerateGeometry, OneWayDirectMapped)
{
    // 1-way: the victim is always the only way; recency never decides.
    diffDegenerateGeometry(1, 16, 101);
}

TEST(CacheDegenerateGeometry, OneSetFullyAssociative)
{
    // 1-set: every line conflicts; pure LRU across all ways.
    diffDegenerateGeometry(8, 1, 202);
}

TEST(CacheDegenerateGeometry, SingleLineCache)
{
    // 1 set x 1 way: every distinct line evicts the previous one.
    diffDegenerateGeometry(1, 1, 303);
}

TEST(CacheDegenerateGeometry, WaysExceedResidentLines)
{
    // More ways than the op stream has distinct lines: the fill path
    // must keep reusing invalid ways and never evict a valid line
    // prematurely.
    fuzz::CacheCase c;
    c.config.name = "wide";
    c.config.ways = 16;
    c.config.sizeBytes = kLineBytes * 16; // one 16-way set
    c.config.hitLatency = 2;
    for (int i = 0; i < 6; ++i)
        c.ops.push_back({fuzz::CacheOp::Kind::DemandFill,
                         static_cast<uint64_t>(i) * kLineBytes,
                         10});
    for (int i = 0; i < 6; ++i)
        c.ops.push_back({fuzz::CacheOp::Kind::Lookup,
                         static_cast<uint64_t>(i) * kLineBytes,
                         20});
    EXPECT_EQ(fuzz::diffCacheCase(c), "");

    Cache wide(c.config);
    for (int i = 0; i < 6; ++i) {
        const auto evict = wide.fill(
            static_cast<uint64_t>(i) * kLineBytes, 10, false);
        EXPECT_FALSE(evict.evictedValid)
            << "eviction with " << (16 - i) << " invalid ways free";
    }
    EXPECT_EQ(wide.occupancy(), 6u);
}

TEST(CacheDegenerateGeometry, WideWaysPastTheRankByteMidpoint)
{
    // ways > 64: a 128-deep LRU recency order per set, driving the
    // stamp clock through repeated renormalizations — far beyond any
    // shipped configuration.
    diffDegenerateGeometry(128, 2, 404);
}

TEST(CacheDegenerateGeometry, MaxWaysFullyAssociative)
{
    // The kMaxWays boundary: one fully-associative set whose clock
    // renormalizes with the set completely full.
    diffDegenerateGeometry(Cache::kMaxWays, 1, 505);
}

TEST(CacheDegenerateGeometry, RandomizedAosVsSoaEquivalenceSweep)
{
    // Randomized AoS-vs-SoA equivalence: drive the SoA Cache against
    // the array-of-struct textbook reference over a grid of
    // geometries x seeds (fresh op streams per seed), on top of the
    // fixed single-geometry regressions above. Catches layout bugs
    // that only surface at particular way/set/stream combinations.
    const int ways_grid[] = {1, 2, 3, 8, 16, 65, 128};
    const uint64_t sets_grid[] = {1, 2, 8, 32};
    uint64_t seed = 1;
    for (int ways : ways_grid) {
        for (uint64_t sets : sets_grid)
            diffDegenerateGeometry(ways, sets, seed++ * 7919);
    }
}

TEST(CacheDegenerateGeometry, SingleLineEvictionChain)
{
    // Fixed regression for fill()'s hit-vs-victim ordering:
    // on a single-line cache, filling A, B, A must evict A then B,
    // and a re-fill of the resident line must not evict anything.
    CacheConfig cfg{"one", kLineBytes, 1, 2};
    Cache c(cfg);
    EXPECT_FALSE(c.fill(0x0, 5, false).evictedValid);
    const auto e1 = c.fill(0x40, 6, false);
    EXPECT_TRUE(e1.evictedValid);
    EXPECT_EQ(e1.evictedLine, 0x0u);
    const auto e2 = c.fill(0x40, 7, false);
    EXPECT_FALSE(e2.evictedValid) << "re-fill of the resident line";
    const auto e3 = c.fill(0x0, 8, true);
    EXPECT_TRUE(e3.evictedValid);
    EXPECT_EQ(e3.evictedLine, 0x40u);
    EXPECT_EQ(c.occupancy(), 1u);
}

// ---------------------------------------------------------------------------
// The memory walk's own pattern. CacheHierarchy never calls fill(): it
// looks a line up (or checks contains()) and calls insert() on a miss.
// These drive that pattern, lookups repeating the previous line as the
// generator's accessesPerLine streaks do, against the textbook
// reference, comparing every result, counter and occupancy.

/** One Cache and its reference, compared after every operation. */
class WalkDiff
{
  public:
    explicit WalkDiff(const CacheConfig &config)
        : cache_(config), ref_(config)
    {
    }

    /** lookupDemand(), then insert() on a miss (the walk's access);
     *  returns the lookup's result. */
    Cache::LookupResult
    access(uint64_t line, uint64_t cycle, uint64_t fillCycle,
           bool prefetch = false)
    {
        const Cache::LookupResult a = cache_.lookupDemand(line, cycle);
        const Cache::LookupResult b = ref_.lookupDemand(line, cycle);
        EXPECT_EQ(a.hit, b.hit) << where(line);
        EXPECT_EQ(a.inflight, b.inflight) << where(line);
        EXPECT_EQ(a.readyCycle, b.readyCycle) << where(line);
        EXPECT_EQ(a.prefetchFirstUse, b.prefetchFirstUse) << where(line);
        if (!a.hit)
            insertBoth(line, fillCycle, prefetch);
        check(line);
        return a;
    }

    /** contains(), then insert() on a miss (the prefetch path). */
    void
    prefetch(uint64_t line, uint64_t fillCycle)
    {
        const bool present = cache_.contains(line);
        EXPECT_EQ(present, ref_.contains(line)) << where(line);
        if (!present)
            insertBoth(line, fillCycle, true);
        check(line);
    }

    void
    invalidate(uint64_t line)
    {
        cache_.invalidate(line);
        ref_.invalidate(line);
        check(line);
    }

    void
    clear()
    {
        cache_.clear();
        ref_.clear();
        check(0);
    }

    /** Lookups of @p line must miss in both models. */
    void
    expectMiss(uint64_t line, uint64_t cycle)
    {
        EXPECT_FALSE(cache_.lookupDemand(line, cycle).hit) << where(line);
        EXPECT_FALSE(ref_.lookupDemand(line, cycle).hit) << where(line);
        check(line);
    }

    uint64_t evictions() const { return evictions_; }

  private:
    void
    insertBoth(uint64_t line, uint64_t fillCycle, bool prefetch)
    {
        const Cache::EvictInfo a = cache_.insert(line, fillCycle, prefetch);
        const Cache::EvictInfo b = ref_.fill(line, fillCycle, prefetch);
        EXPECT_EQ(a.evictedValid, b.evictedValid) << where(line);
        EXPECT_EQ(a.evictedLine, b.evictedLine) << where(line);
        EXPECT_EQ(a.evictedUnusedPrefetch, b.evictedUnusedPrefetch)
            << where(line);
        evictions_ += a.evictedValid;
    }

    void
    check(uint64_t line)
    {
        ++ops_;
        EXPECT_EQ(cache_.demandHits, ref_.demandHits()) << where(line);
        EXPECT_EQ(cache_.demandMisses, ref_.demandMisses()) << where(line);
        EXPECT_EQ(cache_.occupancy(), ref_.occupancy()) << where(line);
    }

    std::string
    where(uint64_t line) const
    {
        return cache_.config().name + " op " + std::to_string(ops_) +
            " line " + std::to_string(line);
    }

    Cache cache_;
    fuzz::ReferenceCache ref_;
    uint64_t ops_ = 0;
    uint64_t evictions_ = 0;
};

TEST(CacheWalkKernel, LookupThenInsertMatchesReferenceOnGrid)
{
    const int ways_grid[] = {1, 2, 3, 8, 16, 65, 128};
    const uint64_t sets_grid[] = {1, 2, 8, 32};
    uint64_t seed = 1;
    for (int ways : ways_grid) {
        for (uint64_t sets : sets_grid) {
            CacheConfig cfg{"walk" + std::to_string(ways) + "x" +
                                std::to_string(sets),
                            kLineBytes * ways * sets, ways, 4};
            WalkDiff d(cfg);
            Rng rng(seed++ * 104729);
            const uint64_t capacity = sets * ways;
            const uint64_t pool = capacity * 2 + 3;
            // Enough inserts to fill every set between the two clears.
            const uint64_t ops = 2000 + 12 * capacity;
            uint64_t line = 0;
            uint64_t cycle = 0;
            for (uint64_t i = 0; i < ops; ++i) {
                cycle += rng.below(4);
                const uint64_t kind = rng.below(100);
                // Most accesses repeat the previous line.
                if (kind >= 45 || i == 0)
                    line = rng.below(pool) * kLineBytes;
                if (kind < 70)
                    d.access(line, cycle, cycle + rng.below(300),
                             rng.bernoulli(0.2));
                else if (kind < 85)
                    d.prefetch(rng.below(pool) * kLineBytes,
                               cycle + rng.below(300));
                else
                    d.invalidate(rng.below(4) == 0
                                     ? line
                                     : rng.below(pool) * kLineBytes);
                if (i == ops / 2)
                    d.clear();
                if (::testing::Test::HasFailure())
                    return;
            }
            EXPECT_GT(d.evictions(), 0u) << cfg.name;
        }
    }
}

TEST(CacheWalkKernel, RememberedHitForgottenOnEvictingInsert)
{
    // One line per set: the remembered line's slot is the victim, so a
    // stale memory of it would return the new line's ready cycle.
    WalkDiff d({"direct", kLineBytes * 4, 1, 4});
    const uint64_t a = 0;
    const uint64_t b = 4 * kLineBytes; // same set as a
    d.access(a, 0, 10);
    d.access(a, 20, 0); // hit, remembered
    d.access(a, 21, 0); // remembered hit
    d.access(b, 22, 500); // misses, evicts a from the slot
    d.expectMiss(a, 600);
    EXPECT_EQ(d.access(b, 601, 0).readyCycle, 500u);

    // An evicting insert into a wider set: a is LRU once b and c
    // arrive after its last hit.
    WalkDiff w({"twoway", kLineBytes * 2, 2, 4});
    w.access(a, 0, 5);
    w.access(a, 6, 0);
    w.access(a, 7, 0);
    w.access(kLineBytes, 8, 50);
    w.access(2 * kLineBytes, 9, 60); // evicts a
    w.expectMiss(a, 100);
}

TEST(CacheWalkKernel, RememberedHitForgottenOnInvalidateAndClear)
{
    WalkDiff d({"four", kLineBytes * 4, 4, 4});
    for (uint64_t i = 0; i < 3; ++i)
        d.access(i * kLineBytes, i, 10 + i);
    // Hit the last line, then invalidate it: the lookup must miss.
    d.access(2 * kLineBytes, 20, 0);
    d.invalidate(2 * kLineBytes);
    d.expectMiss(2 * kLineBytes, 21);

    // Hit the last valid line, then invalidate the first: the last
    // line moves into the hole and must still hit at its ready cycle.
    d.access(3 * kLineBytes, 22, 300);
    d.access(3 * kLineBytes, 23, 0);
    d.invalidate(0);
    d.access(3 * kLineBytes, 24, 0);
    d.access(kLineBytes, 25, 0);
    EXPECT_EQ(d.access(3 * kLineBytes, 26, 0).readyCycle, 300u);

    d.access(kLineBytes, 30, 0);
    d.clear();
    d.expectMiss(kLineBytes, 31);
}

TEST(CacheWalkKernel, RememberedHitsAcrossStampRenormalization)
{
    // Hits that alternate between lines of one full set hand out a
    // stamp each; 1000 rounds run the set's 8-bit clock through
    // several renormalization epochs, with remembered repeat hits in
    // between. Evictions afterwards must still follow true LRU.
    const int ways = 8;
    WalkDiff d({"epochs", kLineBytes * ways, ways, 4});
    for (int w = 0; w < ways; ++w)
        d.access(static_cast<uint64_t>(w) * kLineBytes, w, 5);
    Rng rng(99);
    uint64_t cycle = 100;
    for (int round = 0; round < 1000; ++round) {
        const uint64_t line = rng.below(ways - 1) * kLineBytes;
        d.access(line, ++cycle, 0);
        d.access(line, ++cycle, 0); // remembered
        if (::testing::Test::HasFailure())
            return;
    }
    for (int k = 0; k < 3 * ways; ++k) {
        ++cycle;
        d.access((ways + static_cast<uint64_t>(k)) * kLineBytes, cycle,
                 cycle + 7);
    }
    EXPECT_EQ(d.evictions(), static_cast<uint64_t>(3 * ways));
}

} // namespace
} // namespace mab
