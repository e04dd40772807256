#include <gtest/gtest.h>

#include <set>

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
    // Fixed regression for the fused probe's hit-vs-victim ordering:
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

} // namespace
} // namespace mab
