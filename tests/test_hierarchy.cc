#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "memory/hierarchy.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab {
namespace {

HierarchyConfig
tinyConfig()
{
    HierarchyConfig cfg;
    cfg.l1 = {"L1", 1024, 2, 4};
    cfg.l2 = {"L2", 4096, 4, 14};
    cfg.llc = {"LLC", 16384, 8, 34};
    return cfg;
}

TEST(Hierarchy, FirstAccessGoesToDram)
{
    CacheHierarchy h(tinyConfig());
    const auto r = h.demandAccess(0x10000, false, 0);
    EXPECT_EQ(r.level, HitLevel::Dram);
    EXPECT_GE(r.readyCycle, DramConfig{}.baseLatencyCycles);
    EXPECT_EQ(h.llcDemandMisses(), 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(tinyConfig());
    h.demandAccess(0x10000, false, 0);
    const auto r = h.demandAccess(0x10000, false, 1000);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(r.readyCycle, 1000 + tinyConfig().l1.hitLatency);
}

TEST(Hierarchy, SameLineDifferentOffsetHitsL1)
{
    CacheHierarchy h(tinyConfig());
    h.demandAccess(0x10000, false, 0);
    const auto r = h.demandAccess(0x10008, false, 1000);
    EXPECT_EQ(r.level, HitLevel::L1);
}

TEST(Hierarchy, AccessDuringFillMergesWithInflightMiss)
{
    CacheHierarchy h(tinyConfig());
    const auto first = h.demandAccess(0x10000, false, 0);
    const auto merge = h.demandAccess(0x10000, false, 5);
    EXPECT_EQ(merge.level, HitLevel::L1);
    EXPECT_EQ(merge.readyCycle, first.readyCycle);
}

TEST(Hierarchy, L2DemandAccessCountsL1MissesOnly)
{
    CacheHierarchy h(tinyConfig());
    h.demandAccess(0x10000, false, 0);
    h.demandAccess(0x10000, false, 1000); // L1 hit
    h.demandAccess(0x20000, false, 2000); // new line
    EXPECT_EQ(h.l2DemandAccesses(), 2u);
}

TEST(Hierarchy, PrefetchFillsL2AndLlc)
{
    CacheHierarchy h(tinyConfig());
    EXPECT_TRUE(h.issuePrefetch(0x30000, 0));
    EXPECT_TRUE(h.l2().contains(0x30000));
    EXPECT_TRUE(h.llc().contains(0x30000));
    EXPECT_FALSE(h.l1().contains(0x30000));
    EXPECT_EQ(h.prefetchStats().issued, 1u);
}

TEST(Hierarchy, PrefetchFilteredWhenPresent)
{
    CacheHierarchy h(tinyConfig());
    h.issuePrefetch(0x30000, 0);
    EXPECT_FALSE(h.issuePrefetch(0x30000, 10));
    EXPECT_EQ(h.prefetchStats().issued, 1u);
}

TEST(Hierarchy, TimelyPrefetchClassification)
{
    CacheHierarchy h(tinyConfig());
    h.issuePrefetch(0x30000, 0);
    // Demand long after the fill completed -> timely.
    h.demandAccess(0x30000, false, 10000);
    EXPECT_EQ(h.prefetchStats().timely, 1u);
    EXPECT_EQ(h.prefetchStats().late, 0u);
}

TEST(Hierarchy, LatePrefetchClassification)
{
    CacheHierarchy h(tinyConfig());
    h.issuePrefetch(0x30000, 0);
    // Demand while the prefetch is still in flight -> late.
    h.demandAccess(0x30000, false, 10);
    EXPECT_EQ(h.prefetchStats().late, 1u);
    EXPECT_EQ(h.prefetchStats().timely, 0u);
}

TEST(Hierarchy, LatePrefetchStillShortensLatency)
{
    CacheHierarchy h(tinyConfig());
    h.issuePrefetch(0x30000, 0);
    const auto late = h.demandAccess(0x30000, false, 100);
    CacheHierarchy h2(tinyConfig());
    const auto cold = h2.demandAccess(0x30000, false, 100);
    EXPECT_LT(late.readyCycle, cold.readyCycle);
}

TEST(Hierarchy, WrongPrefetchCountedOnUnusedEviction)
{
    HierarchyConfig cfg = tinyConfig();
    cfg.l2 = {"L2", 1024, 2, 14}; // tiny L2: 8 sets x 2 ways
    CacheHierarchy h(cfg);
    h.issuePrefetch(0x0, 0);
    // Push enough demand lines through the same set to evict it.
    const uint64_t set_stride = 8 * kLineBytes;
    for (uint64_t i = 1; i <= 4; ++i)
        h.demandAccess(i * set_stride * 2, false, 1000 * i);
    EXPECT_GE(h.prefetchStats().wrong, 1u);
}

TEST(Hierarchy, PrefetchDroppedWhenQueueFull)
{
    HierarchyConfig cfg = tinyConfig();
    cfg.prefetchQueueMax = 2;
    CacheHierarchy h(cfg);
    EXPECT_TRUE(h.issuePrefetch(0x100000, 0));
    EXPECT_TRUE(h.issuePrefetch(0x200000, 0));
    EXPECT_FALSE(h.issuePrefetch(0x300000, 0));
    EXPECT_EQ(h.prefetchStats().dropped, 1u);
}

TEST(Hierarchy, LlcPromotionNeedsNoDramBandwidth)
{
    CacheHierarchy h(tinyConfig());
    h.demandAccess(0x40000, false, 0);
    // Evict from L2 (tiny) but keep in LLC by filling other L2 sets.
    for (uint64_t i = 1; i <= 8; ++i)
        h.demandAccess(0x40000 + i * 4096, false, 1000 * i);
    if (!h.l2().contains(0x40000) && h.llc().contains(0x40000)) {
        const uint64_t before = h.dram().transfers();
        EXPECT_TRUE(h.issuePrefetch(0x40000, 50000));
        EXPECT_EQ(h.dram().transfers(), before);
    }
}

TEST(Hierarchy, MshrLimitSerializesDemandMisses)
{
    HierarchyConfig cfg = tinyConfig();
    cfg.mshrEntries = 2;
    CacheHierarchy h(cfg);
    const auto a = h.demandAccess(0x100000, false, 0);
    const auto b = h.demandAccess(0x200000, false, 0);
    const auto c = h.demandAccess(0x300000, false, 0);
    // The third miss waits for an MSHR, so it completes later than
    // pure bus queueing would imply.
    EXPECT_GE(c.readyCycle, std::min(a.readyCycle, b.readyCycle));
}

TEST(Hierarchy, L1PrefetchFillsL1)
{
    CacheHierarchy h(tinyConfig());
    EXPECT_TRUE(h.issueL1Prefetch(0x50000, 0));
    EXPECT_TRUE(h.l1().contains(0x50000));
    // Not counted in the L2 prefetch taxonomy.
    EXPECT_EQ(h.prefetchStats().issued, 0u);
}

TEST(Hierarchy, L1PrefetchFromL2IsCheap)
{
    CacheHierarchy h(tinyConfig());
    h.issuePrefetch(0x60000, 0);
    const uint64_t before = h.dram().transfers();
    EXPECT_TRUE(h.issueL1Prefetch(0x60000, 10000));
    EXPECT_EQ(h.dram().transfers(), before);
    EXPECT_TRUE(h.l1().contains(0x60000));
}

TEST(Hierarchy, SharedLlcVisibleAcrossCores)
{
    HierarchyConfig cfg = tinyConfig();
    Cache shared_llc(cfg.llc);
    Dram shared_dram{DramConfig{}};
    CacheHierarchy core0(cfg, &shared_llc, &shared_dram);
    CacheHierarchy core1(cfg, &shared_llc, &shared_dram);

    core0.demandAccess(0x70000, false, 0);
    const auto r = core1.demandAccess(0x70000, false, 10000);
    EXPECT_EQ(r.level, HitLevel::Llc);
}

TEST(Hierarchy, SharedDramContention)
{
    HierarchyConfig cfg = tinyConfig();
    Cache shared_llc(cfg.llc);
    Dram shared_dram{DramConfig{}};
    CacheHierarchy core0(cfg, &shared_llc, &shared_dram);
    CacheHierarchy core1(cfg, &shared_llc, &shared_dram);

    const auto a = core0.demandAccess(0x100000, false, 0);
    const auto b = core1.demandAccess(0x200000, false, 0);
    EXPECT_NE(a.readyCycle, b.readyCycle); // bus serializes them
}

TEST(Hierarchy, AltConfigMatchesFigure11)
{
    const HierarchyConfig cfg = skylakeLikeAltConfig();
    EXPECT_EQ(cfg.l2.sizeBytes, 1024u * 1024u);
    EXPECT_EQ(cfg.llc.sizeBytes, 1536u * 1024u);
}

TEST(Hierarchy, StoreMissConsumesBandwidthButLowPriority)
{
    CacheHierarchy h(tinyConfig());
    const uint64_t before = h.dram().transfers();
    h.demandAccess(0x80000, true, 0);
    EXPECT_EQ(h.dram().transfers(), before + 1);
}

TEST(Hierarchy, TrackerCapacitiesBelowOneThrow)
{
    for (const int bad : {0, -1}) {
        HierarchyConfig cfg = tinyConfig();
        cfg.mshrEntries = bad;
        EXPECT_THROW(CacheHierarchy{cfg}, std::invalid_argument);
        Cache llc(cfg.llc);
        Dram dram(DramConfig{});
        EXPECT_THROW(CacheHierarchy(cfg, &llc, &dram),
                     std::invalid_argument);
        cfg = tinyConfig();
        cfg.prefetchQueueMax = bad;
        EXPECT_THROW(CacheHierarchy{cfg}, std::invalid_argument);
        EXPECT_THROW(CacheHierarchy(cfg, &llc, &dram),
                     std::invalid_argument);
    }
}

/** A degenerate geometry at any level, or a shared LLC whose core
 *  count leaves a set count that is not a power of two, is rejected
 *  with the level's name instead of crashing or mis-mapping. */
TEST(Hierarchy, RejectsDegenerateCacheGeometry)
{
    const auto expectRejected = [](const HierarchyConfig &cfg,
                                   const char *level) {
        try {
            CacheHierarchy h(cfg);
            ADD_FAILURE() << level << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(level), std::string::npos)
                << e.what();
        }
    };
    HierarchyConfig cfg = tinyConfig();
    cfg.l1.ways = 0;
    expectRejected(cfg, "'L1': ways 0");
    cfg = tinyConfig();
    cfg.l2.sizeBytes = 3 * 4 * kLineBytes; // 3 sets of 4 ways
    expectRejected(cfg, "'L2': sizeBytes 768");
    cfg = tinyConfig();
    cfg.llc.ways = Cache::kMaxWays + 1;
    expectRejected(cfg, "'LLC': ways 129");

    // A shared LLC built for three cores of the default hierarchy has
    // 3 * 2048 sets.
    CacheConfig shared = HierarchyConfig{}.llc;
    shared.sizeBytes *= 3;
    EXPECT_THROW(Cache{shared}, std::invalid_argument);
}

/**
 * The sorted ring against the binary heap it replaced: random
 * add / prune / earliest / full sequences with non-monotone completion
 * cycles must agree at every step, at the smallest capacity and the
 * two configured defaults.
 */
TEST(InflightTracker, MatchesPriorityQueueReference)
{
    for (const int capacity : {1, 16, 64}) {
        InflightTracker ring(capacity);
        std::priority_queue<uint64_t, std::vector<uint64_t>,
                            std::greater<>>
            heap;
        Rng rng(static_cast<uint64_t>(capacity));
        uint64_t now = 0;
        for (int step = 0; step < 200'000; ++step) {
            ASSERT_EQ(ring.full(),
                      heap.size() >= static_cast<size_t>(capacity));
            ASSERT_EQ(ring.size(), heap.size());
            ASSERT_EQ(ring.earliest(), heap.empty() ? 0 : heap.top());
            switch (rng.below(4)) {
              case 0:
              case 1:
                if (!ring.full()) {
                    // Mostly later than the last one, sometimes
                    // earlier, sometimes a duplicate.
                    uint64_t done = now + rng.below(400);
                    if (rng.bernoulli(0.2))
                        done -= std::min(done, rng.below(300));
                    ring.add(done);
                    heap.push(done);
                }
                break;
              case 2:
                now += rng.below(60);
                ring.prune(now);
                while (!heap.empty() && heap.top() <= now)
                    heap.pop();
                break;
              default: {
                // The MSHR path: wait for the earliest, then retire.
                const uint64_t until = ring.earliest();
                ring.prune(until);
                while (!heap.empty() && heap.top() <= until)
                    heap.pop();
                break;
              }
            }
        }
    }
}

TEST(InflightTracker, AddWhenFullThrows)
{
    InflightTracker t(2);
    t.add(5);
    t.add(3);
    EXPECT_TRUE(t.full());
    EXPECT_THROW(t.add(4), std::logic_error);
    EXPECT_EQ(t.earliest(), 3u);
    t.prune(3);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.earliest(), 5u);
}

} // namespace
} // namespace mab
