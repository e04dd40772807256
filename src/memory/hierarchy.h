#ifndef MAB_MEMORY_HIERARCHY_H
#define MAB_MEMORY_HIERARCHY_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "memory/cache.h"
#include "memory/dram.h"
#include "sim/stats_registry.h"

namespace mab {

/** Configuration of a core's cache hierarchy (Table 4 defaults). */
struct HierarchyConfig
{
    CacheConfig l1{"L1", 32 * 1024, 8, 4};
    CacheConfig l2{"L2", 256 * 1024, 8, 14};
    CacheConfig llc{"LLC", 2 * 1024 * 1024, 16, 34};

    /** Outstanding demand misses to memory per core. */
    int mshrEntries = 16;

    /** Outstanding prefetches per core; extras are dropped. */
    int prefetchQueueMax = 64;
};

/** Alternative hierarchy of Figure 11 (L2 = 1MB, LLC = 1.5MB/core). */
HierarchyConfig skylakeLikeAltConfig();

/** Level that served a demand access. */
enum class HitLevel
{
    L1,
    L2,
    Llc,
    Dram,
};

/** Prefetch outcome counters (the Figure 9 taxonomy). */
struct PrefetchStats
{
    uint64_t issued = 0;
    /** Demand hit a prefetched line whose fill had completed. */
    uint64_t timely = 0;
    /** Demand hit a prefetched line still in flight. */
    uint64_t late = 0;
    /** Prefetched line evicted from L2 without a demand use. */
    uint64_t wrong = 0;
    /** Prefetches not issued because the queue/MSHRs were full. */
    uint64_t dropped = 0;
};

/**
 * Cheap occupancy accumulator: mean and peak of a queue's size,
 * sampled at the points where the queue is consulted.
 */
struct OccupancyAccum
{
    uint64_t samples = 0;
    uint64_t sum = 0;
    uint64_t peak = 0;

    void
    sample(size_t occupancy)
    {
        ++samples;
        sum += occupancy;
        if (occupancy > peak)
            peak = occupancy;
    }

    double
    mean() const
    {
        return samples == 0
            ? 0.0
            : static_cast<double>(sum) / static_cast<double>(samples);
    }
};

/**
 * Bounded tracker of in-flight memory operations (an MSHR file /
 * prefetch queue occupancy model): the completion cycles of at most
 * capacity operations, kept sorted in a ring allocated once at
 * construction. prune() pops from the head, earliest() reads it, and
 * add() inserts from the tail, where completion cycles nearly always
 * land, so no operation allocates. Only the multiset of cycles is
 * observable, exactly what the binary heap this replaced exposed.
 */
class InflightTracker
{
  public:
    /** @p capacity >= 1 (CacheHierarchy checks its config). */
    explicit InflightTracker(int capacity)
        : capacity_(static_cast<size_t>(capacity)),
          ring_(std::make_unique<uint64_t[]>(capacity_))
    {
    }

    /** Retire operations that completed at or before @p cycle. */
    void
    prune(uint64_t cycle)
    {
        while (size_ != 0 && ring_[head_] <= cycle) {
            head_ = wrap(head_ + 1);
            --size_;
        }
    }

    bool full() const { return size_ >= capacity_; }

    /** Register an operation completing at @p doneCycle; the tracker
     *  must not be full(). */
    void
    add(uint64_t doneCycle)
    {
        if (full())
            throw std::logic_error("InflightTracker: add() when full");
        // Shift the later completions one slot toward the tail.
        size_t i = size_;
        for (; i != 0; --i) {
            const uint64_t prev = ring_[wrap(head_ + i - 1)];
            if (prev <= doneCycle)
                break;
            ring_[wrap(head_ + i)] = prev;
        }
        ring_[wrap(head_ + i)] = doneCycle;
        ++size_;
    }

    /** Earliest outstanding completion (0 when empty). */
    uint64_t earliest() const { return size_ == 0 ? 0 : ring_[head_]; }

    size_t size() const { return size_; }

  private:
    /** Index @p i folded into the ring (i < 2 * capacity_). */
    size_t wrap(size_t i) const
    {
        return i < capacity_ ? i : i - capacity_;
    }

    size_t capacity_;
    std::unique_ptr<uint64_t[]> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
};

/**
 * A core's view of the memory system: private L1 and L2, plus an LLC
 * and DRAM channel that may be shared with other cores (multi-core
 * experiments pass shared instances; single-core hierarchies own
 * theirs).
 *
 * The L2 prefetcher contract matches the paper's setup: the prefetcher
 * is trained on L1 misses (every demand access that reaches the L2)
 * and fills prefetched lines into the L2 and the LLC. Prefetch
 * classification is attributed at the L2, the prefetcher's home level:
 * timely = first demand use after the fill completed; late = first
 * demand use while in flight; wrong = evicted from L2 untouched.
 */
class CacheHierarchy
{
  public:
    /** Fully private hierarchy (single-core). Both constructors throw
     *  std::invalid_argument on an mshrEntries or prefetchQueueMax
     *  below 1. */
    explicit CacheHierarchy(const HierarchyConfig &config,
                            const DramConfig &dram = {});

    /** Hierarchy with shared LLC and DRAM (multi-core). */
    CacheHierarchy(const HierarchyConfig &config, Cache *sharedLlc,
                   Dram *sharedDram);

    struct AccessResult
    {
        uint64_t readyCycle = 0;
        HitLevel level = HitLevel::L1;
    };

    /**
     * Demand load/store at @p cycle: the flattened L1→L2→LLC→DRAM
     * walk. GCC keeps this function itself out of line: the core's
     * step (the only hot caller) makes one call per demand access.
     * Inside it, each level's lookupDemand() is inlined, and a level
     * that missed is filled with insert(), which compares no tag: the
     * lookup proved the line absent and nothing touches that cache
     * before the fill. Every fill site of this class follows a miss
     * at its level in the same call the same way. The only calls left
     * are the cold DRAM leg (demandMissToDram) and the cache's rare
     * stamp renormalization (see EXPERIMENTS.md "Memory-walk
     * kernel").
     */
    AccessResult
    demandAccess(uint64_t addr, bool isStore, uint64_t cycle)
    {
        const uint64_t line = lineAddr(addr);
        AccessResult res;

        const auto r1 = l1_.lookupDemand(line, cycle);
        if (r1.hit) {
            res.level = HitLevel::L1;
            res.readyCycle = std::max(cycle + config_.l1.hitLatency,
                                      r1.readyCycle);
            ++hitLevel_[static_cast<int>(HitLevel::L1)];
            return res;
        }

        ++l2DemandAccesses_;
        const uint64_t l2_time = cycle + config_.l1.hitLatency +
            config_.l2.hitLatency;
        const auto r2 = l2_.lookupDemand(line, cycle);
        if (r2.hit) {
            if (r2.prefetchFirstUse) {
                if (r2.inflight)
                    ++pfStats_.late;
                else
                    ++pfStats_.timely;
            }
            res.level = HitLevel::L2;
            res.readyCycle = std::max(l2_time, r2.readyCycle);
            l1_.insert(line, res.readyCycle, false);
            ++hitLevel_[static_cast<int>(HitLevel::L2)];
            return res;
        }

        const uint64_t llc_time = l2_time + config_.llc.hitLatency;
        const auto r3 = llc_->lookupDemand(line, cycle);
        if (r3.hit) {
            res.level = HitLevel::Llc;
            res.readyCycle = std::max(llc_time, r3.readyCycle);
            countL2Eviction(l2_.insert(line, res.readyCycle, false));
            l1_.insert(line, res.readyCycle, false);
            ++hitLevel_[static_cast<int>(HitLevel::Llc)];
            return res;
        }

        return demandMissToDram(line, isStore, cycle);
    }

    /**
     * Issue an L2 prefetch for @p addr. Returns false if it was
     * filtered (already present) or dropped (queues full).
     */
    bool
    issuePrefetch(uint64_t addr, uint64_t cycle)
    {
        const uint64_t line = lineAddr(addr);
        if (l2_.contains(line))
            return false; // filtered: already present at home level

        if (llc_->contains(line)) {
            // Promotion from LLC into L2: cheap, no DRAM traffic.
            const uint64_t ready = cycle + config_.l2.hitLatency +
                config_.llc.hitLatency;
            countL2Eviction(l2_.insert(line, ready, true));
            ++pfStats_.issued;
            return true;
        }

        prefetchQueue_.prune(cycle);
        demandMshr_.prune(cycle);
        pfqOcc_.sample(prefetchQueue_.size());
        if (prefetchQueue_.full() || demandMshr_.full()) {
            ++pfStats_.dropped;
            return false;
        }

        const uint64_t ready = dram_->schedule(cycle, false);
        prefetchQueue_.add(ready);
        // Fill LLC untagged and L2 tagged: classification is
        // attributed at the L2, the prefetcher's home level (see
        // class comment).
        llc_->insert(line, ready, false);
        countL2Eviction(l2_.insert(line, ready, true));
        ++pfStats_.issued;
        return true;
    }

    /**
     * Issue an L1 prefetch for @p addr (multi-level configurations,
     * Figure 12). Fills the L1 (and lower levels on a full miss);
     * L1-initiated fills are not counted in the L2 prefetch taxonomy.
     */
    bool
    issueL1Prefetch(uint64_t addr, uint64_t cycle)
    {
        const uint64_t line = lineAddr(addr);
        if (l1_.contains(line))
            return false;

        if (l2_.contains(line)) {
            l1_.insert(line, cycle + config_.l2.hitLatency, false);
            return true;
        }
        if (llc_->contains(line)) {
            const uint64_t ready = cycle + config_.l2.hitLatency +
                config_.llc.hitLatency;
            countL2Eviction(l2_.insert(line, ready, false));
            l1_.insert(line, ready, false);
            return true;
        }

        prefetchQueue_.prune(cycle);
        demandMshr_.prune(cycle);
        if (prefetchQueue_.full() || demandMshr_.full()) {
            ++pfStats_.dropped;
            return false;
        }
        const uint64_t ready = dram_->schedule(cycle, false);
        prefetchQueue_.add(ready);
        llc_->insert(line, ready, false);
        countL2Eviction(l2_.insert(line, ready, false));
        l1_.insert(line, ready, false);
        return true;
    }

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &llc() { return *llc_; }
    Dram &dram() { return *dram_; }

    const PrefetchStats &prefetchStats() const { return pfStats_; }

    /** Demand accesses that reached the L2 (the bandit step unit). */
    uint64_t l2DemandAccesses() const { return l2DemandAccesses_; }

    /** Demand misses that had to go to DRAM. */
    uint64_t llcDemandMisses() const { return llcDemandMisses_; }

    /** Demand accesses served at @p level. */
    uint64_t hitsAt(HitLevel level) const
    {
        return hitLevel_[static_cast<int>(level)];
    }

    /** MSHR occupancy sampled at each DRAM-bound demand miss — a
     *  memory-level-parallelism proxy. */
    const OccupancyAccum &mshrOccupancy() const { return mshrOcc_; }

    /** Prefetch-queue occupancy sampled at each DRAM-bound prefetch. */
    const OccupancyAccum &prefetchQueueOccupancy() const
    {
        return pfqOcc_;
    }

    /** True when this hierarchy owns its LLC/DRAM (single-core). */
    bool ownsDram() const { return ownedDram_ != nullptr; }

    /**
     * Export the memory-system metrics under @p prefix ("mem"): per-
     * level hits/misses, the prefetch-outcome taxonomy, queue
     * occupancies, and — when this hierarchy owns the channel — the
     * DRAM counters at @p prefix.dram.
     */
    void exportStats(StatsRegistry &reg, const std::string &prefix,
                     uint64_t cycles = 0) const;

  private:
    /** The DRAM leg of a demand miss — out-of-line; it is the cold
     *  tail of the walk and carries the MSHR bookkeeping. */
    AccessResult demandMissToDram(uint64_t line, bool isStore,
                                  uint64_t cycle);

    void
    countL2Eviction(const Cache::EvictInfo &info)
    {
        if (info.evictedValid && info.evictedUnusedPrefetch)
            ++pfStats_.wrong;
    }

    HierarchyConfig config_;
    Cache l1_;
    Cache l2_;
    std::unique_ptr<Cache> ownedLlc_;
    std::unique_ptr<Dram> ownedDram_;
    Cache *llc_;
    Dram *dram_;

    InflightTracker demandMshr_;
    InflightTracker prefetchQueue_;

    PrefetchStats pfStats_;
    uint64_t l2DemandAccesses_ = 0;
    uint64_t llcDemandMisses_ = 0;
    uint64_t hitLevel_[4] = {0, 0, 0, 0};
    OccupancyAccum mshrOcc_;
    OccupancyAccum pfqOcc_;
};

} // namespace mab

#endif // MAB_MEMORY_HIERARCHY_H
