#include "memory/hierarchy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "trace/record.h"

namespace mab {

HierarchyConfig
skylakeLikeAltConfig()
{
    HierarchyConfig cfg;
    cfg.l2 = {"L2", 1024 * 1024, 16, 14};
    cfg.llc = {"LLC", 1536 * 1024, 12, 34};
    return cfg;
}

namespace {

/** An InflightTracker capacity from the config, rejected below 1. */
int
checkedCapacity(int value, const char *field)
{
    if (value < 1)
        throw std::invalid_argument(std::string("HierarchyConfig: ") +
                                    field + " " + std::to_string(value) +
                                    " must be at least 1");
    return value;
}

} // namespace

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config,
                               const DramConfig &dram)
    : config_(config), l1_(config.l1), l2_(config.l2),
      ownedLlc_(std::make_unique<Cache>(config.llc)),
      ownedDram_(std::make_unique<Dram>(dram)),
      llc_(ownedLlc_.get()), dram_(ownedDram_.get()),
      demandMshr_(checkedCapacity(config.mshrEntries, "mshrEntries")),
      prefetchQueue_(checkedCapacity(config.prefetchQueueMax,
                                     "prefetchQueueMax"))
{
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config,
                               Cache *sharedLlc, Dram *sharedDram)
    : config_(config), l1_(config.l1), l2_(config.l2), llc_(sharedLlc),
      dram_(sharedDram),
      demandMshr_(checkedCapacity(config.mshrEntries, "mshrEntries")),
      prefetchQueue_(checkedCapacity(config.prefetchQueueMax,
                                     "prefetchQueueMax"))
{
}

CacheHierarchy::AccessResult
CacheHierarchy::demandMissToDram(uint64_t line, bool isStore,
                                 uint64_t cycle)
{
    // Miss all the way to DRAM. If the MSHR file is full the request
    // waits for the earliest outstanding miss to retire.
    AccessResult res;
    ++llcDemandMisses_;
    ++hitLevel_[static_cast<int>(HitLevel::Dram)];
    demandMshr_.prune(cycle);
    mshrOcc_.sample(demandMshr_.size());
    uint64_t issue_cycle = cycle;
    if (demandMshr_.full()) {
        issue_cycle = std::max(issue_cycle, demandMshr_.earliest());
        demandMshr_.prune(issue_cycle);
    }
    // Loads are priority demand reads; store RFOs ride the
    // low-priority (prefetch-class) queue since commit never waits
    // for them.
    const uint64_t dram_ready = dram_->schedule(issue_cycle, !isStore);
    res.level = HitLevel::Dram;
    res.readyCycle = dram_ready + config_.l1.hitLatency;
    demandMshr_.add(res.readyCycle);

    llc_->insert(line, res.readyCycle, false);
    countL2Eviction(l2_.insert(line, res.readyCycle, false));
    l1_.insert(line, res.readyCycle, false);
    return res;
}

void
CacheHierarchy::exportStats(StatsRegistry &reg,
                            const std::string &prefix,
                            uint64_t cycles) const
{
    const auto cacheStats = [&](const Cache &c,
                                const std::string &name) {
        reg.setCounter(prefix + "." + name + ".demandHits",
                       c.demandHits);
        reg.setCounter(prefix + "." + name + ".demandMisses",
                       c.demandMisses);
    };
    // Private levels only: a shared LLC aggregates every core's
    // traffic, so its cache-local counters are exported once by the
    // owner (MultiCoreSystem), not per core.
    cacheStats(l1_, "l1");
    cacheStats(l2_, "l2");
    if (ownedLlc_)
        cacheStats(*llc_, "llc");

    reg.setCounter(prefix + ".hits.l1", hitsAt(HitLevel::L1));
    reg.setCounter(prefix + ".hits.l2", hitsAt(HitLevel::L2));
    reg.setCounter(prefix + ".hits.llc", hitsAt(HitLevel::Llc));
    reg.setCounter(prefix + ".hits.dram", hitsAt(HitLevel::Dram));
    reg.setCounter(prefix + ".l2DemandAccesses", l2DemandAccesses_);
    reg.setCounter(prefix + ".llcDemandMisses", llcDemandMisses_);

    reg.setCounter(prefix + ".pf.issued", pfStats_.issued);
    reg.setCounter(prefix + ".pf.timely", pfStats_.timely);
    reg.setCounter(prefix + ".pf.late", pfStats_.late);
    reg.setCounter(prefix + ".pf.wrong", pfStats_.wrong);
    reg.setCounter(prefix + ".pf.dropped", pfStats_.dropped);

    const auto occStats = [&](const OccupancyAccum &o,
                              const std::string &name) {
        reg.setCounter(prefix + "." + name + ".samples", o.samples);
        reg.setScalar(prefix + "." + name + ".meanOccupancy",
                      o.mean());
        reg.setCounter(prefix + "." + name + ".peakOccupancy",
                       o.peak);
    };
    occStats(mshrOcc_, "mshr");
    occStats(pfqOcc_, "prefetchQueue");

    if (ownsDram())
        dram_->exportStats(reg, prefix + ".dram", cycles);
}

} // namespace mab
