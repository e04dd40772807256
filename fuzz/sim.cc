#include <cmath>
#include <sstream>

#include "bench/common.h"
#include "cpu/core_model.h"
#include "fuzz/domains.h"
#include "fuzz/shrink.h"
#include "sim/rng.h"

namespace mab::fuzz {

std::unique_ptr<Prefetcher>
makeCasePrefetcher(const SimCase &c)
{
    return bench::makePrefetcher(c.prefetcher, c.app.seed, 50);
}

namespace {

CacheConfig
genCacheGeometry(Rng &rng, const char *name, int min_sets_log,
                 int max_sets_log, int max_ways, uint64_t latency)
{
    CacheConfig cfg;
    cfg.name = name;
    cfg.ways = 1 + static_cast<int>(rng.below(max_ways));
    const uint64_t sets = 1ull
        << (min_sets_log +
            rng.below(static_cast<uint64_t>(max_sets_log -
                                            min_sets_log + 1)));
    cfg.sizeBytes = kLineBytes * cfg.ways * sets;
    cfg.hitLatency = latency;
    return cfg;
}

} // namespace

std::string
formatSimCase(const SimCase &c)
{
    std::ostringstream os;
    os << "sim case: pf=" << c.prefetcher
       << " instr=" << c.instructions << " phases=" << c.app.phases.size()
       << " seed=" << c.app.seed << " l1=" << c.hier.l1.sizeBytes << "B/"
       << c.hier.l1.ways << "w l2=" << c.hier.l2.sizeBytes << "B/"
       << c.hier.l2.ways << "w llc=" << c.hier.llc.sizeBytes << "B/"
       << c.hier.llc.ways << "w mshr=" << c.hier.mshrEntries
       << " pfq=" << c.hier.prefetchQueueMax
       << " dramMtps=" << c.dram.mtps;
    for (const PatternPhase &p : c.app.phases)
        os << " [" << mab::toString(p.kind)
           << " mem=" << p.memFraction << " fp=" << p.footprintBytes
           << "]";
    return os.str();
}

SimCase
genSimCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 32));
    SimCase c;

    c.app.name = "fuzz";
    c.app.seed = subSeed(seed, 33);
    c.app.loopPhases = true;
    const int phases = 1 + static_cast<int>(rng.below(3));
    for (int p = 0; p < phases; ++p) {
        PatternPhase ph;
        ph.kind = static_cast<PatternKind>(rng.below(5));
        ph.memFraction = rng.uniform(0.05, 0.6);
        ph.storeFraction = rng.uniform(0.0, 0.5);
        ph.branchFraction = rng.uniform(0.0, 0.3);
        ph.mispredictRate = rng.uniform(0.0, 0.05);
        ph.footprintBytes = 1ull << (12 + rng.below(10));
        ph.strideBytes = static_cast<int64_t>(kLineBytes)
            << rng.below(4);
        ph.numStreams = 1 + static_cast<int>(rng.below(8));
        ph.accessesPerLine = 1 + static_cast<int>(rng.below(8));
        ph.chaseSerialFrac = rng.uniform(0.0, 0.5);
        ph.lengthInstrs = 400 + rng.below(1200);
        c.app.phases.push_back(ph);
    }

    c.hier.l1 = genCacheGeometry(rng, "L1", 2, 6, 4, 2);
    c.hier.l2 = genCacheGeometry(rng, "L2", 4, 8, 8, 10);
    c.hier.llc = genCacheGeometry(rng, "LLC", 6, 10, 16, 30);
    c.hier.mshrEntries = 1 + static_cast<int>(rng.below(32));
    c.hier.prefetchQueueMax = 1 + static_cast<int>(rng.below(64));

    static const double kMtps[] = {150.0, 600.0, 2400.0, 9600.0};
    c.dram.mtps = kMtps[rng.below(4)];
    c.dram.baseLatencyCycles = 100 + rng.below(400);

    static const char *kPfs[] = {
        "None", "None", "Stride", "Bingo", "MLOP", "IPCP",
        "Pythia", "Bandit", "Bandit:eGreedy", "Bandit:UCB",
        "Bandit:Thompson"};
    c.prefetcher = kPfs[rng.below(sizeof(kPfs) / sizeof(kPfs[0]))];
    c.instructions = 1500 + rng.below(2500);
    return c;
}

std::string
checkSimProperties(const SimCase &c)
{
    SyntheticTrace trace(c.app);
    std::unique_ptr<Prefetcher> pf = makeCasePrefetcher(c);
    const CoreConfig core_cfg;
    CoreModel core(core_cfg, c.hier, trace, pf.get(), nullptr,
                   c.dram);
    core.run(c.instructions);

    const auto fail = [&](const std::string &what) {
        return "property violated: " + what + " (" +
            formatSimCase(c) + ")";
    };

    if (core.instructions() < c.instructions)
        return fail("run stopped short of the instruction budget");
    if (core.cycles() == 0)
        return fail("zero cycles after a nonempty run");
    const double ipc = core.ipc();
    if (!std::isfinite(ipc) || ipc <= 0.0)
        return fail("IPC not in (0, commitWidth]: ipc=" +
                    std::to_string(ipc));
    if (ipc > core.config().commitWidth * (1.0 + 1e-9))
        return fail("IPC exceeds the commit width: ipc=" +
                    std::to_string(ipc));

    CacheHierarchy &h = core.hierarchy();
    const Cache &l1 = h.l1();
    const Cache &l2 = h.l2();
    const Cache &llc = h.llc();

    // Counter conservation: every demand access probes the L1; each
    // level's lookups are exactly the previous level's misses.
    const uint64_t total = h.hitsAt(HitLevel::L1) +
        h.hitsAt(HitLevel::L2) + h.hitsAt(HitLevel::Llc) +
        h.hitsAt(HitLevel::Dram);
    if (total != l1.demandHits + l1.demandMisses)
        return fail("per-level hit counters do not sum to L1 lookups");
    if (h.hitsAt(HitLevel::L1) != l1.demandHits)
        return fail("L1 hit counter mismatch");
    if (h.l2DemandAccesses() != l1.demandMisses)
        return fail("L2 demand accesses != L1 misses");
    if (l2.demandHits + l2.demandMisses != h.l2DemandAccesses())
        return fail("L2 lookups != L2 demand accesses");
    if (llc.demandHits + llc.demandMisses != l2.demandMisses)
        return fail("LLC lookups != L2 misses");
    if (h.llcDemandMisses() != llc.demandMisses)
        return fail("LLC demand-miss counter mismatch");
    if (h.hitsAt(HitLevel::Dram) != h.llcDemandMisses())
        return fail("DRAM-level hits != LLC demand misses");

    // Prefetch taxonomy: each issued prefetch is classified at most
    // once as timely/late (first demand use) or wrong (evicted
    // untouched).
    const PrefetchStats &ps = h.prefetchStats();
    if (ps.timely + ps.late + ps.wrong > ps.issued)
        return fail("prefetch taxonomy exceeds issued count");

    // Bounded structures never exceed their configured capacities.
    if (h.mshrOccupancy().peak >
        static_cast<uint64_t>(c.hier.mshrEntries))
        return fail("MSHR occupancy exceeded capacity");
    if (h.prefetchQueueOccupancy().peak >
        static_cast<uint64_t>(c.hier.prefetchQueueMax))
        return fail("prefetch queue occupancy exceeded capacity");

    const auto checkCap = [&](const Cache &cache, const char *name)
        -> std::string {
        const uint64_t cap =
            cache.numSets() * cache.config().ways;
        if (cache.occupancy() > cap)
            return fail(std::string(name) +
                        " occupancy exceeds capacity");
        return "";
    };
    for (const auto &[cache, name] :
         {std::pair<const Cache *, const char *>{&l1, "L1"},
          {&l2, "L2"},
          {&llc, "LLC"}}) {
        const std::string err = checkCap(*cache, name);
        if (!err.empty())
            return err;
    }
    return "";
}

SimCase
shrinkSimCase(const SimCase &c)
{
    return shrinkCase(
        c, [](const SimCase &t) { return !checkSimProperties(t).empty(); },
        {[](SimCase &t) { return halveAbove(t.instructions, 200); }},
        {[](SimCase &t) { t.prefetcher = "None"; },
         [](SimCase &t) { t.hier = HierarchyConfig{}; },
         [](SimCase &t) { t.dram = DramConfig{}; },
         [](SimCase &t) {
             if (t.app.phases.size() > 1)
                 t.app.phases.resize(1);
         }});
}

std::string
checkSim(uint64_t seed, bool shrink)
{
    const SimCase c = genSimCase(seed);
    std::string err = checkSimProperties(c);
    if (!err.empty() && shrink)
        err += "\nminimized: " + formatSimCase(shrinkSimCase(c));
    return err;
}

std::string
describeSim(uint64_t seed)
{
    return formatSimCase(genSimCase(seed));
}

} // namespace mab::fuzz
