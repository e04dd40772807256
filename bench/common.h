#ifndef MAB_BENCH_COMMON_H
#define MAB_BENCH_COMMON_H

/**
 * @file
 * The prefetcher configurations the bench harness runs, header-only:
 * the bench-tuned Bandit, the name -> prefetcher factory and the DRAM
 * probe wiring. The sweep runner (sweep.h, the mab_bench library)
 * builds its cells from these, and the repository benchmark
 * (perfbench/) and the differential fuzzer (fuzz/) include this header
 * read-only so their cells match the sweeps' exactly.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "prefetch/bingo.h"
#include "prefetch/ipcp.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
#include "prefetch/stride.h"

namespace mab::bench {

/**
 * The Micro-Armed Bandit configuration the bench harness runs (the
 * paper's Table 6 hyperparameters retuned to the scaled runs; see the
 * comment in namedBanditConfig()).
 */
inline BanditPrefetchConfig
benchBanditConfig(uint64_t seed = 1)
{
    BanditPrefetchConfig cfg;
    cfg.mab.seed = seed;
    cfg.hw.stepUnits = 125;
    cfg.mab.c = 0.2;
    cfg.mab.gamma = 0.99;
    return cfg;
}

/** Names of the prefetchers compared in Figures 8/9/11/14. */
inline std::vector<std::string>
comparisonPrefetchers()
{
    return {"Stride", "Bingo", "MLOP", "Pythia", "Bandit"};
}

/**
 * The Bandit configuration makePrefetcher() builds for @p name:
 * "Bandit" is the DUCB agent, "Bandit:<algo>" selects the MAB
 * algorithm whose toString() is <algo>, and "BanditIdeal" removes the
 * 500-cycle selection latency. Returns false for any other name,
 * including an unknown <algo>.
 */
inline bool
namedBanditConfig(const std::string &name, uint64_t seed,
                  uint64_t banditStepUnits, BanditPrefetchConfig *out)
{
    if (name != "Bandit" && name.rfind("Bandit:", 0) != 0 &&
        name != "BanditIdeal")
        return false;
    // The paper's hyperparameters (step = 1000 accesses, c = 0.04,
    // gamma = 0.999) were tuned for 1B-instruction traces with tens
    // of thousands of bandit steps. The scaled runs take a few hundred
    // steps, so the step shrinks proportionally and (per the paper's
    // own tune-set procedure) c/gamma are retuned to the shorter
    // horizon.
    BanditPrefetchConfig cfg = benchBanditConfig(seed);
    cfg.hw.stepUnits = banditStepUnits;
    if (name == "BanditIdeal")
        cfg.hw.selectionLatencyCycles = 0;
    if (name.rfind("Bandit:", 0) != 0) {
        *out = cfg;
        return true;
    }
    // Hierarchical is the last MabAlgorithm enumerator.
    for (int a = 0; a <= static_cast<int>(MabAlgorithm::Hierarchical);
         ++a) {
        cfg.algorithm = static_cast<MabAlgorithm>(a);
        if (name.substr(7) == toString(cfg.algorithm)) {
            *out = cfg;
            return true;
        }
    }
    return false;
}

/**
 * Instantiate a prefetcher by report name: "None", "Stride", "Bingo",
 * "MLOP", "IPCP", "Pythia", or a Bandit name of namedBanditConfig().
 * The bandit takes a step every @p banditStepUnits L2 accesses. An
 * unknown name aborts.
 */
inline std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &name, uint64_t seed = 1,
               uint64_t banditStepUnits = benchBanditConfig().hw.stepUnits)
{
    if (name == "None")
        return std::make_unique<NullPrefetcher>();
    if (name == "Stride") {
        // The baseline IP-stride prefetcher [23] runs one stride
        // ahead of the demand stream.
        return std::make_unique<StridePrefetcher>(64, 1);
    }
    if (name == "Bingo")
        return std::make_unique<BingoPrefetcher>();
    if (name == "MLOP")
        return std::make_unique<MlopPrefetcher>();
    if (name == "IPCP")
        return std::make_unique<IpcpPrefetcher>();
    if (name == "Pythia") {
        PythiaConfig cfg;
        cfg.seed = seed * 31 + 7;
        return std::make_unique<PythiaPrefetcher>(cfg);
    }
    BanditPrefetchConfig cfg;
    if (namedBanditConfig(name, seed, banditStepUnits, &cfg))
        return std::make_unique<BanditPrefetchController>(cfg);
    std::fprintf(stderr, "unknown prefetcher: %s\n", name.c_str());
    std::abort();
}

/**
 * Offer @p pf the system probes @p core can provide; implementations
 * that exploit one take it (Pythia's bandwidth awareness), the rest
 * inherit the no-op default. The repository benchmark (perfbench/)
 * calls it too, so its cells wire the same probes as the sweeps.
 */
inline void
attachDramProbes(CoreModel &core, Prefetcher &pf)
{
    SystemProbes probes;
    Dram *d = &core.hierarchy().dram();
    probes.dramUtilization = [d](uint64_t cycle) {
        const uint64_t busy = d->busFreeCycle();
        if (busy <= cycle)
            return 0.0;
        const double backlog = static_cast<double>(busy - cycle);
        return backlog >= 500.0 ? 1.0 : backlog / 500.0;
    };
    pf.attachSystemProbes(probes);
}

} // namespace mab::bench

#endif // MAB_BENCH_COMMON_H
