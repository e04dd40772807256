/**
 * Extension study (Section 9): alternative bandit algorithms beyond
 * the paper's evaluation — Sliding-Window UCB (the companion
 * algorithm of DUCB's source paper), Gaussian Thompson sampling, and
 * the two-level Hierarchical bandit that selects among DUCB
 * hyperparameter variants — against DUCB on the prefetching tune set.
 *
 * Also runs the classifier-augmented controller (per-pattern-class
 * bandits) head-to-head with the single-state Bandit.
 */
#include <map>
#include <memory>

#include "common.h"
#include "cpu/classifier_bandit.h"

using namespace mab;
using namespace mab::bench;

namespace {

std::unique_ptr<Prefetcher>
makeExt(const std::string &name, uint64_t seed)
{
    MabConfig mab;
    mab.numArms = BanditEnsemblePrefetcher::numArms();
    mab.seed = seed;
    mab.c = 0.2;
    mab.gamma = 0.99;
    BanditHwConfig hw;
    hw.stepUnits = 125;

    if (name == "Classifier") {
        return std::make_unique<ClassifierBanditController>(
            MabAlgorithm::Ducb, mab, hw);
    }
    MabAlgorithm algo = MabAlgorithm::Ducb;
    if (name == "SW-UCB")
        algo = MabAlgorithm::SwUcb;
    else if (name == "Thompson")
        algo = MabAlgorithm::Thompson;
    else if (name == "Hierarchical")
        algo = MabAlgorithm::Hierarchical;
    return std::make_unique<BanditPrefetchController>(
        BanditPrefetchConfig{algo, mab, hw});
}

} // namespace

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(1'000'000);
    auto tune = tuneSetPrefetch();
    tune.resize(24); // every other-variant subset keeps this quick

    const std::vector<std::string> algos = {
        "DUCB", "SW-UCB", "Thompson", "Hierarchical", "Classifier",
    };

    const size_t per_app = 1 + algos.size();
    const std::vector<double> ipcs = sweepMap<double>(
        jobs, tune.size() * per_app, [&](size_t i) {
            const AppProfile &app = tune[i / per_app];
            const size_t c = i % per_app;
            if (c == 0)
                return runPrefetchNamed(app, "None", instr).ipc;
            auto pf = makeExt(algos[c - 1], app.seed);
            return runPrefetch(app, *pf, instr).ipc;
        });

    std::map<std::string, std::vector<double>> speedups;
    for (size_t a = 0; a < tune.size(); ++a) {
        const double base = ipcs[a * per_app];
        for (size_t c = 0; c < algos.size(); ++c)
            speedups[algos[c]].push_back(ipcs[a * per_app + 1 + c] /
                                         base);
    }

    std::printf("Extension study: bandit algorithm variants, geomean "
                "IPC vs no prefetching (%zu tune traces)\n",
                tune.size());
    rule(52);
    const double ducb = gmean(speedups["DUCB"]);
    for (const auto &name : algos) {
        const double g = gmean(speedups[name]);
        std::printf("%-14s %8s   (vs DUCB %+5.1f%%)\n", name.c_str(),
                    fmt(g, 3).c_str(), 100.0 * (g / ducb - 1.0));
    }
    rule(52);
    std::printf("Expected: all variants in the same band as DUCB; the "
                "hierarchical and classifier agents trade a few\n"
                "hundred extra bytes for robustness on mixed-phase "
                "apps (Section 9's storage/performance tradeoff).\n");
    return 0;
}
