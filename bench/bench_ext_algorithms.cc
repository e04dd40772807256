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

#include "cpu/classifier_bandit.h"
#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "ext_algorithms");
    const uint64_t instr = sweep.scaled(1'000'000);
    auto tune = tuneSetPrefetch();
    tune.resize(24); // every other-variant subset keeps this quick

    // The bench-tuned agent under each algorithm, and the classifier
    // controller (per-pattern-class DUCB agents).
    const std::vector<std::string> algos = {
        "DUCB", "SW-UCB", "Thompson", "Hierarchical", "Classifier",
    };
    const auto agent = [](const std::string &algo) {
        json::Value a = algo == "Classifier"
            ? describe(benchBanditConfig())
            : describePrefetcher("Bandit:" + algo, true);
        if (algo == "Classifier")
            a["kind"] = "classifierBandit";
        return a;
    };

    const json::Value machine =
        describe(CoreConfig{}, HierarchyConfig{}, DramConfig{});
    const size_t per_app = 1 + algos.size();
    std::vector<double> ipcs(tune.size() * per_app);
    std::vector<Cell> cells;
    for (const AppProfile &app : tune) {
        for (size_t c = 0; c < per_app; ++c) {
            const std::string name = c == 0 ? "None" : algos[c - 1];
            cells.push_back(
                {streamKey(app, instr),
                 config(machine, {c == 0 ? describePrefetcher(name, true)
                                         : agent(name)}),
                 [=, ipc = &ipcs[cells.size()]] {
                     std::unique_ptr<Prefetcher> pf;
                     if (name == "Classifier") {
                         const BanditPrefetchConfig cfg =
                             benchBanditConfig(app.seed);
                         pf = std::make_unique<ClassifierBanditController>(
                             MabAlgorithm::Ducb, cfg.mab, cfg.hw);
                     } else {
                         pf = makePrefetcher(
                             c == 0 ? name : "Bandit:" + name, app.seed);
                     }
                     *ipc = runPrefetch(app, *pf, instr).ipc;
                 }});
        }
    }
    sweep.run(std::move(cells));

    std::map<std::string, std::vector<double>> speedups;
    for (size_t a = 0; a < tune.size(); ++a) {
        const double base = ipcs[a * per_app];
        for (size_t c = 0; c < algos.size(); ++c)
            speedups[algos[c]].push_back(ipcs[a * per_app + 1 + c] /
                                         base);
    }
    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["traces"] = static_cast<uint64_t>(tune.size());
    const double ducb = gmean(speedups["DUCB"]);
    for (const auto &name : algos) {
        const double g = gmean(speedups[name]);
        body["gmeanSpeedup"][name] = g;
        body["vsDucbPct"][name] = 100.0 * (g / ducb - 1.0);
    }

    std::printf("Extension study: bandit algorithm variants, geomean "
                "IPC vs no prefetching (%zu tune traces)\n",
                static_cast<size_t>(body["traces"].asUint()));
    rule(52);
    for (const auto &[name, g] : body["gmeanSpeedup"].members()) {
        std::printf("%-14s %8s   (vs DUCB %+5.1f%%)\n", name.c_str(),
                    fmt(g.asDouble(), 3).c_str(),
                    body["vsDucbPct"][name].asDouble());
    }
    rule(52);
    std::printf("Expected: all variants in the same band as DUCB; the "
                "hierarchical and classifier agents trade a few\n"
                "hundred extra bytes for robustness on mixed-phase "
                "apps (Section 9's storage/performance tradeoff).\n");
    return sweep.finish();
}
