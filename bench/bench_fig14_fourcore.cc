/**
 * Figure 14: four-core performance, homogeneous mixes (the same
 * application on every core, sharing the LLC and one DRAM channel).
 * Metric: sum of per-core IPCs, normalized to the no-prefetching
 * system, geomean across mixes.
 *
 * The Bandit agents run with rr_restart_prob = 0.001 (Table 6) to
 * escape arms mis-judged under inter-core interference. Paper: Bandit
 * vs Stride +6%, MLOP +2.4%, Bingo +4%, and ~1% behind Pythia.
 */
#include <map>
#include <memory>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig14_fourcore");
    const uint64_t instr = sweep.scaled(600'000);
    const auto pf_names = comparisonPrefetchers();
    const auto workloads = allWorkloads();

    // Table 6 uses 0.001 per step over ~10^5 steps; scaled to the
    // ~10^2-step runs.
    const auto bandit = [](uint64_t seed) {
        BanditPrefetchConfig cfg = benchBanditConfig(seed);
        cfg.mab.rrRestartProb = 0.005;
        return cfg;
    };
    std::vector<std::string> names = {"None"};
    names.insert(names.end(), pf_names.begin(), pf_names.end());
    const json::Value machine = describe(CoreConfig{}, HierarchyConfig{},
                                         fourCoreDram(), kFourCores);
    std::vector<double> sums(workloads.size() * names.size());
    std::vector<Cell> cells;
    for (size_t w = 0; w < workloads.size(); ++w) {
        for (size_t c = 0; c < names.size(); ++c) {
            const std::string &name = names[c];
            // MultiCoreSystem offers no system probes: Pythia runs
            // without its bandwidth-aware reward here.
            cells.push_back(
                {"",
                 config(machine, {name == "Bandit"
                                      ? describe(bandit(1))
                                      : describePrefetcher(name, false)}),
                 [&, w, name, sum = &sums[w * names.size() + c]] {
                     *sum = runFourCore(
                         workloads[w].app, instr,
                         [&](uint64_t seed) -> std::unique_ptr<Prefetcher> {
                             if (name == "Bandit")
                                 return std::make_unique<
                                     BanditPrefetchController>(bandit(seed));
                             return makePrefetcher(name, seed);
                         });
                 }});
        }
    }
    sweep.run(std::move(cells));

    std::map<std::string, std::vector<double>> speedups;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = sums[w * names.size()];
        for (size_t c = 1; c < names.size(); ++c)
            speedups[names[c]].push_back(sums[w * names.size() + c] /
                                         base);
    }
    json::Value gm = json::Value::object();
    for (const auto &pf : pf_names)
        gm[pf] = gmean(speedups[pf]);
    json::Value vs = json::Value::object();
    for (const auto &pf : {"Stride", "Bingo", "MLOP", "Pythia"})
        vs[pf] = 100.0 * (gm["Bandit"].asDouble() / gm[pf].asDouble() -
                          1.0);
    json::Value &body = sweep.body();
    body["instructionsPerCore"] = instr;
    body["gmeanSpeedup"] = std::move(gm);
    body["banditVsPct"] = std::move(vs);

    std::printf("Figure 14: 4-core homogeneous mixes, geomean IPC-sum "
                "normalized to no prefetching\n");
    rule(40);
    for (const auto &[pf, g] : body["gmeanSpeedup"].members())
        std::printf("%-10s %8s\n", pf.c_str(), fmt(g.asDouble(), 3).c_str());
    rule(40);
    std::printf("Paper: Bandit vs Stride +6%%, Bingo +4.0%%, "
                "MLOP +2.4%%, Pythia -1.0%%\n");
    for (const auto &[pf, delta] : body["banditVsPct"].members())
        std::printf("Measured: Bandit vs %-7s %+5.1f%%\n", pf.c_str(),
                    delta.asDouble());
    return sweep.finish();
}
