/**
 * Figure 11: single-core prefetcher comparison on the alternative
 * cache hierarchy (L2 = 1MB, LLC = 1.5MB/core), with no retuning of
 * any prefetcher — the robustness check of Section 7.2.2.
 */
#include <map>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig11_altcache");
    const uint64_t instr = sweep.scaled(1'000'000);
    const HierarchyConfig hier = skylakeLikeAltConfig();
    const auto pf_names = comparisonPrefetchers();
    const auto workloads = allWorkloads();

    std::vector<PfTask> grid;
    for (const auto &spec : workloads) {
        grid.push_back({spec.app, "None", instr, hier});
        for (const auto &pf : pf_names)
            grid.push_back({spec.app, pf, instr, hier});
    }
    std::vector<PfRun> runs;
    sweep.run(pfCells(grid, &runs));

    std::map<std::string, std::vector<double>> speedups;
    size_t g = 0;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const PfRun &base = runs[g++];
        for (const auto &pf : pf_names)
            speedups[pf].push_back(runs[g++].ipc / base.ipc);
    }

    json::Value gm = json::Value::object();
    for (const auto &pf : pf_names)
        gm[pf] = gmean(speedups[pf]);
    json::Value vs = json::Value::object();
    for (const auto &pf : {"Stride", "Bingo", "MLOP", "Pythia"})
        vs[pf] = 100.0 * (gm["Bandit"].asDouble() / gm[pf].asDouble() -
                          1.0);
    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["gmeanSpeedup"] = std::move(gm);
    body["banditVsPct"] = std::move(vs);

    std::printf("Figure 11: geomean IPC normalized to no prefetching, "
                "alt hierarchy (L2=1MB, LLC=1.5MB/core)\n");
    rule(40);
    for (const auto &[pf, g_pf] : body["gmeanSpeedup"].members())
        std::printf("%-10s %8s\n", pf.c_str(),
                    fmt(g_pf.asDouble(), 3).c_str());
    rule(40);
    std::printf("Paper: Bandit vs Stride +9%%, Bingo +1.5%%, "
                "MLOP +4.9%%, Pythia +0.2%%\n");
    for (const auto &[pf, delta] : body["banditVsPct"].members())
        std::printf("Measured: Bandit vs %-7s %+5.1f%%\n", pf.c_str(),
                    delta.asDouble());
    return sweep.finish();
}
