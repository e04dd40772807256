/**
 * Figure 11: single-core prefetcher comparison on the alternative
 * cache hierarchy (L2 = 1MB, LLC = 1.5MB/core), with no retuning of
 * any prefetcher — the robustness check of Section 7.2.2.
 */
#include <map>

#include "common.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(1'000'000);
    const HierarchyConfig hier = skylakeLikeAltConfig();
    const auto pf_names = comparisonPrefetchers();
    const auto workloads = allWorkloads();

    std::vector<PfTask> grid;
    for (size_t w = 0; w < workloads.size(); ++w) {
        grid.push_back(
            {workloads[w].app, "None", instr, hier, {}, 0, {}});
        for (const auto &pf : pf_names)
            grid.push_back(
                {workloads[w].app, pf, instr, hier, {}, 0, {}});
    }
    const std::vector<PfRun> runs = sweepPrefetchRuns(jobs, grid);

    std::map<std::string, std::vector<double>> speedups;
    size_t g = 0;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const PfRun base = runs[g++];
        for (const auto &pf : pf_names)
            speedups[pf].push_back(runs[g++].ipc / base.ipc);
    }

    std::printf("Figure 11: geomean IPC normalized to no prefetching, "
                "alt hierarchy (L2=1MB, LLC=1.5MB/core)\n");
    rule(40);
    std::map<std::string, double> overall;
    for (const auto &pf : pf_names) {
        overall[pf] = gmean(speedups[pf]);
        std::printf("%-10s %8s\n", pf.c_str(),
                    fmt(overall[pf], 3).c_str());
    }
    rule(40);
    std::printf("Paper: Bandit vs Stride +9%%, Bingo +1.5%%, "
                "MLOP +4.9%%, Pythia +0.2%%\n");
    for (const auto &pf : {"Stride", "Bingo", "MLOP", "Pythia"}) {
        std::printf("Measured: Bandit vs %-7s %+5.1f%%\n", pf,
                    100.0 * (overall["Bandit"] / overall[pf] - 1.0));
    }
    return 0;
}
