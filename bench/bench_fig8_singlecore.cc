/**
 * Figure 8: single-core performance of state-of-the-art L2 prefetchers.
 *
 * For every workload of every suite, runs the Stride baseline, Bingo,
 * MLOP, Pythia and the Micro-Armed Bandit, and reports the per-suite
 * geometric-mean IPC normalized to a system with no L2 prefetcher —
 * the series of the paper's Figure 8 — plus the headline pairwise
 * geomean deltas quoted in Section 7.2.1.
 */
#include <map>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig8_singlecore");
    const uint64_t instr = sweep.scaled(1'000'000);
    const auto pf_names = comparisonPrefetchers();
    const auto workloads = allWorkloads();

    // Task grid: the no-prefetch base plus every comparison
    // prefetcher, per workload.
    std::vector<PfTask> grid;
    for (const auto &spec : workloads) {
        grid.push_back({spec.app, "None", instr});
        for (const auto &pf : pf_names)
            grid.push_back({spec.app, pf, instr});
    }
    std::vector<PfRun> runs;
    sweep.run(pfCells(grid, &runs));

    // speedups[pf][suite] -> per-app normalized IPCs.
    std::map<std::string, std::map<std::string, std::vector<double>>>
        speedups;
    json::Value apps = json::Value::array();
    size_t g = 0;
    for (const auto &spec : workloads) {
        const PfRun &base = runs[g++];
        for (const auto &pf : pf_names) {
            const PfRun &r = runs[g++];
            speedups[pf][spec.suite].push_back(r.ipc / base.ipc);

            apps.push(obj({{"app", spec.app.name},
                           {"suite", spec.suite},
                           {"prefetcher", pf},
                           {"ipc", r.ipc},
                           {"speedup", r.ipc / base.ipc},
                           {"llcDemandMisses", r.llcDemandMisses},
                           {"pfIssued", r.pf.issued},
                           {"pfTimely", r.pf.timely},
                           {"pfLate", r.pf.late},
                           {"pfWrong", r.pf.wrong}}));
        }
    }

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    json::Value &gm = body["gmeanSpeedup"];
    for (const auto &pf : pf_names) {
        std::vector<double> all;
        for (const auto &suite : allSuites()) {
            const auto &v = speedups[pf][suite];
            gm[pf][suite] = gmean(v);
            all.insert(all.end(), v.begin(), v.end());
        }
        gm[pf]["ALL"] = gmean(all);
    }

    std::printf("Figure 8: geomean IPC normalized to no L2 prefetching"
                " (%llu instrs/trace)\n",
                static_cast<unsigned long long>(instr));
    std::printf("%-10s", "");
    for (const auto &suite : allSuites())
        std::printf("%12s", suite.c_str());
    std::printf("%12s\n", "ALL");
    rule(82);
    for (const auto &[pf, per_suite] : gm.members()) {
        std::printf("%-10s", pf.c_str());
        for (const auto &[suite, v] : per_suite.members())
            std::printf("%12s", fmt(v.asDouble(), 3).c_str());
        std::printf("\n");
    }
    rule(82);
    std::printf("Paper (Sec 7.2.1): Bandit vs Stride +9%%, "
                "Bingo +2.6%%, MLOP +2.3%%, Pythia +0.2%%\n");
    for (const auto &pf : {"Stride", "Bingo", "MLOP", "Pythia"}) {
        std::printf("Measured:  Bandit vs %-7s %+5.1f%%\n", pf,
                    100.0 * (num(gm["Bandit"], "ALL") / num(gm[pf], "ALL") -
                             1.0));
    }
    body["runs"] = std::move(apps);
    return sweep.finish();
}
