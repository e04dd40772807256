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

#include "common.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(1'000'000);
    const auto pf_names = comparisonPrefetchers();
    const auto workloads = allWorkloads();

    // Task grid: the no-prefetch base plus every comparison
    // prefetcher, per workload.
    std::vector<PfTask> grid;
    for (size_t w = 0; w < workloads.size(); ++w) {
        grid.push_back({workloads[w].app, "None", instr, {}, {}, 0, {}});
        for (const auto &pf : pf_names)
            grid.push_back({workloads[w].app, pf, instr, {}, {}, 0, {}});
    }
    const std::vector<PfRun> runs = sweepPrefetchRuns(jobs, grid);

    // speedups[pf][suite] -> per-app normalized IPCs.
    std::map<std::string, std::map<std::string, std::vector<double>>>
        speedups;

    json::Value apps = json::Value::array();
    size_t g = 0;
    for (const auto &spec : workloads) {
        const PfRun base = runs[g++];
        for (const auto &pf : pf_names) {
            const PfRun r = runs[g++];
            speedups[pf][spec.suite].push_back(r.ipc / base.ipc);

            json::Value row = json::Value::object();
            row["app"] = spec.app.name;
            row["suite"] = spec.suite;
            row["prefetcher"] = pf;
            row["ipc"] = r.ipc;
            row["speedup"] = r.ipc / base.ipc;
            row["llcDemandMisses"] = r.llcDemandMisses;
            row["pfIssued"] = r.pf.issued;
            row["pfTimely"] = r.pf.timely;
            row["pfLate"] = r.pf.late;
            row["pfWrong"] = r.pf.wrong;
            apps.push(std::move(row));
        }
    }

    std::printf("Figure 8: geomean IPC normalized to no L2 prefetching"
                " (%llu instrs/trace)\n",
                static_cast<unsigned long long>(instr));
    std::printf("%-10s", "");
    for (const auto &suite : allSuites())
        std::printf("%12s", suite.c_str());
    std::printf("%12s\n", "ALL");
    rule(82);

    std::map<std::string, double> overall;
    for (const auto &pf : pf_names) {
        std::printf("%-10s", pf.c_str());
        std::vector<double> all;
        for (const auto &suite : allSuites()) {
            const auto &v = speedups[pf][suite];
            std::printf("%12s", fmt(gmean(v), 3).c_str());
            all.insert(all.end(), v.begin(), v.end());
        }
        overall[pf] = gmean(all);
        std::printf("%12s\n", fmt(overall[pf], 3).c_str());
    }

    rule(82);
    std::printf("Paper (Sec 7.2.1): Bandit vs Stride +9%%, "
                "Bingo +2.6%%, MLOP +2.3%%, Pythia +0.2%%\n");
    for (const auto &pf : {"Stride", "Bingo", "MLOP", "Pythia"}) {
        const double delta =
            100.0 * (overall["Bandit"] / overall[pf] - 1.0);
        std::printf("Measured:  Bandit vs %-7s %+5.1f%%\n", pf, delta);
    }

    json::Value root = json::Value::object();
    root["bench"] = "fig8_singlecore";
    root["instructions"] = instr;
    root["scale"] = benchScale();
    json::Value gm = json::Value::object();
    for (const auto &pf : pf_names) {
        json::Value per_suite = json::Value::object();
        for (const auto &suite : allSuites())
            per_suite[suite] = gmean(speedups[pf][suite]);
        per_suite["ALL"] = overall[pf];
        gm[pf] = std::move(per_suite);
    }
    root["gmeanSpeedup"] = std::move(gm);
    root["runs"] = std::move(apps);
    return writeJsonReport(root, argc, argv) ? 0 : 1;
}
