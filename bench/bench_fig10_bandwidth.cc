/**
 * Figure 10: Pythia vs Bandit across available DRAM bandwidths
 * (150 / 600 / 2400 / 9600 MTPS), geomean IPC normalized to
 * no-prefetching at the same bandwidth.
 *
 * The paper's key result: Bandit matches Pythia everywhere and beats
 * it by ~2.5% at the most constrained point (150 MTPS), because its
 * IPC reward makes it learn that aggressive arms do not pay when the
 * bus is saturated — without any explicit bandwidth input.
 */
#include <map>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig10_bandwidth");
    const uint64_t instr = sweep.scaled(1'200'000);
    const std::vector<double> mtps_list = {150, 600, 2400, 9600};
    const std::vector<std::string> pfs = {"Pythia", "Bandit"};
    const auto workloads = allWorkloads();

    // One grid over (bandwidth x workload x prefetcher incl. base).
    // Every cell of one workload consumes the same record stream
    // regardless of bandwidth; the sweep's claim order runs its 12
    // points together, so the stream is not regenerated per bandwidth
    // once the arena is full.
    std::vector<PfTask> grid;
    for (double mtps : mtps_list) {
        DramConfig dram;
        dram.mtps = mtps;
        for (const auto &spec : workloads) {
            grid.push_back({spec.app, "None", instr, {}, dram});
            for (const auto &pf : pfs)
                grid.push_back({spec.app, pf, instr, {}, dram});
        }
    }
    std::vector<PfRun> runs;
    sweep.run(pfCells(grid, &runs));

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    json::Value points = json::Value::array();
    size_t g = 0;
    for (double mtps : mtps_list) {
        std::map<std::string, std::vector<double>> speedups;
        for (size_t w = 0; w < workloads.size(); ++w) {
            const PfRun &base = runs[g++];
            for (const auto &pf : pfs)
                speedups[pf].push_back(runs[g++].ipc / base.ipc);
        }
        json::Value point = json::Value::object();
        point["mtps"] = mtps;
        const double pyt = gmean(speedups["Pythia"]);
        const double ban = gmean(speedups["Bandit"]);
        point["Pythia"] = pyt;
        point["Bandit"] = ban;
        point["banditVsPythiaPct"] = 100.0 * (ban / pyt - 1.0);
        points.push(std::move(point));
    }
    body["gmeanSpeedup"] = std::move(points);

    std::printf("Figure 10: geomean IPC vs available DRAM bandwidth "
                "(normalized to no-prefetch at same bandwidth)\n");
    std::printf("%-10s", "MTPS");
    for (const auto &pf : pfs)
        std::printf("%10s", pf.c_str());
    std::printf("%12s\n", "Bandit/Pyt");
    rule(42);
    for (const json::Value &point : body["gmeanSpeedup"].items()) {
        const auto at = [&](const char *k) {
            return point.find(k)->asDouble();
        };
        std::printf("%-10s%10s%10s%11.1f%%\n", fmt(at("mtps"), 0).c_str(),
                    fmt(at("Pythia"), 3).c_str(),
                    fmt(at("Bandit"), 3).c_str(), at("banditVsPythiaPct"));
    }
    rule(42);
    std::printf("Paper: Bandit ~= Pythia at all points; +2.5%% at "
                "150 MTPS.\n");
    return sweep.finish();
}
