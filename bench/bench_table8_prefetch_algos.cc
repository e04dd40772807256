/**
 * Table 8: min / max / geometric-mean IPC of heuristic and bandit
 * algorithms as a percentage of the best-static-arm IPC, on the
 * prefetching tune set (46 SPEC traces).
 *
 * "Best static" exhaustively runs each of the 11 arms of Table 7 for
 * the whole trace and keeps the best per application. The paper's
 * headline: DUCB attains the best gmean (~99.1%) and min (~95%), and
 * its max exceeds 100% thanks to phase adaptivity; Single has the
 * worst min; Pythia tops the max column.
 */
#include <map>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "table8_prefetch_algos");
    const uint64_t instr = sweep.scaled(1'500'000);
    const auto tune = tuneSetPrefetch();

    const std::vector<std::string> algos = {
        "Pythia",         "Bandit:Single", "Bandit:Periodic",
        "Bandit:eGreedy", "Bandit:UCB",    "Bandit:DUCB",
    };
    const std::vector<std::string> labels = {
        "Pythia", "Single", "Periodic", "eGreedy", "UCB", "DUCB",
    };

    // Per app: the 11 static-arm runs of Table 7 plus the 6
    // algorithms.
    const size_t num_arms =
        static_cast<size_t>(BanditEnsemblePrefetcher::numArms());
    const size_t per_app = num_arms + algos.size();
    std::vector<PfTask> grid;
    for (const AppProfile &app : tune) {
        for (size_t arm = 0; arm < num_arms; ++arm)
            grid.push_back({app, "Arm:" + std::to_string(arm), instr});
        for (const auto &algo : algos)
            grid.push_back({app, algo, instr});
    }
    std::vector<PfRun> runs;
    sweep.run(pfCells(grid, &runs));

    std::map<std::string, std::vector<double>> ratios;
    for (size_t a = 0; a < tune.size(); ++a) {
        const size_t off = a * per_app;
        double best_static = 0.0;
        for (size_t arm = 0; arm < num_arms; ++arm)
            best_static = std::max(best_static, runs[off + arm].ipc);
        for (size_t i = 0; i < algos.size(); ++i)
            ratios[labels[i]].push_back(runs[off + num_arms + i].ipc /
                                        best_static);
    }

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["traces"] = static_cast<uint64_t>(tune.size());
    body["pctOfBestStatic"] = pctOfBestStatic(labels, ratios);

    std::printf("Table 8: IPC as %% of best static arm "
                "(prefetching tune set, %zu traces)\n", tune.size());
    printPctOfBestStatic(body["pctOfBestStatic"]);
    std::printf("Paper:  min  88.7 / 72.8 / 80.3 / 89.8 / 88.6 / 95.0\n"
                "        max 102.5 /100.0 / 99.8 / 99.9 /100.0 /101.6\n"
                "        gm   98.4 / 96.5 / 94.1 / 97.3 / 98.8 / 99.1\n");
    return sweep.finish();
}
