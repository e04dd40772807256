/**
 * Ablation: DUCB hyperparameter sensitivity (gamma and c, Table 6).
 *
 * Sweeps the forgetting factor and the exploration constant on a
 * subset of the tune set. The paper notes (Section 9) that different
 * values work best for different applications; the tuned defaults
 * (gamma = 0.999, c = 0.04) should sit at or near the best geomean.
 */
#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "ablation_hparams");
    const uint64_t instr = sweep.scaled(600'000);
    auto tune = tuneSetPrefetch();
    tune.resize(16); // subset keeps the sweep affordable

    const std::vector<double> gammas = {0.9, 0.99, 0.999, 1.0};
    const std::vector<double> cs = {0.01, 0.04, 0.16};

    // One cell per (gamma, c, app) point of the sweep.
    const json::Value machine =
        describe(CoreConfig{}, HierarchyConfig{}, DramConfig{});
    std::vector<double> ipcs(gammas.size() * cs.size() * tune.size());
    std::vector<Cell> cells;
    for (double gamma : gammas) {
        for (double c : cs) {
            BanditPrefetchConfig cfg = benchBanditConfig();
            cfg.mab.gamma = gamma;
            cfg.mab.c = c;
            for (const AppProfile &app : tune) {
                cells.push_back({streamKey(app, instr),
                                 config(machine, {describe(cfg)}),
                                 [=, ipc = &ipcs[cells.size()]] {
                                     BanditPrefetchController pf(cfg);
                                     *ipc = runPrefetch(app, pf, instr).ipc;
                                 }});
            }
        }
    }
    sweep.run(std::move(cells));

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["traces"] = static_cast<uint64_t>(tune.size());
    json::Value rows = json::Value::array();
    for (size_t gi = 0; gi < gammas.size(); ++gi) {
        json::Value row = json::Value::object();
        row["gamma"] = gammas[gi];
        for (size_t ci = 0; ci < cs.size(); ++ci) {
            const auto begin = ipcs.begin() +
                static_cast<long>((gi * cs.size() + ci) * tune.size());
            const std::vector<double> cell(
                begin, begin + static_cast<long>(tune.size()));
            json::Value point = json::Value::object();
            point["c"] = cs[ci];
            point["gmeanIpc"] = gmean(cell);
            row["byC"].push(std::move(point));
        }
        rows.push(std::move(row));
    }
    body["gmeanIpc"] = std::move(rows);

    const std::vector<json::Value> &grid = body["gmeanIpc"].items();
    std::printf("Ablation: DUCB gamma x c sweep, gmean IPC over %zu "
                "tune traces\n",
                static_cast<size_t>(body["traces"].asUint()));
    std::printf("%-8s", "gamma\\c");
    for (const json::Value &point : grid.front().find("byC")->items())
        std::printf("%10.2f", point.find("c")->asDouble());
    std::printf("\n");
    rule(40);
    for (const json::Value &row : grid) {
        std::printf("%-8.3f", row.find("gamma")->asDouble());
        for (const json::Value &point : row.find("byC")->items())
            std::printf("%10s",
                        fmt(point.find("gmeanIpc")->asDouble(), 3).c_str());
        std::printf("\n");
    }
    rule(40);
    std::printf("Table 6 defaults: gamma=0.999, c=0.04 "
                "(gamma=1.0 degenerates DUCB into UCB).\n");
    return sweep.finish();
}
