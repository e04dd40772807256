/**
 * Ablation: reward normalization (Section 4.3, first modification).
 *
 * Without normalizing rewards by the post-round-robin average r_avg,
 * the fixed exploration constant c makes the agent explore far more
 * in low-IPC workloads than high-IPC ones. This bench runs DUCB with
 * and without normalization and reports per-app arm-switch counts
 * (exploration churn) and the IPC geomean.
 */
#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "ablation_normalization");
    const uint64_t instr = sweep.scaled(800'000);
    const auto tune = tuneSetPrefetch();

    // Each cell records the run IPC plus the arm-switch count read
    // from the controller it owned: every tune trace with
    // normalization, then every one without.
    struct Point
    {
        double ipc = 0.0;
        double switches = 0.0;
    };
    const json::Value machine =
        describe(CoreConfig{}, HierarchyConfig{}, DramConfig{});
    std::vector<Point> runs(2 * tune.size());
    std::vector<Cell> cells;
    for (bool normalize : {true, false}) {
        BanditPrefetchConfig cfg = benchBanditConfig();
        cfg.mab.normalizeRewards = normalize;
        cfg.hw.recordHistory = true;
        for (const AppProfile &app : tune) {
            cells.push_back(
                {streamKey(app, instr), config(machine, {describe(cfg)}),
                 [=, p = &runs[cells.size()]] {
                     BanditPrefetchController pf(cfg);
                     p->ipc = runPrefetch(app, pf, instr).ipc;
                     p->switches = static_cast<double>(
                         pf.agent().history().size());
                 }});
        }
    }
    sweep.run(std::move(cells));

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["traces"] = static_cast<uint64_t>(tune.size());
    for (bool normalize : {true, false}) {
        const size_t off = normalize ? 0 : tune.size();
        std::vector<double> ipcs;
        double switches_low = 0.0, switches_high = 0.0;
        int n_low = 0, n_high = 0;
        for (size_t a = 0; a < tune.size(); ++a) {
            const Point &p = runs[off + a];
            ipcs.push_back(p.ipc);
            // Split by IPC to expose the exploration imbalance.
            if (p.ipc < 1.0) {
                switches_low += p.switches;
                ++n_low;
            } else {
                switches_high += p.switches;
                ++n_high;
            }
        }
        json::Value row = json::Value::object();
        row["normalize"] = normalize;
        row["gmeanIpc"] = gmean(ipcs);
        row["switchesLowIpc"] = switches_low / std::max(n_low, 1);
        row["switchesHighIpc"] = switches_high / std::max(n_high, 1);
        body["rows"].push(std::move(row));
    }

    std::printf("Ablation: DUCB reward normalization "
                "(%zu tune traces)\n",
                static_cast<size_t>(body["traces"].asUint()));
    std::printf("%-8s %14s %14s %16s\n", "", "gmean IPC",
                "switches/low", "switches/high");
    rule(56);
    for (const json::Value &row : body["rows"].items()) {
        std::printf("%-8s %14s %14.1f %16.1f\n",
                    row.find("normalize")->asBool() ? "norm" : "no-norm",
                    fmt(row.find("gmeanIpc")->asDouble(), 3).c_str(),
                    row.find("switchesLowIpc")->asDouble(),
                    row.find("switchesHighIpc")->asDouble());
    }
    rule(56);
    std::printf("Expected: without normalization, low-IPC apps see "
                "disproportionately more arm switching.\n");
    return sweep.finish();
}
