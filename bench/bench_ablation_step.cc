/**
 * Ablation: bandit step duration (Table 6: 1000 L2 demand accesses).
 *
 * Short steps give noisy IPC rewards; long steps adapt slowly and pay
 * more for trying bad arms. The sweep shows the tuned value in the
 * sweet spot.
 */
#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "ablation_step");
    const uint64_t instr = sweep.scaled(800'000);
    auto tune = tuneSetPrefetch();
    tune.resize(20);

    const std::vector<uint64_t> steps = {125, 250, 500,
                                         1000, 2000, 4000};

    // The paper's Table 6 agent at every step duration.
    const json::Value machine =
        describe(CoreConfig{}, HierarchyConfig{}, DramConfig{});
    std::vector<double> ipcs(steps.size() * tune.size());
    std::vector<Cell> cells;
    for (uint64_t step : steps) {
        BanditPrefetchConfig cfg;
        cfg.hw.stepUnits = step;
        for (const AppProfile &app : tune) {
            cells.push_back({streamKey(app, instr),
                             config(machine, {describe(cfg)}),
                             [=, ipc = &ipcs[cells.size()]] {
                                 BanditPrefetchController pf(cfg);
                                 *ipc = runPrefetch(app, pf, instr).ipc;
                             }});
        }
    }
    sweep.run(std::move(cells));

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["traces"] = static_cast<uint64_t>(tune.size());
    for (size_t s = 0; s < steps.size(); ++s) {
        const std::vector<double> row(
            ipcs.begin() + static_cast<long>(s * tune.size()),
            ipcs.begin() + static_cast<long>((s + 1) * tune.size()));
        json::Value point = json::Value::object();
        point["stepUnits"] = steps[s];
        point["gmeanIpc"] = gmean(row);
        body["gmeanIpc"].push(std::move(point));
    }

    std::printf("Ablation: bandit step duration (L2 demand accesses), "
                "gmean IPC over %zu tune traces\n",
                static_cast<size_t>(body["traces"].asUint()));
    rule(36);
    for (const json::Value &point : body["gmeanIpc"].items()) {
        std::printf("step %5llu   gmean IPC %s\n",
                    static_cast<unsigned long long>(
                        point.find("stepUnits")->asUint()),
                    fmt(point.find("gmeanIpc")->asDouble(), 3).c_str());
    }
    rule(36);
    std::printf("Table 6 value: 1000 L2 accesses.\n");
    return sweep.finish();
}
