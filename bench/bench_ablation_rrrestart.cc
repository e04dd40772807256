/**
 * Ablation: probabilistic round-robin restart (Section 4.3, second
 * modification). In 4-core runs, concurrent bandits can mis-attribute
 * interference-induced IPC drops to the arm under test and get
 * trapped; restarting the round-robin phase with a small probability
 * (Table 6: 0.001) lets each core re-evaluate all arms. Single-core
 * runs should be insensitive to the knob.
 */
#include <memory>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "ablation_rrrestart");
    const uint64_t instr = sweep.scaled(400'000);
    const std::vector<std::string> apps = {
        "lbm06", "bwaves06", "fotonik17", "milc06", "roms17",
        "ligra_pagerank", "parsec_streamcluster", "cactusADM06",
    };
    const std::vector<double> probs = {0.0, 0.01};

    // Cells: (app x {restart off, restart on}), interleaved per app,
    // a Bandit agent on every core of the 4-core system.
    const json::Value machine = describe(CoreConfig{}, HierarchyConfig{},
                                         fourCoreDram(), kFourCores);
    std::vector<double> sums(apps.size() * probs.size());
    std::vector<Cell> cells;
    for (const std::string &app : apps) {
        for (double prob : probs) {
            BanditPrefetchConfig cfg = benchBanditConfig();
            cfg.mab.rrRestartProb = prob;
            cells.push_back(
                {"", config(machine, {describe(cfg)}),
                 [=, sum = &sums[cells.size()]] {
                     *sum = runFourCore(
                         appByName(app), instr,
                         [&](uint64_t seed) -> std::unique_ptr<Prefetcher> {
                             BanditPrefetchConfig core_cfg = cfg;
                             core_cfg.mab.seed = seed;
                             return std::make_unique<
                                 BanditPrefetchController>(core_cfg);
                         });
                 }});
        }
    }
    sweep.run(std::move(cells));

    json::Value &body = sweep.body();
    body["instructionsPerCore"] = instr;
    std::vector<double> off, on;
    for (size_t i = 0; i < apps.size(); ++i) {
        const double a = sums[2 * i];
        const double b = sums[2 * i + 1];
        off.push_back(a);
        on.push_back(b);
        json::Value row = json::Value::object();
        row["app"] = apps[i];
        row["ipcSumOff"] = a;
        row["ipcSumOn"] = b;
        row["deltaPct"] = 100.0 * (b / a - 1.0);
        body["apps"].push(std::move(row));
    }
    body["gmeanOff"] = gmean(off);
    body["gmeanOn"] = gmean(on);
    body["gmeanDeltaPct"] = 100.0 * (gmean(on) / gmean(off) - 1.0);

    std::printf("Ablation: rr_restart_prob in 4-core homogeneous "
                "mixes (IPC sum)\n");
    std::printf("%-22s %10s %10s %10s\n", "app", "p=0", "p=0.01",
                "delta");
    rule(56);
    for (const json::Value &row : body["apps"].items()) {
        std::printf("%-22s %10s %10s %+9.1f%%\n",
                    row.find("app")->asString().c_str(),
                    fmt(row.find("ipcSumOff")->asDouble(), 3).c_str(),
                    fmt(row.find("ipcSumOn")->asDouble(), 3).c_str(),
                    row.find("deltaPct")->asDouble());
    }
    rule(56);
    std::printf("gmean: off %s, on %s (%+.1f%%)\n",
                fmt(body["gmeanOff"].asDouble(), 3).c_str(),
                fmt(body["gmeanOn"].asDouble(), 3).c_str(),
                body["gmeanDeltaPct"].asDouble());
    return sweep.finish();
}
