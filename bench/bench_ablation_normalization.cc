/**
 * Ablation: reward normalization (Section 4.3, first modification).
 *
 * Without normalizing rewards by the post-round-robin average r_avg,
 * the fixed exploration constant c makes the agent explore far more
 * in low-IPC workloads than high-IPC ones. This bench runs DUCB with
 * and without normalization and reports per-app arm-switch counts
 * (exploration churn) and the IPC geomean.
 */
#include "common.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(800'000);
    const auto tune = tuneSetPrefetch();

    // Each task returns the run IPC plus the arm-switch count read
    // from the controller it owned.
    struct Point
    {
        double ipc = 0.0;
        double switches = 0.0;
    };
    const std::vector<Point> runs = sweepMap<Point>(
        jobs, 2 * tune.size(), [&](size_t i) {
            BanditPrefetchConfig cfg;
            cfg.hw.stepUnits = 125; // scaled (DESIGN.md 4b)
            cfg.mab.c = 0.2;
            cfg.mab.gamma = 0.99;
            cfg.mab.normalizeRewards = i < tune.size();
            cfg.hw.recordHistory = true;
            BanditPrefetchController pf(cfg);
            Point p;
            p.ipc = runPrefetch(tune[i % tune.size()], pf, instr).ipc;
            p.switches =
                static_cast<double>(pf.agent().history().size());
            return p;
        });

    std::printf("Ablation: DUCB reward normalization "
                "(%zu tune traces)\n", tune.size());
    std::printf("%-8s %14s %14s %16s\n", "", "gmean IPC",
                "switches/low", "switches/high");
    rule(56);

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
        std::printf("%-8s %14s %14.1f %16.1f\n",
                    normalize ? "norm" : "no-norm", fmt(gmean(ipcs),
                    3).c_str(),
                    switches_low / std::max(n_low, 1),
                    switches_high / std::max(n_high, 1));
    }
    rule(56);
    std::printf("Expected: without normalization, low-IPC apps see "
                "disproportionately more arm switching.\n");
    return 0;
}
