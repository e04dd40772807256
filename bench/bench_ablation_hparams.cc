/**
 * Ablation: DUCB hyperparameter sensitivity (gamma and c, Table 6).
 *
 * Sweeps the forgetting factor and the exploration constant on a
 * subset of the tune set. The paper notes (Section 9) that different
 * values work best for different applications; the tuned defaults
 * (gamma = 0.999, c = 0.04) should sit at or near the best geomean.
 */
#include "common.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(600'000);
    auto tune = tuneSetPrefetch();
    tune.resize(16); // subset keeps the sweep affordable

    const std::vector<double> gammas = {0.9, 0.99, 0.999, 1.0};
    const std::vector<double> cs = {0.01, 0.04, 0.16};

    // One task per (gamma, c, app) point of the sweep.
    const size_t per_cell = tune.size();
    const size_t per_row = cs.size() * per_cell;
    const std::vector<double> ipcs = sweepMap<double>(
        jobs, gammas.size() * per_row, [&](size_t i) {
            BanditPrefetchConfig cfg;
            cfg.hw.stepUnits = 125; // scaled (DESIGN.md 4b)
            cfg.mab.gamma = gammas[i / per_row];
            cfg.mab.c = cs[(i % per_row) / per_cell];
            BanditPrefetchController pf(cfg);
            return runPrefetch(tune[i % per_cell], pf, instr).ipc;
        });

    std::printf("Ablation: DUCB gamma x c sweep, gmean IPC over %zu "
                "tune traces\n", tune.size());
    std::printf("%-8s", "gamma\\c");
    for (double c : cs)
        std::printf("%10.2f", c);
    std::printf("\n");
    rule(40);

    for (size_t gi = 0; gi < gammas.size(); ++gi) {
        std::printf("%-8.3f", gammas[gi]);
        for (size_t ci = 0; ci < cs.size(); ++ci) {
            const auto begin = ipcs.begin() +
                static_cast<long>(gi * per_row + ci * per_cell);
            const std::vector<double> cell(
                begin, begin + static_cast<long>(per_cell));
            std::printf("%10s", fmt(gmean(cell), 3).c_str());
        }
        std::printf("\n");
    }
    rule(40);
    std::printf("Table 6 defaults: gamma=0.999, c=0.04 "
                "(gamma=1.0 degenerates DUCB into UCB).\n");
    return 0;
}
