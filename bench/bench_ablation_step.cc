/**
 * Ablation: bandit step duration (Table 6: 1000 L2 demand accesses).
 *
 * Short steps give noisy IPC rewards; long steps adapt slowly and pay
 * more for trying bad arms. The sweep shows the tuned value in the
 * sweet spot.
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
    auto tune = tuneSetPrefetch();
    tune.resize(20);

    const std::vector<uint64_t> steps = {125, 250, 500,
                                         1000, 2000, 4000};

    const std::vector<double> ipcs = sweepMap<double>(
        jobs, steps.size() * tune.size(), [&](size_t i) {
            BanditPrefetchConfig cfg;
            cfg.hw.stepUnits = steps[i / tune.size()];
            BanditPrefetchController pf(cfg);
            return runPrefetch(tune[i % tune.size()], pf, instr).ipc;
        });

    std::printf("Ablation: bandit step duration (L2 demand accesses), "
                "gmean IPC over %zu tune traces\n", tune.size());
    rule(36);
    for (size_t s = 0; s < steps.size(); ++s) {
        const std::vector<double> row(
            ipcs.begin() + static_cast<long>(s * tune.size()),
            ipcs.begin() + static_cast<long>((s + 1) * tune.size()));
        std::printf("step %5llu   gmean IPC %s\n",
                    static_cast<unsigned long long>(steps[s]),
                    fmt(gmean(row), 3).c_str());
    }
    rule(36);
    std::printf("Table 6 value: 1000 L2 accesses.\n");
    return 0;
}
