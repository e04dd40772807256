/**
 * Ablation: probabilistic round-robin restart (Section 4.3, second
 * modification). In 4-core runs, concurrent bandits can mis-attribute
 * interference-induced IPC drops to the arm under test and get
 * trapped; restarting the round-robin phase with a small probability
 * (Table 6: 0.001) lets each core re-evaluate all arms. Single-core
 * runs should be insensitive to the knob.
 */
#include <memory>

#include "common.h"
#include "cpu/multicore.h"

using namespace mab;
using namespace mab::bench;

namespace {

double
runFourCore(const AppProfile &app, double restart_prob, uint64_t instr)
{
    DramConfig dram;
    dram.mtps = 4800; // dual channel, as in the Figure 14 runs
    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, dram, 4);
    std::vector<std::unique_ptr<SyntheticTrace>> traces;
    std::vector<std::unique_ptr<BanditPrefetchController>> pfs;
    for (int c = 0; c < 4; ++c) {
        AppProfile per_core = app;
        per_core.seed = app.seed + static_cast<uint64_t>(c) * 911;
        traces.push_back(std::make_unique<SyntheticTrace>(per_core));
        BanditPrefetchConfig cfg;
        cfg.mab.seed = per_core.seed;
        cfg.hw.stepUnits = 125;
        cfg.mab.c = 0.2;
        cfg.mab.gamma = 0.99;
        cfg.mab.rrRestartProb = restart_prob;
        pfs.push_back(
            std::make_unique<BanditPrefetchController>(cfg));
        sys.attachCore(c, *traces.back(), pfs.back().get());
    }
    return sys.run(instr).sumIpc;
}

} // namespace

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(400'000);
    const std::vector<std::string> apps = {
        "lbm06", "bwaves06", "fotonik17", "milc06", "roms17",
        "ligra_pagerank", "parsec_streamcluster", "cactusADM06",
    };

    // Tasks: (app x {restart off, restart on}), interleaved per app.
    const std::vector<double> sums = sweepMap<double>(
        jobs, 2 * apps.size(), [&](size_t i) {
            return runFourCore(appByName(apps[i / 2]),
                               i % 2 == 0 ? 0.0 : 0.01, instr);
        });

    std::printf("Ablation: rr_restart_prob in 4-core homogeneous "
                "mixes (IPC sum)\n");
    std::printf("%-22s %10s %10s %10s\n", "app", "p=0", "p=0.01",
                "delta");
    rule(56);
    std::vector<double> off, on;
    for (size_t i = 0; i < apps.size(); ++i) {
        const double a = sums[2 * i];
        const double b = sums[2 * i + 1];
        off.push_back(a);
        on.push_back(b);
        std::printf("%-22s %10s %10s %+9.1f%%\n", apps[i].c_str(),
                    fmt(a, 3).c_str(), fmt(b, 3).c_str(),
                    100.0 * (b / a - 1.0));
    }
    rule(56);
    std::printf("gmean: off %s, on %s (%+.1f%%)\n",
                fmt(gmean(off), 3).c_str(), fmt(gmean(on), 3).c_str(),
                100.0 * (gmean(on) / gmean(off) - 1.0));
    return 0;
}
