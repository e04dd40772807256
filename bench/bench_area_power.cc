/**
 * Section 6.5 / Section 5.4: area, power and storage accounting of
 * the Micro-Armed Bandit agent, including the relative overhead on a
 * 40-core Icelake-class server (die 628 mm^2, TDP 270W) and the
 * storage comparison against prior prefetchers.
 *
 * Also exercises google-benchmark to measure the software cost of an
 * arm selection (the operation the paper budgets 500 hardware cycles
 * for).
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "core/bandit_agent.h"
#include "core/ducb.h"
#include "power/power_model.h"

using namespace mab;

static void
BM_DucbSelectObserve(benchmark::State &state)
{
    MabConfig cfg;
    cfg.numArms = static_cast<int>(state.range(0));
    Ducb policy(cfg);
    double r = 0.5;
    for (auto _ : state) {
        const ArmId arm = policy.selectArm();
        benchmark::DoNotOptimize(arm);
        r = r * 0.999 + 0.001;
        policy.observeReward(r);
    }
}
BENCHMARK(BM_DucbSelectObserve)->Arg(6)->Arg(11)->Arg(64);

int
main(int argc, char **argv)
{
    const BanditAreaPower ap = banditAreaPower();
    const RelativeOverhead rel = relativeOverhead();
    const StorageComparison st = storageComparison();

    std::printf("Section 6.5: Bandit agent area/power at 10nm\n");
    std::printf("  area  = %.5f mm^2   (paper: 0.00044 mm^2)\n",
                ap.areaMm2);
    std::printf("  power = %.3f mW     (paper: 0.11 mW)\n",
                ap.powerMw);
    std::printf("  40-core Icelake overhead: area %.4f%%, power "
                "%.4f%% (paper: < 0.003%%)\n",
                rel.areaPercent, rel.powerPercent);

    std::printf("\nSection 5.4 / 7.2.1: storage comparison\n");
    std::printf("  Bandit agent (11 arms x 8B): %lu B (paper: "
                "< 100B)\n", st.banditAgent);
    std::printf("  Bandit + NL/stream/stride:   %lu B (paper: "
                "< 2KB)\n", st.banditTotal);
    std::printf("  Pythia: %lu B   MLOP: %lu B   Bingo: %lu B\n",
                st.pythia, st.mlop, st.bingo);

    std::printf("\nArm-selection software cost (paper hardware "
                "budget: 500 cycles):\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
