/**
 * Figure 13: Bandit vs Choi across the full set of 2-thread SPEC17
 * mixes (226 in the paper). Prints the sorted IPC-ratio series (the
 * S-curve), the counts of mixes beyond +/-4%, and the geomean
 * speedups over Choi and over plain ICount.
 *
 * Paper: Bandit > Choi by >4% in 36 mixes (up to +36%), < -4% in only
 * 6; +2.2% geomean over Choi, +7% over ICount.
 */
#include <algorithm>

#include "common.h"
#include "smt/smt_sim.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    SmtRunConfig run_cfg;
    run_cfg.maxCycles = scaled(1'000'000);

    const auto mixes = smtMixes(226);

    // One task per mix; the three regime runs of a mix share the
    // task's simulator, in the original order.
    struct MixResult
    {
        double choi = 0.0;
        double icount = 0.0;
        double bandit = 0.0;
    };
    const std::vector<MixResult> results = sweepMap<MixResult>(
        jobs, mixes.size(), [&](size_t i) {
            const auto &[a, b] = mixes[i];
            SmtSimulator sim(a, b, run_cfg);
            MixResult r;
            r.choi = sim.runStatic(choiPolicy()).ipcSum;
            r.icount = sim.runStatic(icountPolicy()).ipcSum;
            r.bandit = sim.runBandit().ipcSum;
            return r;
        });

    std::vector<std::pair<double, std::string>> ratios;
    std::vector<double> vs_choi, vs_icount;
    for (size_t i = 0; i < mixes.size(); ++i) {
        const auto &[a, b] = mixes[i];
        const MixResult &r = results[i];
        ratios.emplace_back(r.bandit / r.choi, a + "-" + b);
        vs_choi.push_back(r.bandit / r.choi);
        vs_icount.push_back(r.bandit / r.icount);
    }

    std::sort(ratios.begin(), ratios.end());

    std::printf("Figure 13: Bandit IPC / Choi IPC, %zu mixes "
                "(sorted; every 8th point of the S-curve)\n",
                ratios.size());
    rule(56);
    for (size_t i = 0; i < ratios.size(); i += 8) {
        std::printf("%4zu  %6.3f  %s\n", i, ratios[i].first,
                    ratios[i].second.c_str());
    }
    std::printf("%4zu  %6.3f  %s\n", ratios.size() - 1,
                ratios.back().first, ratios.back().second.c_str());
    rule(56);

    const auto above = static_cast<int>(std::count_if(
        vs_choi.begin(), vs_choi.end(),
        [](double r) { return r > 1.04; }));
    const auto below = static_cast<int>(std::count_if(
        vs_choi.begin(), vs_choi.end(),
        [](double r) { return r < 0.96; }));
    std::printf("Bandit > Choi by >4%% in %d mixes (max %+.1f%%); "
                "Choi > Bandit by >4%% in %d mixes (min %+.1f%%)\n",
                above, 100.0 * (maxOf(vs_choi) - 1.0), below,
                100.0 * (minOf(vs_choi) - 1.0));
    std::printf("geomean: Bandit vs Choi %+.1f%%, vs ICount %+.1f%%\n",
                100.0 * (gmean(vs_choi) - 1.0),
                100.0 * (gmean(vs_icount) - 1.0));
    std::printf("Paper: 36 mixes >+4%% (max +36%%), 6 mixes <-4%%; "
                "+2.2%% vs Choi, +7%% vs ICount.\n");
    return 0;
}
