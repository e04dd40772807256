/**
 * Figure 2: frequency of the top-2 most selected Pythia actions in
 * SPEC applications — the temporal-homogeneity motivation experiment.
 *
 * The paper finds that, on average, the most selected action accounts
 * for ~60% of all selections and the top-2 for ~75%, with a different
 * top action per application.
 */
#include <algorithm>
#include <numeric>

#include "common.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(1'000'000);

    std::vector<AppProfile> apps;
    for (const auto &suite : {"SPEC06", "SPEC17"}) {
        for (const auto &spec : suiteWorkloads(suite))
            apps.push_back(spec.app);
    }

    // One task per app: run Pythia and summarize its action counts.
    struct TopActions
    {
        double p1 = 0.0;
        double p2 = 0.0;
        int top1 = 0;
    };
    const std::vector<TopActions> results = sweepMap<TopActions>(
        jobs, apps.size(), [&](size_t i) {
            PythiaConfig cfg;
            cfg.seed = apps[i].seed;
            PythiaPrefetcher pythia(cfg);
            runPrefetch(apps[i], pythia, instr);

            auto counts = pythia.actionCounts();
            const uint64_t total =
                std::accumulate(counts.begin(), counts.end(), 0ull);
            const auto top1_it =
                std::max_element(counts.begin(), counts.end());
            TopActions t;
            t.top1 = static_cast<int>(top1_it - counts.begin());
            const uint64_t c1 = *top1_it;
            *top1_it = 0;
            const uint64_t c2 =
                *std::max_element(counts.begin(), counts.end());
            t.p1 = 100.0 * static_cast<double>(c1) /
                static_cast<double>(std::max<uint64_t>(total, 1));
            t.p2 = 100.0 * static_cast<double>(c2) /
                static_cast<double>(std::max<uint64_t>(total, 1));
            return t;
        });

    std::printf("Figure 2: top-2 Pythia action selection frequency "
                "(SPEC traces)\n");
    std::printf("%-16s %8s %8s %8s  %s\n", "app", "top1%", "top2%",
                "sum%", "top action (offset,degree)");
    rule(72);

    std::vector<double> top1s, top2s;
    std::vector<int> top_actions;
    for (size_t i = 0; i < apps.size(); ++i) {
        const TopActions &t = results[i];
        top1s.push_back(t.p1);
        top2s.push_back(t.p2);
        top_actions.push_back(t.top1);
        std::printf("%-16s %7.1f%% %7.1f%% %7.1f%%  a%d "
                    "(off=%d, deg=%d)\n",
                    apps[i].name.c_str(), t.p1, t.p2, t.p1 + t.p2,
                    t.top1,
                    PythiaPrefetcher::offsets()[t.top1 >> 2],
                    PythiaPrefetcher::degrees()[t.top1 & 3]);
    }

    rule(72);
    const int distinct = [&] {
        auto v = top_actions;
        std::sort(v.begin(), v.end());
        return static_cast<int>(
            std::unique(v.begin(), v.end()) - v.begin());
    }();
    std::printf("average: top1 %.1f%%, top2 %.1f%%, top1+top2 %.1f%% "
                "(%d distinct top actions across %zu apps)\n",
                mean(top1s), mean(top2s), mean(top1s) + mean(top2s),
                distinct, top1s.size());
    std::printf("Paper: top1 ~60%%, top2 ~15%% (3%% of the action "
                "space covers 75%% of selections)\n");
    return 0;
}
