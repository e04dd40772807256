/**
 * Figure 9: single-core LLC misses and prefetches classified into
 * timely, late and wrong — everything normalized to the LLC misses of
 * the no-prefetching system.
 *
 * The paper's reading: Bandit is a conservative prefetcher — it cuts
 * wrong prefetches by ~66%/58% vs Bingo/MLOP while covering almost as
 * many misses as Pythia, and BanditIdeal (no selection latency) is
 * nearly identical to Bandit, showing the 500-cycle arm-selection
 * latency does not hurt timeliness.
 */
#include <map>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig9_timeliness");
    const uint64_t instr = sweep.scaled(1'000'000);
    std::vector<std::string> configs = comparisonPrefetchers();
    configs.push_back("BanditIdeal");
    const auto workloads = allWorkloads();

    std::vector<PfTask> grid;
    for (const auto &spec : workloads) {
        grid.push_back({spec.app, "None", instr});
        for (const auto &pf : configs)
            grid.push_back({spec.app, pf, instr});
    }
    const size_t per_app = 1 + configs.size();
    std::vector<PfRun> runs;
    sweep.run(pfCells(grid, &runs));

    struct Acc
    {
        double llcMiss = 0, timely = 0, late = 0, wrong = 0;
        int n = 0;
    };
    std::map<std::string, Acc> acc;

    for (size_t w = 0; w < workloads.size(); ++w) {
        const PfRun &base = runs[w * per_app];
        const double denom =
            std::max<double>(static_cast<double>(base.llcDemandMisses),
                             1.0);
        for (size_t c = 0; c < configs.size(); ++c) {
            const PfRun &r = runs[w * per_app + 1 + c];
            Acc &a = acc[configs[c]];
            a.llcMiss += static_cast<double>(r.llcDemandMisses) / denom;
            a.timely += static_cast<double>(r.pf.timely) / denom;
            a.late += static_cast<double>(r.pf.late) / denom;
            a.wrong += static_cast<double>(r.pf.wrong) / denom;
            ++a.n;
        }
    }

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    json::Value &table = body["normalizedOutcomes"];
    for (const auto &pf : configs) {
        const Acc &a = acc[pf];
        const double n = std::max(a.n, 1);
        table[pf] = obj({{"llcMiss", a.llcMiss / n}, {"timely", a.timely / n},
                         {"late", a.late / n}, {"wrong", a.wrong / n},
                         {"apps", a.n}});
    }

    std::printf("Figure 9: LLC misses and prefetch outcomes, "
                "normalized to no-prefetch LLC misses (avg/app)\n");
    std::printf("%-12s %10s %10s %10s %10s %12s\n", "prefetcher",
                "LLCmiss", "timely", "late", "wrong",
                "miss-coverage");
    rule(70);
    for (const auto &[pf, row] : table.members()) {
        // Coverage: fraction of baseline misses now served by timely
        // prefetches.
        std::printf("%-12s %10.3f %10.3f %10.3f %10.3f %11.1f%%\n",
                    pf.c_str(), num(row, "llcMiss"), num(row, "timely"),
                    num(row, "late"), num(row, "wrong"),
                    100.0 * num(row, "timely"));
    }
    rule(70);
    std::printf("Paper: timely coverage Stride 49%%, Bingo 69%%, "
                "MLOP 63%%, Pythia 72%%, Bandit 67%%;\n"
                "       Bandit wrong prefetches -66%% vs Bingo, "
                "-58%% vs MLOP; BanditIdeal ~= Bandit.\n");
    return sweep.finish();
}
