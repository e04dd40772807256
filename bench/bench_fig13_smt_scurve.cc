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

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig13_smt_scurve");
    SmtRunConfig run_cfg;
    run_cfg.maxCycles = sweep.scaled(1'000'000);

    const auto mixes = smtMixes(226);
    json::Value what = config(describe(SmtConfig{}, run_cfg),
                              {describe(SmtBanditConfig{})});
    what["policies"] = describe({choiPolicy(), icountPolicy()});

    // One cell per mix; the three regime runs of a mix share the
    // cell's simulator, in the original order.
    struct MixResult
    {
        double choi = 0.0;
        double icount = 0.0;
        double bandit = 0.0;
    };
    std::vector<MixResult> results(mixes.size());
    std::vector<Cell> cells;
    for (size_t i = 0; i < mixes.size(); ++i) {
        cells.push_back({"", what, [&, i] {
                             const auto &[a, b] = mixes[i];
                             SmtSimulator sim(a, b, run_cfg);
                             MixResult &r = results[i];
                             r.choi = sim.runStatic(choiPolicy()).ipcSum;
                             r.icount =
                                 sim.runStatic(icountPolicy()).ipcSum;
                             r.bandit = sim.runBandit().ipcSum;
                         }});
    }
    sweep.run(std::move(cells));

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

    json::Value &body = sweep.body();
    body["maxCycles"] = run_cfg.maxCycles;
    json::Value scurve = json::Value::array();
    for (const auto &[ratio, mix] : ratios) {
        json::Value point = json::Value::object();
        point["mix"] = mix;
        point["ratio"] = ratio;
        scurve.push(std::move(point));
    }
    body["scurve"] = std::move(scurve);
    body["mixesAbove4Pct"] = static_cast<int>(std::count_if(
        vs_choi.begin(), vs_choi.end(), [](double r) { return r > 1.04; }));
    body["maxPct"] = 100.0 * (maxOf(vs_choi) - 1.0);
    body["mixesBelow4Pct"] = static_cast<int>(std::count_if(
        vs_choi.begin(), vs_choi.end(), [](double r) { return r < 0.96; }));
    body["minPct"] = 100.0 * (minOf(vs_choi) - 1.0);
    body["gmeanVsChoiPct"] = 100.0 * (gmean(vs_choi) - 1.0);
    body["gmeanVsIcountPct"] = 100.0 * (gmean(vs_icount) - 1.0);

    const std::vector<json::Value> &points = body["scurve"].items();
    const auto print_point = [&](size_t i) {
        std::printf("%4zu  %6.3f  %s\n", i,
                    points[i].find("ratio")->asDouble(),
                    points[i].find("mix")->asString().c_str());
    };
    std::printf("Figure 13: Bandit IPC / Choi IPC, %zu mixes "
                "(sorted; every 8th point of the S-curve)\n",
                points.size());
    rule(56);
    for (size_t i = 0; i < points.size(); i += 8)
        print_point(i);
    print_point(points.size() - 1);
    rule(56);
    std::printf("Bandit > Choi by >4%% in %d mixes (max %+.1f%%); "
                "Choi > Bandit by >4%% in %d mixes (min %+.1f%%)\n",
                static_cast<int>(body["mixesAbove4Pct"].asInt()),
                body["maxPct"].asDouble(),
                static_cast<int>(body["mixesBelow4Pct"].asInt()),
                body["minPct"].asDouble());
    std::printf("geomean: Bandit vs Choi %+.1f%%, vs ICount %+.1f%%\n",
                body["gmeanVsChoiPct"].asDouble(),
                body["gmeanVsIcountPct"].asDouble());
    std::printf("Paper: 36 mixes >+4%% (max +36%%), 6 mixes <-4%%; "
                "+2.2%% vs Choi, +7%% vs ICount.\n");
    return sweep.finish();
}
