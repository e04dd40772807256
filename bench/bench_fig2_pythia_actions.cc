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

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig2_pythia_actions");
    const uint64_t instr = sweep.scaled(1'000'000);

    std::vector<AppProfile> apps;
    for (const auto &suite : {"SPEC06", "SPEC17"}) {
        for (const auto &spec : suiteWorkloads(suite))
            apps.push_back(spec.app);
    }

    // One cell per app: run Pythia and summarize its action counts.
    struct TopActions
    {
        double p1 = 0.0;
        double p2 = 0.0;
        int top1 = 0;
    };
    std::vector<TopActions> results(apps.size());
    std::vector<Cell> cells;
    for (size_t i = 0; i < apps.size(); ++i) {
        PythiaConfig cfg;
        cfg.seed = apps[i].seed;
        cells.push_back(
            {streamKey(apps[i], instr),
             config(describe(CoreConfig{}, HierarchyConfig{}, DramConfig{}),
                    {describe(cfg, true)}),
             [&, i, cfg] {
                 PythiaPrefetcher pythia(cfg);
                 runPrefetch(apps[i], pythia, instr);

                 auto counts = pythia.actionCounts();
                 const uint64_t total =
                     std::accumulate(counts.begin(), counts.end(), 0ull);
                 const auto top1_it =
                     std::max_element(counts.begin(), counts.end());
                 TopActions &t = results[i];
                 t.top1 = static_cast<int>(top1_it - counts.begin());
                 const uint64_t c1 = *top1_it;
                 *top1_it = 0;
                 const uint64_t c2 =
                     *std::max_element(counts.begin(), counts.end());
                 t.p1 = 100.0 * static_cast<double>(c1) /
                     static_cast<double>(std::max<uint64_t>(total, 1));
                 t.p2 = 100.0 * static_cast<double>(c2) /
                     static_cast<double>(std::max<uint64_t>(total, 1));
             }});
    }
    sweep.run(std::move(cells));

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    json::Value rows = json::Value::array();
    std::vector<double> top1s, top2s;
    std::vector<int> top_actions;
    for (size_t i = 0; i < apps.size(); ++i) {
        const TopActions &t = results[i];
        top1s.push_back(t.p1);
        top2s.push_back(t.p2);
        top_actions.push_back(t.top1);
        json::Value row = json::Value::object();
        row["app"] = apps[i].name;
        row["top1Pct"] = t.p1;
        row["top2Pct"] = t.p2;
        row["sumPct"] = t.p1 + t.p2;
        row["topAction"] = t.top1;
        row["offset"] = PythiaPrefetcher::offsets()[t.top1 >> 2];
        row["degree"] = PythiaPrefetcher::degrees()[t.top1 & 3];
        rows.push(std::move(row));
    }
    body["apps"] = std::move(rows);
    std::sort(top_actions.begin(), top_actions.end());
    json::Value &avg = body["average"];
    avg["top1Pct"] = mean(top1s);
    avg["top2Pct"] = mean(top2s);
    avg["sumPct"] = mean(top1s) + mean(top2s);
    avg["distinctTopActions"] = static_cast<int>(
        std::unique(top_actions.begin(), top_actions.end()) -
        top_actions.begin());
    avg["apps"] = static_cast<uint64_t>(top1s.size());

    std::printf("Figure 2: top-2 Pythia action selection frequency "
                "(SPEC traces)\n");
    std::printf("%-16s %8s %8s %8s  %s\n", "app", "top1%", "top2%",
                "sum%", "top action (offset,degree)");
    rule(72);
    for (const json::Value &row : body["apps"].items()) {
        const auto at = [&](const char *k) { return row.find(k); };
        std::printf("%-16s %7.1f%% %7.1f%% %7.1f%%  a%d "
                    "(off=%d, deg=%d)\n",
                    at("app")->asString().c_str(),
                    at("top1Pct")->asDouble(), at("top2Pct")->asDouble(),
                    at("sumPct")->asDouble(),
                    static_cast<int>(at("topAction")->asInt()),
                    static_cast<int>(at("offset")->asInt()),
                    static_cast<int>(at("degree")->asInt()));
    }
    rule(72);
    std::printf("average: top1 %.1f%%, top2 %.1f%%, top1+top2 %.1f%% "
                "(%d distinct top actions across %zu apps)\n",
                avg["top1Pct"].asDouble(), avg["top2Pct"].asDouble(),
                avg["sumPct"].asDouble(),
                static_cast<int>(avg["distinctTopActions"].asInt()),
                static_cast<size_t>(avg["apps"].asUint()));
    std::printf("Paper: top1 ~60%%, top2 ~15%% (3%% of the action "
                "space covers 75%% of selections)\n");
    return sweep.finish();
}
