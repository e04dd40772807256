/**
 * Figure 5: the fetch PG policy design space. For each 2-threaded
 * tune mix, runs all 64 fetch Priority & Gating policies and reports
 * the best- and worst-performing policy's IPC change relative to the
 * Choi policy (IC_1011), labeling the best policy — the motivation
 * experiment for the SMT use case (Section 3.3).
 *
 * Expected shape: different mixes prefer different policies; picking
 * badly can cost tens of percent; lbm-heavy mixes favor LSQ-aware
 * policies (LSQC_* priority or *1** gating masks).
 */
#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig5_pg_policy_space");
    SmtRunConfig run_cfg;
    run_cfg.maxCycles = sweep.scaled(350'000);

    const auto mixes = smtMixes(43, 10);
    const auto policies = allPgPolicies();
    std::vector<PgPolicy> statics = {choiPolicy()};
    statics.insert(statics.end(), policies.begin(), policies.end());
    json::Value what = config(describe(SmtConfig{}, run_cfg), {});
    what["policies"] = describe(statics);

    // One cell per mix: the Choi reference plus the 64-policy scan,
    // on the cell's own simulator.
    struct MixResult
    {
        double choi = 0.0;
        double best = -1e9;
        double worst = 1e9;
        PgPolicy bestPolicy;
    };
    std::vector<MixResult> results(mixes.size());
    std::vector<Cell> cells;
    for (size_t i = 0; i < mixes.size(); ++i) {
        cells.push_back({"", what, [&, i] {
                             const auto &[a, b] = mixes[i];
                             SmtSimulator sim(a, b, run_cfg);
                             MixResult &r = results[i];
                             r.choi = sim.runStatic(choiPolicy()).ipcSum;
                             for (const auto &policy : policies) {
                                 const double ipc =
                                     sim.runStatic(policy).ipcSum;
                                 if (ipc > r.best) {
                                     r.best = ipc;
                                     r.bestPolicy = policy;
                                 }
                                 r.worst = std::min(r.worst, ipc);
                             }
                         }});
    }
    sweep.run(std::move(cells));

    json::Value &body = sweep.body();
    body["maxCycles"] = run_cfg.maxCycles;
    body["policies"] = static_cast<uint64_t>(policies.size());
    json::Value rows = json::Value::array();
    double sum_best = 0.0, sum_worst = 0.0;
    int lsq_best_count = 0;
    for (size_t i = 0; i < mixes.size(); ++i) {
        const auto &[a, b] = mixes[i];
        const MixResult &r = results[i];
        json::Value row = json::Value::object();
        row["mix"] = a + "-" + b;
        row["bestPct"] = 100.0 * (r.best / r.choi - 1.0);
        row["worstPct"] = 100.0 * (r.worst / r.choi - 1.0);
        row["bestPolicy"] = r.bestPolicy.name();
        sum_best += row["bestPct"].asDouble();
        sum_worst += row["worstPct"].asDouble();
        if (r.bestPolicy.priority == FetchPriority::LSQC ||
            r.bestPolicy.gateLsq) {
            ++lsq_best_count;
        }
        rows.push(std::move(row));
    }
    body["mixes"] = std::move(rows);
    body["avgBestPct"] = sum_best / static_cast<double>(mixes.size());
    body["avgWorstPct"] = sum_worst / static_cast<double>(mixes.size());
    body["lsqAwareBest"] = lsq_best_count;

    const std::vector<json::Value> &mix_rows = body["mixes"].items();
    std::printf("Figure 5: best/worst fetch PG policy vs Choi "
                "(IC_1011), %zu tune mixes x %zu policies\n",
                mix_rows.size(),
                static_cast<size_t>(body["policies"].asUint()));
    std::printf("%-24s %9s %9s  %s\n", "mix", "best%", "worst%",
                "best policy");
    rule(64);
    for (const json::Value &row : mix_rows) {
        std::printf("%-24s %8.1f%% %8.1f%%  %s\n",
                    row.find("mix")->asString().c_str(),
                    row.find("bestPct")->asDouble(),
                    row.find("worstPct")->asDouble(),
                    row.find("bestPolicy")->asString().c_str());
    }
    rule(64);
    std::printf("avg best %+.1f%%, avg worst %+.1f%%; LSQ-aware best "
                "policy in %d/%zu mixes\n",
                body["avgBestPct"].asDouble(),
                body["avgWorstPct"].asDouble(),
                static_cast<int>(body["lsqAwareBest"].asInt()),
                mix_rows.size());
    std::printf("Paper: best policies differ per mix; worst can be "
                ">40%% below Choi; lbm mixes gain 13-30%% from "
                "LSQ-aware policies.\n");
    return sweep.finish();
}
