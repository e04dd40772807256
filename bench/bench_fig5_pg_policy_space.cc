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
    run_cfg.maxCycles = scaled(350'000);

    const auto mixes = smtMixes(43, 10);
    const auto policies = allPgPolicies();

    // One task per mix: the Choi reference plus the 64-policy scan,
    // on the task's own simulator.
    struct MixResult
    {
        double choi = 0.0;
        double best = -1e9;
        double worst = 1e9;
        PgPolicy bestPolicy;
    };
    const std::vector<MixResult> results = sweepMap<MixResult>(
        jobs, mixes.size(), [&](size_t i) {
            const auto &[a, b] = mixes[i];
            SmtSimulator sim(a, b, run_cfg);
            MixResult r;
            r.choi = sim.runStatic(choiPolicy()).ipcSum;
            for (const auto &policy : policies) {
                const double ipc = sim.runStatic(policy).ipcSum;
                if (ipc > r.best) {
                    r.best = ipc;
                    r.bestPolicy = policy;
                }
                r.worst = std::min(r.worst, ipc);
            }
            return r;
        });

    std::printf("Figure 5: best/worst fetch PG policy vs Choi "
                "(IC_1011), %zu tune mixes x %zu policies\n",
                mixes.size(), policies.size());
    std::printf("%-24s %9s %9s  %s\n", "mix", "best%", "worst%",
                "best policy");
    rule(64);

    double sum_best = 0.0, sum_worst = 0.0;
    int lsq_best_count = 0;
    for (size_t i = 0; i < mixes.size(); ++i) {
        const auto &[a, b] = mixes[i];
        const MixResult &r = results[i];
        const double best_pct = 100.0 * (r.best / r.choi - 1.0);
        const double worst_pct = 100.0 * (r.worst / r.choi - 1.0);
        sum_best += best_pct;
        sum_worst += worst_pct;
        if (r.bestPolicy.priority == FetchPriority::LSQC ||
            r.bestPolicy.gateLsq) {
            ++lsq_best_count;
        }
        std::printf("%-24s %8.1f%% %8.1f%%  %s\n",
                    (a + "-" + b).c_str(), best_pct, worst_pct,
                    r.bestPolicy.name().c_str());
    }

    rule(64);
    std::printf("avg best %+.1f%%, avg worst %+.1f%%; LSQ-aware best "
                "policy in %d/%zu mixes\n",
                sum_best / static_cast<double>(mixes.size()),
                sum_worst / static_cast<double>(mixes.size()),
                lsq_best_count, mixes.size());
    std::printf("Paper: best policies differ per mix; worst can be "
                ">40%% below Choi; lbm mixes gain 13-30%% from "
                "LSQ-aware policies.\n");
    return 0;
}
