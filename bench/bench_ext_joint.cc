/**
 * Extension study (Section 9): a single Bandit controlling multiple
 * ensembles — the joint L1+L2 agent whose action space is the product
 * of the per-level spaces (3 x 11 = 33 arms) — against the paper's
 * Figure 12 combination of independent prefetchers (stride at L1 +
 * Bandit at L2).
 */
#include "cpu/joint_bandit.h"
#include "sweep.h"

using namespace mab;
using namespace mab::bench;

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "ext_joint");
    const uint64_t instr = sweep.scaled(1'000'000);
    const auto workloads = allWorkloads();

    // The joint agent: the bench-tuned DUCB over the 3 x 11 product
    // space of the L1 and L2 ensembles.
    const auto joint_config = [](uint64_t seed) {
        BanditPrefetchConfig cfg = benchBanditConfig(seed);
        cfg.mab.numArms = JointBanditController::numArms();
        return cfg;
    };
    json::Value joint_agent = describe(joint_config(1));
    joint_agent["kind"] = "jointBandit";
    json::Value stride = describePrefetcher("Stride", false);
    stride["level"] = "L1";
    json::Value bandit = describePrefetcher("Bandit", false);
    bandit["level"] = "L2";
    const json::Value machine =
        describe(CoreConfig{}, HierarchyConfig{}, DramConfig{});

    // Three independent runs per workload: base, joint, split.
    std::vector<double> ipcs(3 * workloads.size());
    std::vector<Cell> cells;
    for (const auto &spec : workloads) {
        const AppProfile &app = spec.app;
        cells.push_back({streamKey(app, instr),
                         config(machine, {describePrefetcher("None", true)}),
                         [=, ipc = &ipcs[cells.size()]] {
                             const auto pf = makePrefetcher("None", app.seed);
                             *ipc = runPrefetch(app, *pf, instr).ipc;
                         }});
        cells.push_back({streamKey(app, instr),
                         config(machine, {joint_agent}),
                         [=, ipc = &ipcs[cells.size()]] {
                             const BanditPrefetchConfig cfg =
                                 joint_config(app.seed);
                             JointBanditController ctrl(MabAlgorithm::Ducb,
                                                        cfg.mab, cfg.hw);
                             *ipc = runTwoLevel(app, instr, ctrl.l2View(),
                                                ctrl.l1View());
                         }});
        cells.push_back({streamKey(app, instr),
                         config(machine, {stride, bandit}),
                         [=, ipc = &ipcs[cells.size()]] {
                             auto l1 = makePrefetcher("Stride", app.seed);
                             auto l2 = makePrefetcher("Bandit", app.seed);
                             *ipc = runTwoLevel(app, instr, l2.get(),
                                                l1.get());
                         }});
    }
    sweep.run(std::move(cells));

    std::vector<double> joint, split;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = ipcs[3 * w];
        joint.push_back(ipcs[3 * w + 1] / base);
        split.push_back(ipcs[3 * w + 2] / base);
    }
    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["gmeanSpeedup"]["Stride_Bandit"] = gmean(split);
    body["gmeanSpeedup"]["JointBandit"] = gmean(joint);
    body["jointVsSplitPct"] = 100.0 * (gmean(joint) / gmean(split) - 1.0);

    json::Value &gm = body["gmeanSpeedup"];
    std::printf("Extension study: joint L1+L2 Bandit (33 arms) vs "
                "independent Stride_Bandit (Figure 12 combo)\n");
    rule(56);
    std::printf("Stride_Bandit (independent)  %8s\n",
                fmt(gm["Stride_Bandit"].asDouble(), 3).c_str());
    std::printf("JointBandit   (33-arm)       %8s   (%+.1f%%)\n",
                fmt(gm["JointBandit"].asDouble(), 3).c_str(),
                body["jointVsSplitPct"].asDouble());
    rule(56);
    std::printf("The joint agent explores a 3x larger action space; "
                "Section 9 predicts it needs longer episodes to pay "
                "off.\n");
    return sweep.finish();
}
