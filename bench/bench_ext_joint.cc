/**
 * Extension study (Section 9): a single Bandit controlling multiple
 * ensembles — the joint L1+L2 agent whose action space is the product
 * of the per-level spaces (3 x 11 = 33 arms) — against the paper's
 * Figure 12 combination of independent prefetchers (stride at L1 +
 * Bandit at L2).
 */
#include <map>

#include "common.h"
#include "cpu/joint_bandit.h"

using namespace mab;
using namespace mab::bench;

namespace {

double
runJoint(const AppProfile &app, uint64_t instr)
{
    MabConfig mab;
    mab.numArms = JointBanditController::numArms();
    mab.seed = app.seed;
    mab.c = 0.2;
    mab.gamma = 0.99;
    BanditHwConfig hw;
    hw.stepUnits = 125;

    JointBanditController ctrl(MabAlgorithm::Ducb, mab, hw);
    const auto trace = makeRunSource(app, instr);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace,
                   ctrl.l2View(), ctrl.l1View());
    core.run(instr);
    return core.ipc();
}

double
runSplit(const AppProfile &app, uint64_t instr)
{
    const auto trace = makeRunSource(app, instr);
    auto l1 = makePrefetcher("Stride", app.seed);
    auto l2 = makePrefetcher("Bandit", app.seed);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, l2.get(),
                   l1.get());
    core.run(instr);
    return core.ipc();
}

} // namespace

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(1'000'000);
    const auto workloads = allWorkloads();

    // Three independent runs per workload: base, joint, split.
    const std::vector<double> ipcs = sweepMap<double>(
        jobs, 3 * workloads.size(), [&](size_t i) {
            const AppProfile &app = workloads[i / 3].app;
            switch (i % 3) {
            case 0:
                return runPrefetchNamed(app, "None", instr).ipc;
            case 1:
                return runJoint(app, instr);
            default:
                return runSplit(app, instr);
            }
        });

    std::vector<double> joint, split;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = ipcs[3 * w];
        joint.push_back(ipcs[3 * w + 1] / base);
        split.push_back(ipcs[3 * w + 2] / base);
    }

    std::printf("Extension study: joint L1+L2 Bandit (33 arms) vs "
                "independent Stride_Bandit (Figure 12 combo)\n");
    rule(56);
    std::printf("Stride_Bandit (independent)  %8s\n",
                fmt(gmean(split), 3).c_str());
    std::printf("JointBandit   (33-arm)       %8s   (%+.1f%%)\n",
                fmt(gmean(joint), 3).c_str(),
                100.0 * (gmean(joint) / gmean(split) - 1.0));
    rule(56);
    std::printf("The joint agent explores a 3x larger action space; "
                "Section 9 predicts it needs longer episodes to pay "
                "off.\n");
    return 0;
}
