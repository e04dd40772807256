/**
 * Figure 12: multi-level prefetching — combinations of an L1
 * prefetcher with different L2 prefetchers, against the multi-level
 * IPCP prefetcher. Geomean IPC normalized to a system with no L1 or
 * L2 prefetcher.
 *
 * Paper numbers: Stride_Stride +16%, IPCP +24.5%, Stride_Pythia
 * +24.8%, Stride_Bandit +24.5% — Bandit at L2 with a simple stride at
 * L1 is an excellent option.
 */
#include <map>

#include "common.h"

using namespace mab;
using namespace mab::bench;

namespace {

struct Combo
{
    std::string name;
    std::string l1;
    std::string l2;
};

double
runCombo(const AppProfile &app, const Combo &combo, uint64_t instr)
{
    const auto trace = makeRunSource(app, instr);
    auto l1 = combo.l1.empty() ? nullptr
                               : makePrefetcher(combo.l1, app.seed);
    auto l2 = makePrefetcher(combo.l2, app.seed);
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
    const uint64_t instr = scaled(800'000);
    const std::vector<Combo> combos = {
        {"Stride_Stride", "Stride", "Stride"},
        {"IPCP", "IPCP", "IPCP"},
        {"Stride_Pythia", "Stride", "Pythia"},
        {"Stride_Bandit", "Stride", "Bandit"},
    };

    const auto workloads = allWorkloads();
    const Combo base_combo{"None", "", "None"};
    const size_t per_app = 1 + combos.size();
    const std::vector<double> ipcs = sweepMap<double>(
        jobs, workloads.size() * per_app, [&](size_t i) {
            const size_t c = i % per_app;
            return runCombo(workloads[i / per_app].app,
                            c == 0 ? base_combo : combos[c - 1],
                            instr);
        });

    std::map<std::string, std::vector<double>> speedups;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = ipcs[w * per_app];
        for (size_t c = 0; c < combos.size(); ++c) {
            speedups[combos[c].name].push_back(
                ipcs[w * per_app + 1 + c] / base);
        }
    }

    std::printf("Figure 12: multi-level prefetching, geomean IPC "
                "normalized to no L1/L2 prefetcher\n");
    rule(44);
    for (const auto &combo : combos) {
        std::printf("%-16s %8s  (+%4.1f%%)\n", combo.name.c_str(),
                    fmt(gmean(speedups[combo.name]), 3).c_str(),
                    100.0 * (gmean(speedups[combo.name]) - 1.0));
    }
    rule(44);
    std::printf("Paper: Stride_Stride +16%%, IPCP +24.5%%, "
                "Stride_Pythia +24.8%%, Stride_Bandit +24.5%%\n");
    return 0;
}
