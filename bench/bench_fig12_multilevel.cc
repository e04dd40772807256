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

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

namespace {

struct Combo
{
    std::string name;
    std::string l1;
    std::string l2;
};

/** A combination's prefetchers; the run offers no system probes, so
 *  Pythia's bandwidth-aware reward never sees the DRAM bus. */
std::vector<json::Value>
describeCombo(const Combo &combo)
{
    std::vector<json::Value> agents;
    for (const auto &[level, name] :
         {std::pair{"L1", combo.l1}, std::pair{"L2", combo.l2}}) {
        if (name.empty())
            continue;
        agents.push_back(describePrefetcher(name, false));
        agents.back()["level"] = level;
    }
    return agents;
}

} // namespace

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig12_multilevel");
    const uint64_t instr = sweep.scaled(800'000);
    const std::vector<Combo> combos = {
        {"None", "", "None"},
        {"Stride_Stride", "Stride", "Stride"},
        {"IPCP", "IPCP", "IPCP"},
        {"Stride_Pythia", "Stride", "Pythia"},
        {"Stride_Bandit", "Stride", "Bandit"},
    };

    // Per workload: the no-prefetch base, then every combination.
    const auto workloads = allWorkloads();
    std::vector<double> ipcs(workloads.size() * combos.size());
    std::vector<Cell> cells;
    for (size_t w = 0; w < workloads.size(); ++w) {
        for (size_t c = 0; c < combos.size(); ++c) {
            cells.push_back(
                {streamKey(workloads[w].app, instr),
                 config(describe(CoreConfig{}, HierarchyConfig{},
                                 DramConfig{}),
                        describeCombo(combos[c])),
                 [&, w, c] {
                     const AppProfile &app = workloads[w].app;
                     const Combo &combo = combos[c];
                     auto l1 = combo.l1.empty()
                         ? nullptr
                         : makePrefetcher(combo.l1, app.seed);
                     auto l2 = makePrefetcher(combo.l2, app.seed);
                     ipcs[w * combos.size() + c] =
                         runTwoLevel(app, instr, l2.get(), l1.get());
                 }});
        }
    }
    sweep.run(std::move(cells));

    std::map<std::string, std::vector<double>> speedups;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = ipcs[w * combos.size()];
        for (size_t c = 1; c < combos.size(); ++c) {
            speedups[combos[c].name].push_back(
                ipcs[w * combos.size() + c] / base);
        }
    }

    json::Value gm = json::Value::object();
    json::Value gain = json::Value::object();
    for (size_t c = 1; c < combos.size(); ++c) {
        const double g = gmean(speedups[combos[c].name]);
        gm[combos[c].name] = g;
        gain[combos[c].name] = 100.0 * (g - 1.0);
    }
    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["gmeanSpeedup"] = std::move(gm);
    body["gainPct"] = std::move(gain);

    std::printf("Figure 12: multi-level prefetching, geomean IPC "
                "normalized to no L1/L2 prefetcher\n");
    rule(44);
    for (const auto &[name, g] : body["gmeanSpeedup"].members()) {
        std::printf("%-16s %8s  (+%4.1f%%)\n", name.c_str(),
                    fmt(g.asDouble(), 3).c_str(),
                    body["gainPct"][name].asDouble());
    }
    rule(44);
    std::printf("Paper: Stride_Stride +16%%, IPCP +24.5%%, "
                "Stride_Pythia +24.8%%, Stride_Bandit +24.5%%\n");
    return sweep.finish();
}
