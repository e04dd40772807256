/**
 * Figure 15: rename-stage activity breakdown (stalled by ROB / IQ /
 * LQ / SQ / RF, stalled-any, idle, running) for the Choi policy and
 * the Bandit, averaged over the SMT mixes.
 *
 * Paper: Bandit cuts both rename stalls (notably SQ-full stalls,
 * thanks to LSQ-aware arms) and idle cycles (less conservative
 * gating), raising the running fraction by ~2.6%.
 */
#include <array>

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

namespace {

/** The rename-stage cycle classes, in print order. */
constexpr std::array<const char *, 8> kClasses = {
    "ROB", "IQ", "LQ", "SQ", "RF", "stalled", "idle", "running"};

/** Each class's share of @p s's cycles, in percent. */
std::array<double, 8>
shares(const RenameStats &s)
{
    const double n = static_cast<double>(std::max<uint64_t>(s.cycles, 1));
    const uint64_t counts[] = {s.stallRob, s.stallIq, s.stallLq,
                               s.stallSq,  s.stallRf, s.stalled,
                               s.idle,     s.running};
    std::array<double, 8> out{};
    for (size_t k = 0; k < out.size(); ++k)
        out[k] = 100.0 * static_cast<double>(counts[k]) / n;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig15_rename");
    SmtRunConfig run_cfg;
    run_cfg.maxCycles = sweep.scaled(600'000);

    const auto mixes = smtMixes(226);
    json::Value what = config(describe(SmtConfig{}, run_cfg),
                              {describe(SmtBanditConfig{})});
    what["policies"] = describe({choiPolicy()});

    // One cell per mix: both regime runs on the cell's simulator.
    std::vector<std::pair<RenameStats, RenameStats>> results(mixes.size());
    std::vector<Cell> cells;
    for (size_t i = 0; i < mixes.size(); ++i) {
        cells.push_back({"", what, [&, i] {
                             SmtSimulator sim(mixes[i].first,
                                              mixes[i].second, run_cfg);
                             results[i].first =
                                 sim.runStatic(choiPolicy()).rename;
                             results[i].second = sim.runBandit().rename;
                         }});
    }
    sweep.run(std::move(cells));

    std::array<double, 8> choi{}, bandit{};
    for (const auto &[c, b] : results) {
        for (size_t k = 0; k < kClasses.size(); ++k) {
            choi[k] += shares(c)[k];
            bandit[k] += shares(b)[k];
        }
    }
    const double n = static_cast<double>(mixes.size());
    json::Value &body = sweep.body();
    body["maxCycles"] = run_cfg.maxCycles;
    body["mixes"] = static_cast<uint64_t>(mixes.size());
    for (size_t k = 0; k < kClasses.size(); ++k) {
        body["pctOfCycles"]["Choi"][kClasses[k]] = choi[k] / n;
        body["pctOfCycles"]["Bandit"][kClasses[k]] = bandit[k] / n;
    }
    body["runningDeltaPct"] = (bandit[7] - choi[7]) / n;

    std::printf("Figure 15: rename-stage cycle breakdown (%% of "
                "cycles, avg over %zu mixes)\n",
                static_cast<size_t>(body["mixes"].asUint()));
    std::printf("%-9s %8s %8s %8s %8s %8s %9s %8s %8s\n", "", "ROB",
                "IQ", "LQ", "SQ", "RF", "stalled", "idle", "running");
    rule(80);
    for (const auto &[regime, pct] : body["pctOfCycles"].members()) {
        std::printf("%-9s", regime.c_str());
        for (const auto &[cls, v] : pct.members())
            std::printf(cls == "stalled" ? " %8.1f%%" : " %7.1f%%",
                        v.asDouble());
        std::printf("\n");
    }
    rule(80);
    std::printf("running delta: %+.1f%% (paper: +2.6%%; Bandit cuts "
                "SQ-full stalls and idle/gating cycles)\n",
                num(body, "runningDeltaPct"));
    return sweep.finish();
}
