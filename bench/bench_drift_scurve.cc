/**
 * Drift s-curve: where does each policy's window/discount break?
 *
 * The paper's robustness claim for DUCB rests on non-stationary
 * behaviour its homogeneous workloads never exercise. This sweep
 * makes the claim measurable along two axes:
 *
 *  1. Oracle section — a synthetic drifting bandit (core/drift_env.h)
 *     whose true means shift every P plays with a rotating best arm,
 *     swept over shift period x policy (DUCB discount grid, SW-UCB
 *     window grid, UCB, eGreedy, Thompson). The PhasedRegretTracker
 *     reports post-shift recovery and tail regret rate per cell; read
 *     each policy's row as an s-curve over the period axis — the knee
 *     is where its window/discount breaks.
 *
 *  2. Simulator section — cyclic and adversarial drifting workloads
 *     (trace/drift.h) alternating a streaming regime against a
 *     pointer-chase regime, run through the full prefetching stack at
 *     several shift periods. Drifting profiles are plain AppProfiles,
 *     so the cells materialize, replay and parallelize (--jobs) like
 *     any other sweep.
 */
#include "core/drift_env.h"
#include "sweep.h"
#include "trace/drift.h"

using namespace mab;
using namespace mab::bench;

namespace {

/** One cell of the oracle sweep: the tracker summary. */
struct OracleCell
{
    double cumRegret = 0.0;
    double tailRate = 0.0;
    double recoveredFraction = 0.0;
    double meanRecoverySteps = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "drift_scurve");

    // ---- Oracle section: shift period x policy over known means.
    const uint64_t steps = std::max<uint64_t>(600, sweep.scaled(60'000));
    const std::vector<std::pair<std::string, uint64_t>> periods = {
        {"T/2", std::max<uint64_t>(1, steps / 2)},
        {"T/8", std::max<uint64_t>(1, steps / 8)},
        {"T/32", std::max<uint64_t>(1, steps / 32)},
        {"T/128", std::max<uint64_t>(1, steps / 128)},
    };
    const std::vector<DriftPolicySpec> policies = driftPolicyGrid();
    std::vector<OracleCell> oracle(periods.size() * policies.size());
    std::vector<Cell> cells;
    for (size_t q = 0; q < periods.size(); ++q) {
        DriftBanditConfig cfg;
        cfg.numArms = 4;
        cfg.steps = steps;
        cfg.periodSteps = periods[q].second;
        cfg.seed = 7;
        for (size_t p = 0; p < policies.size(); ++p) {
            const size_t i = q * policies.size() + p;
            cells.push_back(
                {"", config(describe(cfg), {describe(policies[p])}),
                 [&, cfg, p, i] {
                     const std::unique_ptr<MabPolicy> policy =
                         makeDriftPolicy(policies[p], cfg.numArms,
                                         0x5EED + static_cast<uint64_t>(i));
                     const PhasedRegretTracker tracker =
                         runDriftingBandit(*policy, cfg);
                     OracleCell &c = oracle[i];
                     c.cumRegret = tracker.cumulative();
                     c.tailRate = tracker.tailRegretRate();
                     c.recoveredFraction = tracker.recoveredFraction();
                     c.meanRecoverySteps = tracker.meanRecoverySteps();
                 }});
        }
    }

    // ---- Simulator section: drifting workloads through the full
    // prefetching stack. All cells of one workload share its record
    // stream.
    const uint64_t instr = sweep.scaled(1'200'000);
    const std::vector<AppProfile> bases = driftBaseProfiles();
    std::vector<DriftProfile> workloads;
    for (const auto &[label, div] :
         std::vector<std::pair<std::string, uint64_t>>{
             {"cyc_T2", 2}, {"cyc_T8", 8}, {"cyc_T32", 32}}) {
        workloads.push_back(makeCyclicProfile(
            "drift_" + label, bases[0], bases[1],
            std::max<uint64_t>(1, instr / div), instr, 911));
    }
    workloads.push_back(makeAdversarialProfile(
        "drift_adv_T16", bases[0], bases[1],
        std::max<uint64_t>(2, instr / 16), instr, 913));

    const std::vector<std::string> pfs = {
        "Bandit:DUCB", "Bandit:UCB", "Bandit:eGreedy", "Stride"};
    std::vector<PfTask> grid;
    for (const DriftProfile &w : workloads)
        for (const std::string &pf : pfs)
            grid.push_back({w.app, pf, instr});
    std::vector<PfRun> runs;
    for (Cell &c : pfCells(grid, &runs))
        cells.push_back(std::move(c));
    sweep.run(std::move(cells));

    // ---- Report.
    json::Value &body = sweep.body();
    json::Value &oracleJson = body["oracle"];
    oracleJson["steps"] = steps;
    oracleJson["numArms"] = static_cast<uint64_t>(4);
    for (size_t q = 0; q < periods.size(); ++q) {
        json::Value entry = json::Value::object();
        entry["label"] = periods[q].first;
        entry["periodSteps"] = periods[q].second;
        json::Value byPolicy = json::Value::object();
        for (size_t p = 0; p < policies.size(); ++p) {
            const OracleCell &c = oracle[q * policies.size() + p];
            json::Value cell = json::Value::object();
            cell["cumRegret"] = c.cumRegret;
            cell["tailRegretRate"] = c.tailRate;
            cell["recoveredFraction"] = c.recoveredFraction;
            cell["meanRecoverySteps"] = c.meanRecoverySteps;
            byPolicy[policies[p].label] = std::move(cell);
        }
        entry["policies"] = std::move(byPolicy);
        oracleJson["periods"].push(std::move(entry));
    }

    json::Value simJson = json::Value::object();
    simJson["instructions"] = instr;
    for (size_t w = 0; w < workloads.size(); ++w) {
        json::Value entry = json::Value::object();
        entry["workload"] = workloads[w].app.name;
        entry["segments"] =
            static_cast<uint64_t>(workloads[w].schedule.size());
        for (size_t p = 0; p < pfs.size(); ++p)
            entry["ipc"][pfs[p]] = runs[w * pfs.size() + p].ipc;
        simJson["workloads"].push(std::move(entry));
    }
    body["sim"] = std::move(simJson);

    const json::Value &periodRows = body["oracle"]["periods"];
    std::printf("Drift s-curve, oracle section: synthetic drifting "
                "bandit, %llu steps, 4 arms\n",
                static_cast<unsigned long long>(
                    body["oracle"]["steps"].asUint()));
    std::printf("(per cell: tail regret rate / recovered fraction; "
                "the knee of a row is where the policy breaks)\n");
    std::printf("%-14s", "policy");
    for (const json::Value &period : periodRows.items())
        std::printf("  %7s P=%-6llu",
                    period.find("label")->asString().c_str(),
                    static_cast<unsigned long long>(
                        period.find("periodSteps")->asUint()));
    std::printf("\n");
    const int oracle_width = 14 + 17 * static_cast<int>(periodRows.size());
    rule(oracle_width);
    for (const DriftPolicySpec &spec : policies) {
        std::printf("%-14s", spec.label.c_str());
        for (const json::Value &period : periodRows.items()) {
            const json::Value &c =
                *period.find("policies")->find(spec.label);
            std::printf("    %6.4f/%-5.2f",
                        c.find("tailRegretRate")->asDouble(),
                        c.find("recoveredFraction")->asDouble());
        }
        std::printf("\n");
    }
    rule(oracle_width);

    std::printf("\nDrift s-curve, simulator section: IPC on drifting "
                "workloads (%llu instrs)\n",
                static_cast<unsigned long long>(
                    body["sim"]["instructions"].asUint()));
    std::printf("%-16s", "workload");
    for (const std::string &pf : pfs)
        std::printf("%16s", pf.c_str());
    std::printf("\n");
    const int sim_width = 16 + 16 * static_cast<int>(pfs.size());
    rule(sim_width);
    for (const json::Value &entry : body["sim"]["workloads"].items()) {
        std::printf("%-16s", entry.find("workload")->asString().c_str());
        for (const auto &[pf, ipc] : entry.find("ipc")->members())
            std::printf("%16s", fmt(ipc.asDouble(), 3).c_str());
        std::printf("\n");
    }
    rule(sim_width);
    return sweep.finish();
}
