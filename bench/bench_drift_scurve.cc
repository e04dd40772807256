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
#include "common.h"
#include "core/drift_env.h"
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
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);

    // ---- Oracle section: shift period x policy over known means.
    const uint64_t steps = std::max<uint64_t>(600, scaled(60'000));
    const std::vector<std::pair<std::string, uint64_t>> periods = {
        {"T/2", std::max<uint64_t>(1, steps / 2)},
        {"T/8", std::max<uint64_t>(1, steps / 8)},
        {"T/32", std::max<uint64_t>(1, steps / 32)},
        {"T/128", std::max<uint64_t>(1, steps / 128)},
    };
    const std::vector<DriftPolicySpec> policies = driftPolicyGrid();
    const size_t cells = periods.size() * policies.size();
    const std::vector<OracleCell> oracle = sweepMap<OracleCell>(
        jobs, cells, [&](size_t i) {
            const DriftPolicySpec &spec =
                policies[i % policies.size()];
            DriftBanditConfig cfg;
            cfg.numArms = 4;
            cfg.steps = steps;
            cfg.periodSteps = periods[i / policies.size()].second;
            cfg.seed = 7;
            const std::unique_ptr<MabPolicy> policy = makeDriftPolicy(
                spec, cfg.numArms, 0x5EED + static_cast<uint64_t>(i));
            const PhasedRegretTracker tracker =
                runDriftingBandit(*policy, cfg);
            OracleCell c;
            c.cumRegret = tracker.cumulative();
            c.tailRate = tracker.tailRegretRate();
            c.recoveredFraction = tracker.recoveredFraction();
            c.meanRecoverySteps = tracker.meanRecoverySteps();
            return c;
        });

    // ---- Simulator section: drifting workloads through the full
    // prefetching stack. All cells of one workload share its record
    // stream.
    const uint64_t instr = scaled(1'200'000);
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
            grid.push_back({w.app, pf, instr, {}, {}, 0, {}});
    const std::vector<PfRun> runs = sweepPrefetchRuns(jobs, grid);

    // ---- Report.
    std::printf("Drift s-curve, oracle section: synthetic drifting "
                "bandit, %llu steps, 4 arms\n",
                static_cast<unsigned long long>(steps));
    std::printf("(per cell: tail regret rate / recovered fraction; "
                "the knee of a row is where the policy breaks)\n");
    std::printf("%-14s", "policy");
    for (const auto &[label, period] : periods)
        std::printf("  %7s P=%-6llu", label.c_str(),
                    static_cast<unsigned long long>(period));
    std::printf("\n");
    rule(14 + 17 * static_cast<int>(periods.size()));
    for (size_t p = 0; p < policies.size(); ++p) {
        std::printf("%-14s", policies[p].label.c_str());
        for (size_t q = 0; q < periods.size(); ++q) {
            const OracleCell &c =
                oracle[q * policies.size() + p];
            std::printf("    %6.4f/%-5.2f", c.tailRate,
                        c.recoveredFraction);
        }
        std::printf("\n");
    }
    rule(14 + 17 * static_cast<int>(periods.size()));

    std::printf("\nDrift s-curve, simulator section: IPC on drifting "
                "workloads (%llu instrs)\n",
                static_cast<unsigned long long>(instr));
    std::printf("%-16s", "workload");
    for (const std::string &pf : pfs)
        std::printf("%16s", pf.c_str());
    std::printf("\n");
    rule(16 + 16 * static_cast<int>(pfs.size()));
    for (size_t w = 0; w < workloads.size(); ++w) {
        std::printf("%-16s", workloads[w].app.name.c_str());
        for (size_t p = 0; p < pfs.size(); ++p)
            std::printf("%16s",
                        fmt(runs[w * pfs.size() + p].ipc, 3).c_str());
        std::printf("\n");
    }
    rule(16 + 16 * static_cast<int>(pfs.size()));

    json::Value root = json::Value::object();
    root["bench"] = "drift_scurve";
    root["scale"] = benchScale();
    json::Value oracleJson = json::Value::object();
    oracleJson["steps"] = steps;
    oracleJson["numArms"] = static_cast<uint64_t>(4);
    json::Value periodArr = json::Value::array();
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
        periodArr.push(std::move(entry));
    }
    oracleJson["periods"] = std::move(periodArr);
    root["oracle"] = std::move(oracleJson);

    json::Value simJson = json::Value::object();
    simJson["instructions"] = instr;
    json::Value wlArr = json::Value::array();
    for (size_t w = 0; w < workloads.size(); ++w) {
        json::Value entry = json::Value::object();
        entry["workload"] = workloads[w].app.name;
        entry["segments"] =
            static_cast<uint64_t>(workloads[w].schedule.size());
        json::Value ipc = json::Value::object();
        for (size_t p = 0; p < pfs.size(); ++p)
            ipc[pfs[p]] = runs[w * pfs.size() + p].ipc;
        entry["ipc"] = std::move(ipc);
        wlArr.push(std::move(entry));
    }
    simJson["workloads"] = std::move(wlArr);
    root["sim"] = std::move(simJson);
    return writeJsonReport(root, argc, argv) ? 0 : 1;
}
