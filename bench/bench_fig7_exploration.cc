/**
 * Figure 7: exploration performed by different algorithms (rows) for
 * different applications (columns) — arm index over time plus the
 * final IPC, for two prefetching traces (cactus, mcf) and two SMT
 * mixes (gcc-lbm, cactus-lbm).
 *
 * Expected shape: Best Static never explores; Single explores only in
 * the initial round-robin phase; UCB and DUCB keep exploring (DUCB
 * more); on mcf, DUCB detects the coarse phase change and settles on
 * a different arm, beating Best Static.
 */
#include <memory>

#include "common.h"
#include "core/heuristics.h"
#include "smt/smt_sim.h"

using namespace mab;
using namespace mab::bench;

namespace {

/** Render an arm timeline sampled at 24 points. */
std::string
timeline(const std::vector<std::pair<uint64_t, int>> &history,
         uint64_t end)
{
    std::string out;
    for (int i = 0; i < 24; ++i) {
        const uint64_t t = end * static_cast<uint64_t>(i) / 24;
        int arm = history.empty() ? 0 : history.front().second;
        for (const auto &[cycle, a] : history) {
            if (cycle <= t)
                arm = a;
            else
                break;
        }
        char buf[8];
        std::snprintf(buf, sizeof(buf), "%2d ", arm);
        out += buf;
    }
    return out;
}

constexpr MabAlgorithm kAlgos[] = {MabAlgorithm::Single,
                                   MabAlgorithm::Ucb,
                                   MabAlgorithm::Ducb};
constexpr size_t kNumAlgos = 3;

/** One run's printable outcome: IPC plus (for bandits) a timeline. */
struct Row
{
    double ipc = 0.0;
    std::string tl;
};

void
prefetchColumn(int jobs, const std::string &app_name)
{
    const AppProfile app = appByName(app_name);
    const uint64_t instr = scaled(2'000'000);

    std::printf("== prefetching: %s ==\n", app_name.c_str());

    // Tasks: one per static arm, then one per bandit algorithm.
    const size_t num_arms =
        static_cast<size_t>(BanditEnsemblePrefetcher::numArms());
    const std::vector<Row> rows = sweepMap<Row>(
        jobs, num_arms + kNumAlgos, [&](size_t i) {
            Row row;
            if (i < num_arms) {
                MabConfig mcfg;
                mcfg.numArms = BanditEnsemblePrefetcher::numArms();
                BanditPrefetchController pf(
                    std::make_unique<FixedArmPolicy>(
                        mcfg, static_cast<ArmId>(i)),
                    BanditHwConfig{});
                row.ipc = runPrefetch(app, pf, instr).ipc;
                return row;
            }
            BanditPrefetchConfig cfg;
            cfg.algorithm = kAlgos[i - num_arms];
            cfg.hw.recordHistory = true;
            BanditPrefetchController pf(cfg);
            const PfRun r = runPrefetch(app, pf, instr);
            // History is recorded in cycles; estimate the end cycle.
            const uint64_t end = static_cast<uint64_t>(
                static_cast<double>(instr) / r.ipc);
            row.ipc = r.ipc;
            row.tl = timeline(pf.agent().history(), end);
            return row;
        });

    double best_ipc = 0.0;
    ArmId best_arm = 0;
    for (size_t arm = 0; arm < num_arms; ++arm) {
        if (rows[arm].ipc > best_ipc) {
            best_ipc = rows[arm].ipc;
            best_arm = static_cast<ArmId>(arm);
        }
    }
    std::printf("%-11s ipc=%.3f  arm %d throughout\n", "BestStatic",
                best_ipc, best_arm);
    for (size_t k = 0; k < kNumAlgos; ++k) {
        const Row &row = rows[num_arms + k];
        std::printf("%-11s ipc=%.3f  %s\n",
                    toString(kAlgos[k]).c_str(), row.ipc,
                    row.tl.c_str());
    }
}

void
smtColumn(int jobs, const std::string &a, const std::string &b)
{
    SmtRunConfig run_cfg;
    run_cfg.maxCycles = scaled(1'200'000);

    std::printf("== SMT fetch: %s-%s ==\n", a.c_str(), b.c_str());

    // Every run resets the trace sources and builds a fresh
    // pipeline, so each task can own its own simulator.
    const size_t num_arms = smtArmTable().size();
    const std::vector<Row> rows = sweepMap<Row>(
        jobs, num_arms + kNumAlgos, [&](size_t i) {
            SmtSimulator sim(a, b, run_cfg);
            Row row;
            if (i < num_arms) {
                row.ipc = sim.runStatic(smtArmTable()[i]).ipcSum;
                return row;
            }
            SmtBanditConfig cfg;
            cfg.algorithm = kAlgos[i - num_arms];
            const SmtRunResult r = sim.runBandit(cfg);
            row.ipc = r.ipcSum;
            row.tl = timeline(r.armHistory, r.cycles);
            return row;
        });

    double best_ipc = 0.0;
    int best_arm = 0;
    for (size_t arm = 0; arm < num_arms; ++arm) {
        if (rows[arm].ipc > best_ipc) {
            best_ipc = rows[arm].ipc;
            best_arm = static_cast<int>(arm);
        }
    }
    std::printf("%-11s ipc=%.3f  arm %d (%s) throughout\n",
                "BestStatic", best_ipc, best_arm,
                smtArmTable()[best_arm].name().c_str());
    for (size_t k = 0; k < kNumAlgos; ++k) {
        const Row &row = rows[num_arms + k];
        std::printf("%-11s ipc=%.3f  %s\n",
                    toString(kAlgos[k]).c_str(), row.ipc,
                    row.tl.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    std::printf("Figure 7: arm index explored over time "
                "(24 samples per run)\n\n");
    prefetchColumn(jobs, "cactusADM06");
    std::printf("\n");
    prefetchColumn(jobs, "mcf06");
    std::printf("\n");
    smtColumn(jobs, "gcc", "lbm");
    std::printf("\n");
    smtColumn(jobs, "cactuBSSN", "lbm");
    return 0;
}
