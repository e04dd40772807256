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

#include "sweep.h"

using namespace mab;
using namespace mab::bench;

namespace {

/** The arm in effect at 24 evenly spaced points of [0, end). */
std::vector<int>
timeline(const std::vector<std::pair<uint64_t, int>> &history,
         uint64_t end)
{
    std::vector<int> arms;
    for (int i = 0; i < 24; ++i) {
        const uint64_t t = end * static_cast<uint64_t>(i) / 24;
        int arm = history.empty() ? 0 : history.front().second;
        for (const auto &[cycle, a] : history) {
            if (cycle <= t)
                arm = a;
            else
                break;
        }
        arms.push_back(arm);
    }
    return arms;
}

constexpr MabAlgorithm kAlgos[] = {MabAlgorithm::Single,
                                   MabAlgorithm::Ucb,
                                   MabAlgorithm::Ducb};
constexpr size_t kNumAlgos = 3;

/** One run's outcome: IPC plus (for bandits) its timeline. */
struct Row
{
    double ipc = 0.0;
    std::vector<int> tl;
};

/** One column of the figure: its static-arm runs, then one run per
 *  algorithm of kAlgos. */
struct Column
{
    std::string title;
    std::vector<std::string> armNames; ///< SMT arms; empty: prefetching
    std::vector<Row> rows;
};

/** The cells of a prefetching column on @p app: the 11 fixed arms of
 *  Table 7, then the paper's Table 6 agent per algorithm. */
void
prefetchColumn(const AppProfile &app, uint64_t instr, Column &col,
               std::vector<Cell> &cells)
{
    col.title = "prefetching: " + app.name;
    const size_t num_arms =
        static_cast<size_t>(BanditEnsemblePrefetcher::numArms());
    col.rows.resize(num_arms + kNumAlgos);
    const json::Value machine =
        describe(CoreConfig{}, HierarchyConfig{}, DramConfig{});
    for (size_t i = 0; i < num_arms; ++i) {
        const std::string name = "Arm:" + std::to_string(i);
        cells.push_back({streamKey(app, instr),
                         config(machine, {describePrefetcher(name, true)}),
                         [=, row = &col.rows[i]] {
                             const auto pf = makeCellPrefetcher(name, 0);
                             row->ipc = runPrefetch(app, *pf, instr).ipc;
                         }});
    }
    for (size_t k = 0; k < kNumAlgos; ++k) {
        BanditPrefetchConfig cfg;
        cfg.algorithm = kAlgos[k];
        cfg.hw.recordHistory = true;
        cells.push_back(
            {streamKey(app, instr), config(machine, {describe(cfg)}),
             [=, row = &col.rows[num_arms + k]] {
                 BanditPrefetchController pf(cfg);
                 const PfRun r = runPrefetch(app, pf, instr);
                 // History is recorded in cycles; estimate the end
                 // cycle.
                 const uint64_t end = static_cast<uint64_t>(
                     static_cast<double>(instr) / r.ipc);
                 row->ipc = r.ipc;
                 row->tl = timeline(pf.agent().history(), end);
             }});
    }
}

/** The cells of an SMT column on mix @p a - @p b: the 6 arms of Table
 *  1 held fixed, then the SMT agent per algorithm. Every run resets
 *  the trace sources and builds a fresh pipeline, so each cell owns
 *  its simulator. */
void
smtColumn(const std::string &a, const std::string &b,
          const SmtRunConfig &run_cfg, Column &col,
          std::vector<Cell> &cells)
{
    col.title = "SMT fetch: " + a + "-" + b;
    for (const PgPolicy &arm : smtArmTable())
        col.armNames.push_back(arm.name());
    const size_t num_arms = smtArmTable().size();
    col.rows.resize(num_arms + kNumAlgos);
    const json::Value machine = describe(SmtConfig{}, run_cfg);
    for (size_t i = 0; i < num_arms; ++i) {
        json::Value what = config(machine, {});
        what["policies"] = describe({smtArmTable()[i]});
        cells.push_back({"", what, [=, row = &col.rows[i]] {
                             SmtSimulator sim(a, b, run_cfg);
                             row->ipc =
                                 sim.runStatic(smtArmTable()[i]).ipcSum;
                         }});
    }
    for (size_t k = 0; k < kNumAlgos; ++k) {
        SmtBanditConfig cfg;
        cfg.algorithm = kAlgos[k];
        cells.push_back({"", config(machine, {describe(cfg)}),
                         [=, row = &col.rows[num_arms + k]] {
                             SmtSimulator sim(a, b, run_cfg);
                             const SmtRunResult r = sim.runBandit(cfg);
                             row->ipc = r.ipcSum;
                             row->tl = timeline(r.armHistory, r.cycles);
                         }});
    }
}

/** A column's report entry: the best static arm and every algorithm's
 *  IPC and timeline. */
json::Value
reduce(const Column &col)
{
    const size_t num_arms = col.rows.size() - kNumAlgos;
    double best_ipc = 0.0;
    int best_arm = 0;
    for (size_t arm = 0; arm < num_arms; ++arm) {
        if (col.rows[arm].ipc > best_ipc) {
            best_ipc = col.rows[arm].ipc;
            best_arm = static_cast<int>(arm);
        }
    }
    json::Value v = json::Value::object();
    v["title"] = col.title;
    v["bestStatic"]["ipc"] = best_ipc;
    v["bestStatic"]["arm"] = best_arm;
    if (!col.armNames.empty())
        v["bestStatic"]["policy"] = col.armNames[best_arm];
    json::Value algos = json::Value::array();
    for (size_t k = 0; k < kNumAlgos; ++k) {
        const Row &row = col.rows[num_arms + k];
        json::Value a = json::Value::object();
        a["algorithm"] = toString(kAlgos[k]);
        a["ipc"] = row.ipc;
        json::Value tl = json::Value::array();
        for (int arm : row.tl)
            tl.push(arm);
        a["timeline"] = std::move(tl);
        algos.push(std::move(a));
    }
    v["algorithms"] = std::move(algos);
    return v;
}

void
print(const json::Value &col)
{
    std::printf("== %s ==\n", col.find("title")->asString().c_str());
    const json::Value &best = *col.find("bestStatic");
    const double best_ipc = best.find("ipc")->asDouble();
    const int best_arm = static_cast<int>(best.find("arm")->asInt());
    if (const json::Value *policy = best.find("policy"))
        std::printf("%-11s ipc=%.3f  arm %d (%s) throughout\n",
                    "BestStatic", best_ipc, best_arm,
                    policy->asString().c_str());
    else
        std::printf("%-11s ipc=%.3f  arm %d throughout\n", "BestStatic",
                    best_ipc, best_arm);
    for (const json::Value &a : col.find("algorithms")->items()) {
        std::string tl;
        for (const json::Value &arm : a.find("timeline")->items()) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "%2d ",
                          static_cast<int>(arm.asInt()));
            tl += buf;
        }
        std::printf("%-11s ipc=%.3f  %s\n",
                    a.find("algorithm")->asString().c_str(),
                    a.find("ipc")->asDouble(), tl.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv, "fig7_exploration");
    const uint64_t instr = sweep.scaled(2'000'000);
    SmtRunConfig run_cfg;
    run_cfg.maxCycles = sweep.scaled(1'200'000);

    std::vector<Column> columns(4);
    std::vector<Cell> cells;
    prefetchColumn(appByName("cactusADM06"), instr, columns[0], cells);
    prefetchColumn(appByName("mcf06"), instr, columns[1], cells);
    smtColumn("gcc", "lbm", run_cfg, columns[2], cells);
    smtColumn("cactuBSSN", "lbm", run_cfg, columns[3], cells);
    sweep.run(std::move(cells));

    json::Value &body = sweep.body();
    body["instructions"] = instr;
    body["maxCycles"] = run_cfg.maxCycles;
    for (const Column &col : columns)
        body["columns"].push(reduce(col));

    std::printf("Figure 7: arm index explored over time "
                "(24 samples per run)\n");
    for (const json::Value &col : body["columns"].items()) {
        std::printf("\n");
        print(col);
    }
    return sweep.finish();
}
