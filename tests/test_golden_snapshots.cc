#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/drift_env.h"
#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "cpu/multicore.h"
#include "prefetch/stride.h"
#include "sim/json.h"
#include "sim/parallel.h"
#include "sim/stats_registry.h"
#include "smt/smt_sim.h"
#include "trace/drift.h"
#include "trace/replay.h"
#include "trace/suites.h"

/**
 * Golden-snapshot regression suite (tier 2).
 *
 * Each scenario runs a fixed-seed, fixed-length simulation through
 * the full stack and exports every metric through the StatsRegistry.
 * The export must match the checked-in golden JSON exactly for
 * integer counters and within a tight relative tolerance for derived
 * doubles (IPC, occupancies) — turning the simulator's determinism
 * into an enforced contract across the core, memory, SMT and bandit
 * layers.
 *
 * When a change intentionally shifts metrics, regenerate with
 *     MAB_UPDATE_GOLDENS=1 ctest -R GoldenSnapshot
 * and review the golden diff like any other code change (see
 * EXPERIMENTS.md, "Metrics JSON export & golden snapshots").
 */

#ifndef MAB_GOLDEN_DIR
#error "MAB_GOLDEN_DIR must point at tests/golden"
#endif

namespace mab {
namespace {

constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-9;

bool
updateMode()
{
    const char *env = std::getenv("MAB_UPDATE_GOLDENS");
    return env && env[0] == '1';
}

std::string
goldenPath(const std::string &scenario)
{
    return std::string(MAB_GOLDEN_DIR) + "/" + scenario + ".json";
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

std::string
describe(const json::Value &v)
{
    switch (v.type()) {
    case json::Value::Type::Uint:
    case json::Value::Type::Int:
    case json::Value::Type::Double:
        return json::formatDouble(v.asDouble());
    case json::Value::Type::String:
        return "\"" + v.asString() + "\"";
    case json::Value::Type::Bool:
        return v.asBool() ? "true" : "false";
    default:
        return "null";
    }
}

bool
isExactKind(const json::Value &v)
{
    return v.type() == json::Value::Type::Uint ||
        v.type() == json::Value::Type::Int ||
        v.type() == json::Value::Type::String ||
        v.type() == json::Value::Type::Bool;
}

/**
 * Compare against the golden (or regenerate it in update mode). On
 * mismatch, fails with one line per diverging metric — the readable
 * diff the suite exists for.
 */
void
checkAgainstGolden(const std::string &scenario,
                   const json::Value &actual)
{
    const std::string path = goldenPath(scenario);
    if (updateMode()) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << "cannot write golden " << path;
        const std::string text = actual.dump(2);
        ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f),
                  text.size());
        std::fclose(f);
        GTEST_SKIP() << "golden regenerated: " << path;
    }

    const std::string text = readFile(path);
    ASSERT_FALSE(text.empty())
        << "missing golden " << path
        << " — run with MAB_UPDATE_GOLDENS=1 to create it";

    json::Value golden;
    ASSERT_NO_THROW(golden = json::Value::parse(text))
        << "unparseable golden " << path;

    std::map<std::string, json::Value> want, got;
    json::flatten(golden, "", want);
    json::flatten(actual, "", got);

    std::string diff;
    for (const auto &[key, w] : want) {
        auto it = got.find(key);
        if (it == got.end()) {
            diff += "  - " + key + ": golden=" + describe(w) +
                " actual=<missing>\n";
            continue;
        }
        const json::Value &g = it->second;
        if (isExactKind(w)) {
            const bool eq = w.type() == json::Value::Type::String
                ? (g.type() == json::Value::Type::String &&
                   w.asString() == g.asString())
                : (g.isNumber() &&
                   w.asDouble() == g.asDouble());
            if (!eq) {
                diff += "  - " + key + ": golden=" + describe(w) +
                    " actual=" + describe(g) + "\n";
            }
        } else if (w.isNumber()) {
            const double a = w.asDouble();
            const double b = g.asDouble();
            const double scale =
                std::max(std::abs(a), std::abs(b));
            if (std::abs(a - b) > kAbsTol + kRelTol * scale) {
                diff += "  - " + key + ": golden=" + describe(w) +
                    " actual=" + describe(g) + "\n";
            }
        }
    }
    for (const auto &[key, g] : got) {
        if (!want.count(key)) {
            diff += "  - " + key + ": golden=<missing> actual=" +
                describe(g) + "\n";
        }
    }

    EXPECT_TRUE(diff.empty())
        << "metrics diverged from golden " << path << ":\n"
        << diff
        << "If the change is intentional, regenerate with "
           "MAB_UPDATE_GOLDENS=1 and review the JSON diff.";
}

/** Bench-scale Bandit config (short steps for short runs). */
BanditPrefetchConfig
scaledBanditConfig()
{
    BanditPrefetchConfig cfg;
    cfg.hw.stepUnits = 125;
    cfg.hw.recordHistory = true;
    cfg.mab.c = 0.2;
    cfg.mab.gamma = 0.99;
    return cfg;
}

json::Value
wrap(const std::string &scenario, const StatsRegistry &reg)
{
    json::Value root = json::Value::object();
    root["scenario"] = scenario;
    root["metrics"] = reg.toJson();
    return root;
}

json::Value
singleCoreSnapshot(const std::string &app_name, Prefetcher &pf,
                   uint64_t instr, const std::string &scenario,
                   BanditPrefetchController *bandit = nullptr)
{
    // Through the arena path when enabled: the goldens passing with
    // the arena on is the end-to-end proof that replay is
    // byte-identical to the live generation they were recorded from.
    const auto trace = makeRunSource(appByName(app_name), instr);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, &pf);
    core.run(instr);

    StatsRegistry reg;
    reg.setCounter("meta.instructions", instr);
    core.exportStats(reg, "core");
    if (bandit)
        bandit->exportStats(reg, "bandit");
    return wrap(scenario, reg);
}

json::Value
computeSnapshot(const std::string &scenario)
{
    if (scenario == "singlecore_stride") {
        StridePrefetcher pf(64, 1);
        return singleCoreSnapshot("lbm06", pf, 150'000, scenario);
    }
    if (scenario == "singlecore_bandit") {
        BanditPrefetchController pf(scaledBanditConfig());
        return singleCoreSnapshot("bwaves06", pf, 150'000, scenario,
                                  &pf);
    }
    if (scenario == "smt_bandit") {
        SmtRunConfig cfg;
        cfg.maxCycles = 120'000;
        SmtSimulator sim("gcc", "lbm", cfg);

        StatsRegistry reg;
        reg.setCounter("meta.maxCycles", cfg.maxCycles);
        sim.runBandit({}, &reg);
        return wrap(scenario, reg);
    }
    // "multicore"
    SyntheticTrace t0(appByName("lbm06"));
    SyntheticTrace t1(appByName("mcf06"));
    StridePrefetcher pf0(64, 1);
    StridePrefetcher pf1(64, 1);

    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, DramConfig{},
                        2);
    sys.attachCore(0, t0, &pf0);
    sys.attachCore(1, t1, &pf1);
    sys.run(80'000);

    StatsRegistry reg;
    reg.setCounter("meta.instrPerCore", 80'000);
    sys.exportStats(reg, "system");
    return wrap(scenario, reg);
}

/**
 * All four scenario snapshots, computed once through a SweepRunner —
 * the suite both parallelizes its slowest runs and doubles as a
 * concurrency smoke test of the full simulator stack (results must
 * match the goldens produced by serial runs regardless of jobs).
 * MAB_BENCH_JOBS overrides the worker count (0 = hardware).
 */
const json::Value &
snapshot(const std::string &scenario)
{
    static const std::map<std::string, json::Value> all = [] {
        const std::vector<std::string> scenarios = {
            "singlecore_stride",
            "singlecore_bandit",
            "smt_bandit",
            "multicore",
        };
        const char *env = std::getenv("MAB_BENCH_JOBS");
        int jobs = env ? std::atoi(env) : 2;
        if (jobs == 0)
            jobs = SweepRunner::hardwareJobs();
        SweepRunner runner(jobs);
        std::vector<json::Value> vals = runner.runAll<json::Value>(
            scenarios.size(),
            [&](size_t i) { return computeSnapshot(scenarios[i]); });
        std::map<std::string, json::Value> map;
        for (size_t i = 0; i < scenarios.size(); ++i)
            map.emplace(scenarios[i], std::move(vals[i]));
        return map;
    }();
    return all.at(scenario);
}

TEST(GoldenSnapshot, SingleCoreStride)
{
    checkAgainstGolden("singlecore_stride",
                       snapshot("singlecore_stride"));
}

TEST(GoldenSnapshot, SingleCoreBandit)
{
    checkAgainstGolden("singlecore_bandit",
                       snapshot("singlecore_bandit"));
}

TEST(GoldenSnapshot, SmtBandit)
{
    checkAgainstGolden("smt_bandit", snapshot("smt_bandit"));
}

TEST(GoldenSnapshot, MultiCoreShared)
{
    checkAgainstGolden("multicore", snapshot("multicore"));
}

// ---------------------------------------------------------------------
// Non-stationarity lab (trace/drift.h + core/drift_env.h)
// ---------------------------------------------------------------------

constexpr uint64_t kDriftInstr = 100'000;

/** The two drifting workloads of the drift golden. */
DriftProfile
driftWorkload(size_t i)
{
    const std::vector<AppProfile> bases = driftBaseProfiles();
    if (i == 0)
        return makeCyclicProfile("golden_drift_cyc", bases[0],
                                 bases[1], 25'000, kDriftInstr, 977);
    return makeAdversarialProfile("golden_drift_adv", bases[0],
                                  bases[1], 12'500, kDriftInstr, 979);
}

/** Full-stack metrics of drift cell @p i. */
json::Value
driftCellMetrics(size_t i)
{
    const DriftProfile d = driftWorkload(i);
    TraceArena &arena = TraceArena::global();
    const auto trace = arena.enabled()
        ? arena.acquireTrace(d.app, kDriftInstr)
        : MaterializedTrace::generate(d.app, kDriftInstr);

    StatsRegistry reg;
    reg.setCounter("meta.instructions", kDriftInstr);
    reg.setCounter("meta.segments", d.schedule.size());
    StridePrefetcher pf(64, 1);
    ReplaySource src(trace);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, src, &pf);
    core.run(kDriftInstr);
    core.exportStats(reg, "core");
    return reg.toJson();
}

/**
 * The drift_scurve golden: both drifting workloads through the full
 * stack plus the per-phase regret oracle of a DUCB rollout on the
 * synthetic drifting bandit.
 */
json::Value
driftSnapshot()
{
    json::Value root = json::Value::object();
    root["scenario"] = "drift_scurve";
    json::Value arr = json::Value::array();
    for (size_t i = 0; i < 2; ++i) {
        json::Value entry = json::Value::object();
        entry["workload"] = driftWorkload(i).app.name;
        entry["metrics"] = driftCellMetrics(i);
        arr.push(std::move(entry));
    }
    root["cells"] = std::move(arr);

    // Oracle leg: a pure function of its seeds.
    DriftBanditConfig cfg;
    cfg.numArms = 4;
    cfg.steps = 4'000;
    cfg.periodSteps = 500;
    cfg.seed = 31;
    cfg.recoveryWindow = 8;
    const auto policy = makeDriftPolicy(
        {"DUCB g=0.99", MabAlgorithm::Ducb, 0.99, 0}, cfg.numArms,
        55);
    StatsRegistry reg;
    runDriftingBandit(*policy, cfg).exportStats(reg, "oracle");
    root["oracle"] = reg.toJson();
    return root;
}

TEST(GoldenSnapshot, DriftScurve)
{
    checkAgainstGolden("drift_scurve", driftSnapshot());
}

TEST(GoldenSnapshot, ExportIsDeterministicWithinProcess)
{
    // Two identical runs must serialize to identical bytes — the
    // property the cross-run golden comparison relies on.
    const auto run = [] {
        StridePrefetcher pf(64, 1);
        return singleCoreSnapshot("gcc06", pf, 60'000, "det").dump(2);
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace mab
