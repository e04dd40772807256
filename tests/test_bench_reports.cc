#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/tracing.h"

/**
 * The --json reports the bench-smoke sweeps write (the bench_reports
 * fixture, scale 0.01): every sweep writes one, and its meta.configs
 * names the agents and machines the sweep actually ran, so a report
 * cannot claim a single-core prefetching agent for an SMT sweep. Three
 * sweeps also run traced (trace, audit log and sampler on), and their
 * sinks are checked against the untraced run.
 */

namespace mab {
namespace {

const std::vector<std::string> kSweeps = {
    "bench_fig2_pythia_actions",    "bench_fig5_pg_policy_space",
    "bench_fig7_exploration",       "bench_fig8_singlecore",
    "bench_fig9_timeliness",        "bench_fig10_bandwidth",
    "bench_fig11_altcache",         "bench_fig12_multilevel",
    "bench_fig13_smt_scurve",       "bench_fig14_fourcore",
    "bench_fig15_rename",           "bench_table8_prefetch_algos",
    "bench_table9_smt_algos",       "bench_ablation_hparams",
    "bench_ablation_normalization", "bench_ablation_rrrestart",
    "bench_ablation_step",          "bench_ext_algorithms",
    "bench_ext_joint",              "bench_drift_scurve",
};

/** The text of @p file in the report directory ("" when missing). */
std::string
readReportFile(const std::string &file)
{
    const std::string path = std::string(MAB_BENCH_REPORT_DIR) + "/" + file;
    std::ifstream in(path);
    if (!in) {
        ADD_FAILURE() << "no report file at " << path;
        return "";
    }
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

json::Value
report(const std::string &sweep)
{
    const std::string text = readReportFile(sweep + ".json");
    return text.empty() ? json::Value::object() : json::Value::parse(text);
}

/** The configs of @p sweep's report (empty when it has none). */
std::vector<json::Value>
configs(const std::string &sweep)
{
    const json::Value doc = report(sweep);
    const json::Value *meta = doc.find("meta");
    const json::Value *list = meta ? meta->find("configs") : nullptr;
    return list ? list->items() : std::vector<json::Value>{};
}

/** Every agent of every config in @p list that @p pick selects. */
std::vector<json::Value>
agents(const std::vector<json::Value> &list,
       const std::function<bool(const json::Value &)> &pick)
{
    std::vector<json::Value> out;
    for (const json::Value &c : list)
        for (const json::Value &a : c.find("agents")->items())
            if (pick(a))
                out.push_back(a);
    return out;
}

std::function<bool(const json::Value &)>
kind(const std::string &k)
{
    return [k](const json::Value &a) {
        return a.find("kind")->asString() == k;
    };
}

double
num(const json::Value &v, const char *key)
{
    const json::Value *m = v.find(key);
    EXPECT_NE(m, nullptr) << "missing " << key << " in " << v.dump(0);
    return m ? m->asDouble() : -1.0;
}

TEST(BenchReports, EveryReportHasBenchScaleAndConfigs)
{
    for (const std::string &sweep : kSweeps) {
        SCOPED_TRACE(sweep);
        const json::Value doc = report(sweep);
        const json::Value *bench = doc.find("bench");
        ASSERT_NE(bench, nullptr);
        EXPECT_EQ("bench_" + bench->asString(), sweep);
        ASSERT_NE(doc.find("scale"), nullptr);
        EXPECT_EQ(doc.find("scale")->asDouble(), 0.01);
        const std::vector<json::Value> list = configs(sweep);
        EXPECT_FALSE(list.empty());
        for (const json::Value &c : list) {
            ASSERT_NE(c.find("machine"), nullptr);
            ASSERT_NE(c.find("agents"), nullptr);
        }
    }
}

TEST(BenchReports, Table9RanTheSmtAgentOnTheSmtPipeline)
{
    const std::vector<json::Value> list = configs("bench_table9_smt_algos");
    ASSERT_FALSE(list.empty());
    for (const json::Value &c : list) {
        const json::Value &machine = *c.find("machine");
        EXPECT_NE(machine.find("iqSize"), nullptr) << machine.dump(0);
        EXPECT_EQ(machine.find("l2Bytes"), nullptr) << machine.dump(0);
    }
    const std::vector<json::Value> all =
        agents(list, [](const json::Value &) { return true; });
    EXPECT_EQ(all.size(), 5u) << "Single, Periodic, eGreedy, UCB, DUCB";
    for (const json::Value &a : all)
        EXPECT_EQ(num(a, "numArms"), 6) << a.dump(0);
}

TEST(BenchReports, Fig8RanTheBenchTunedBanditOnOneCore)
{
    const std::vector<json::Value> list = configs("bench_fig8_singlecore");
    const std::vector<json::Value> bandits = agents(list, kind("bandit"));
    ASSERT_EQ(bandits.size(), 1u);
    const json::Value &b = bandits.front();
    EXPECT_EQ(num(b, "numArms"), 11);
    EXPECT_EQ(num(b, "stepUnits"), 125);
    EXPECT_EQ(num(b, "c"), 0.2);
    EXPECT_EQ(num(b, "gamma"), 0.99);
    ASSERT_NE(b.find("armTable"), nullptr);
    EXPECT_EQ(b.find("armTable")->size(), 11u);
    for (const json::Value &c : list) {
        EXPECT_EQ(num(*c.find("machine"), "l2Bytes"), 262144);
        EXPECT_EQ(num(*c.find("machine"), "dramMtps"), 2400);
    }
}

TEST(BenchReports, Fig7RanBothUseCases)
{
    const std::vector<json::Value> list =
        configs("bench_fig7_exploration");
    // The paper's Table 6 prefetching agent, not the bench retune.
    const std::vector<json::Value> table6 =
        agents(list, [](const json::Value &a) {
            return a.find("kind")->asString() == "bandit" &&
                a.find("stepUnits")->asDouble() == 1000 &&
                a.find("c")->asDouble() == 0.04 &&
                a.find("gamma")->asDouble() == 0.999;
        });
    EXPECT_EQ(table6.size(), 3u) << "Single, UCB, DUCB";
    const std::vector<json::Value> smt = agents(list, kind("smtBandit"));
    ASSERT_FALSE(smt.empty());
    for (const json::Value &a : smt)
        EXPECT_EQ(num(a, "numArms"), 6);
}

TEST(BenchReports, Fig11RanTheAlternativeHierarchy)
{
    const std::vector<json::Value> list = configs("bench_fig11_altcache");
    ASSERT_FALSE(list.empty());
    for (const json::Value &c : list)
        EXPECT_EQ(num(*c.find("machine"), "l2Bytes"), 1048576);
}

/**
 * Pinned finding, not a fix: Pythia's bandwidth-aware reward reads a
 * DRAM probe that the single-core runs attach (Figs. 2, 8-11, Table 8)
 * but the 4-core system never offers (Fig. 14). The day Fig. 14 gets
 * the probe, this test flips along with its stdout.
 */
TEST(BenchReports, PythiaBandwidthProbeIsOffInFig14)
{
    const std::vector<json::Value> fig8 =
        agents(configs("bench_fig8_singlecore"), kind("pythia"));
    ASSERT_EQ(fig8.size(), 1u);
    EXPECT_TRUE(fig8.front().find("bandwidthProbe")->asBool());

    const std::vector<json::Value> fig14 =
        agents(configs("bench_fig14_fourcore"), kind("pythia"));
    ASSERT_EQ(fig14.size(), 1u);
    EXPECT_FALSE(fig14.front().find("bandwidthProbe")->asBool());
}

// ---- Traced smoke runs (smoke_traced_* in bench/CMakeLists.txt).

const std::vector<std::string> kTracedSweeps = {
    "bench_fig7_exploration",
    "bench_fig12_multilevel",
    "bench_fig14_fourcore",
};

/** One traced smoke run: its report, trace events and audit lines. */
struct TracedRun
{
    json::Value report;
    std::vector<json::Value> events;
    std::vector<std::string> audit;
};

TracedRun
traced(const std::string &sweep)
{
    TracedRun run;
    const std::string text = readReportFile(sweep + ".traced.json");
    run.report = text.empty() ? json::Value::object()
                              : json::Value::parse(text);
    const std::string trace = readReportFile(sweep + ".trace.json");
    if (!trace.empty()) {
        const json::Value doc = json::Value::parse(trace);
        if (const json::Value *events = doc.find("traceEvents"))
            run.events = events->items();
    }
    std::istringstream audit(readReportFile(sweep + ".audit.jsonl"));
    for (std::string line; std::getline(audit, line);)
        run.audit.push_back(line);
    return run;
}

/** @p doc without its meta block: everything the sweep computed. */
std::string
withoutMeta(const json::Value &doc)
{
    json::Value body = json::Value::object();
    for (const auto &[key, value] : doc.members())
        if (key != "meta")
            body[key] = value;
    return body.dump(0);
}

std::string
phase(const json::Value &event)
{
    return event.find("ph")->asString();
}

TEST(TracedSmoke, ReportBodyEqualsTheUntracedRun)
{
    for (const std::string &sweep : kTracedSweeps) {
        SCOPED_TRACE(sweep);
        const json::Value plain = report(sweep);
        ASSERT_NE(plain.find("bench"), nullptr);
        EXPECT_EQ(withoutMeta(traced(sweep).report), withoutMeta(plain));
    }
}

TEST(TracedSmoke, EveryEventIsOnTheVirtualTimeline)
{
    for (const std::string &sweep : kTracedSweeps) {
        SCOPED_TRACE(sweep);
        const TracedRun run = traced(sweep);
        ASSERT_FALSE(run.events.empty());
        for (const json::Value &e : run.events)
            ASSERT_EQ(e.find("pid")->asInt(), tracing::kPidCycles)
                << e.dump(0);
    }
}

/** Every cell is one simulated run, scoped by beginRun()/endRun(), so
 *  the trace holds one run span per cell, and runs laid out back to
 *  back keep every counter track moving forward in time. */
TEST(TracedSmoke, OneRunSpanPerCellAndNoTrackGoesBackInTime)
{
    for (const std::string &sweep : kTracedSweeps) {
        SCOPED_TRACE(sweep);
        const TracedRun run = traced(sweep);
        const json::Value *meta = run.report.find("meta");
        ASSERT_NE(meta, nullptr);
        const size_t cells =
            meta->find("parallel")->find("taskWallMs")->size();
        size_t run_spans = 0;
        size_t backwards = 0;
        std::map<std::string, uint64_t> last_ts;
        for (const json::Value &e : run.events) {
            if (phase(e) == "X" &&
                e.find("pid")->asInt() == tracing::kPidCycles &&
                e.find("tid")->asInt() == tracing::kTidRuns)
                ++run_spans;
            if (phase(e) != "C")
                continue;
            const std::string track = e.find("name")->asString();
            const uint64_t ts = e.find("ts")->asUint();
            const auto it = last_ts.find(track);
            if (it != last_ts.end() && ts < it->second)
                ++backwards;
            last_ts[track] = ts;
        }
        EXPECT_GT(cells, 0u);
        EXPECT_EQ(run_spans, cells);
        EXPECT_FALSE(last_ts.empty());
        EXPECT_EQ(backwards, 0u);
    }
}

/** Each bandit step draws one arm span and writes one audit record. */
TEST(TracedSmoke, BanditStepsAreSpannedAndAudited)
{
    for (const std::string &sweep : kTracedSweeps) {
        SCOPED_TRACE(sweep);
        const TracedRun run = traced(sweep);
        size_t arm_spans = 0;
        for (const json::Value &e : run.events) {
            if (phase(e) == "X" &&
                e.find("tid")->asInt() >= tracing::kTidBanditBase &&
                e.find("name")->asString().rfind("arm", 0) == 0)
                ++arm_spans;
        }
        EXPECT_GT(arm_spans, 0u);
        EXPECT_EQ(run.audit.size(), arm_spans);
        for (const std::string &line : run.audit) {
            json::Value rec;
            ASSERT_NO_THROW(rec = json::Value::parse(line)) << line;
            EXPECT_NE(rec.find("agent"), nullptr) << line;
            EXPECT_NE(rec.find("reward"), nullptr) << line;
            EXPECT_NE(rec.find("arms"), nullptr) << line;
        }
    }
}

TEST(TracedSmoke, SamplersWriteTheirCounterTracks)
{
    const std::map<std::string, std::vector<std::string>> want = {
        {"bench_fig7_exploration", {"IPC", "fetchShare.t0", "fetchShare.t1"}},
        {"bench_fig12_multilevel", {"IPC"}},
        {"bench_fig14_fourcore",
         {"core0.IPC", "core1.IPC", "core2.IPC", "core3.IPC",
          "dramBusUtil"}},
    };
    for (const auto &[sweep, tracks] : want) {
        SCOPED_TRACE(sweep);
        std::set<std::string> series;
        for (const json::Value &e : traced(sweep).events)
            if (phase(e) == "C")
                for (const auto &[name, value] : e.find("args")->members())
                    series.insert(name);
        for (const std::string &track : tracks)
            EXPECT_EQ(series.count(track), 1u) << track;
    }
}

} // namespace
} // namespace mab
