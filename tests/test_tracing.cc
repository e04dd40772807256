#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/bandit_agent.h"
#include "core/factory.h"
#include "sim/json.h"
#include "sim/stats_registry.h"
#include "sim/tracing.h"

namespace mab::tracing {
namespace {

std::string
tmpPath(const std::string &stem)
{
    return testing::TempDir() + "mab_tracing_" + stem + "_" +
        std::to_string(::getpid()) + ".json";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Events of a parsed trace file, skipping "M" metadata records. */
std::vector<json::Value>
traceEvents(const std::string &path, bool keep_meta = false)
{
    const json::Value root = json::Value::parse(readFile(path));
    const json::Value *events = root.find("traceEvents");
    EXPECT_NE(events, nullptr) << path;
    std::vector<json::Value> out;
    if (!events)
        return out;
    for (const json::Value &e : events->items()) {
        const json::Value *ph = e.find("ph");
        if (!keep_meta && ph && ph->asString() == "M")
            continue;
        out.push_back(e);
    }
    return out;
}

// ---------------------------------------------------------------------------
// TraceWriter

TEST(TraceWriter, DeterministicByteOutput)
{
    const std::string path = tmpPath("bytes");
    {
        TraceWriter w;
        ASSERT_TRUE(w.open(path));
        w.completeSpan(1, 1, "a", 0, 5);
        w.counter(1, "track", 7, "v", 1.25);
        w.close();
    }
    // The writer's output is a pure function of the call sequence:
    // fixed field order, to_chars number formatting, one event per
    // line. Byte-exact, not just structurally equal.
    EXPECT_EQ(readFile(path),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
              "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"a\","
              "\"ts\":0,\"dur\":5},\n"
              "{\"ph\":\"C\",\"pid\":1,\"name\":\"track\",\"ts\":7,"
              "\"args\":{\"v\":1.25}}\n"
              "]}");

    // Replaying the same sequence reproduces the same bytes.
    const std::string path2 = tmpPath("bytes2");
    {
        TraceWriter w;
        ASSERT_TRUE(w.open(path2));
        w.completeSpan(1, 1, "a", 0, 5);
        w.counter(1, "track", 7, "v", 1.25);
        w.close();
    }
    EXPECT_EQ(readFile(path), readFile(path2));
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(TraceWriter, MetaBlockIsEmbedded)
{
    const std::string path = tmpPath("meta");
    json::Value meta = json::Value::object();
    meta["tool"] = "unit-test";
    meta["seed"] = static_cast<uint64_t>(42);
    {
        TraceWriter w;
        ASSERT_TRUE(w.open(path, &meta));
        w.completeSpan(1, 1, "x", 0, 1);
        w.close();
    }
    const json::Value root = json::Value::parse(readFile(path));
    const json::Value *m = root.find("meta");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->find("tool")->asString(), "unit-test");
    EXPECT_EQ(m->find("seed")->asUint(), 42u);
    std::remove(path.c_str());
}

TEST(TraceWriter, EscapesSpanNamesAndArgs)
{
    const std::string path = tmpPath("escape");
    json::Value args = json::Value::object();
    args["k\"ey"] = "va\\l\nue";
    {
        TraceWriter w;
        ASSERT_TRUE(w.open(path));
        w.completeSpan(1, 1, "quo\"te\\back\nnl\ttab", 0, 1, &args);
        w.instant(1, 1, std::string(1, '\x01') + "ctl", 2);
        w.close();
    }
    const std::vector<json::Value> events = traceEvents(path);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].find("name")->asString(),
              "quo\"te\\back\nnl\ttab");
    EXPECT_EQ(events[0].find("args")->find("k\"ey")->asString(),
              "va\\l\nue");
    EXPECT_EQ(events[1].find("name")->asString(),
              std::string(1, '\x01') + "ctl");
    std::remove(path.c_str());
}

TEST(TraceWriter, NestedAndOverlappingSpans)
{
    const std::string path = tmpPath("spans");
    {
        TraceWriter w;
        ASSERT_TRUE(w.open(path));
        // Nested B/E pair on tid 1: outer [0,100], inner [10,40].
        w.beginSpan(1, 1, "outer", 0);
        w.beginSpan(1, 1, "inner", 10);
        w.endSpan(1, 1, 40);
        w.endSpan(1, 1, 100);
        // Overlapping complete spans on two tids.
        w.completeSpan(1, 2, "left", 0, 60);
        w.completeSpan(1, 3, "right", 30, 60);
        w.close();
    }
    const std::vector<json::Value> events = traceEvents(path);
    ASSERT_EQ(events.size(), 6u);

    // B/E nesting: per-tid stack discipline with increasing ts.
    EXPECT_EQ(events[0].find("ph")->asString(), "B");
    EXPECT_EQ(events[0].find("name")->asString(), "outer");
    EXPECT_EQ(events[1].find("ph")->asString(), "B");
    EXPECT_EQ(events[1].find("name")->asString(), "inner");
    EXPECT_EQ(events[2].find("ph")->asString(), "E");
    EXPECT_EQ(events[3].find("ph")->asString(), "E");
    EXPECT_GT(events[2].find("ts")->asUint(),
              events[1].find("ts")->asUint());
    EXPECT_GT(events[3].find("ts")->asUint(),
              events[2].find("ts")->asUint());

    // Overlap lives on distinct tids of the same pid.
    EXPECT_EQ(events[4].find("tid")->asInt(), 2);
    EXPECT_EQ(events[5].find("tid")->asInt(), 3);
    const uint64_t left_end = events[4].find("ts")->asUint() +
        events[4].find("dur")->asUint();
    EXPECT_GT(left_end, events[5].find("ts")->asUint());
    std::remove(path.c_str());
}

TEST(TraceWriter, CounterTracks)
{
    const std::string path = tmpPath("counters");
    {
        TraceWriter w;
        ASSERT_TRUE(w.open(path));
        for (int i = 0; i < 4; ++i)
            w.counter(1, "IPC", 10u * i, "IPC", 0.5 + 0.1 * i);
        w.counter(1, "l2HitRate", 10, "l2HitRate", 0.9);
        w.close();
    }
    const std::vector<json::Value> events = traceEvents(path);
    ASSERT_EQ(events.size(), 5u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].find("ph")->asString(), "C");
        EXPECT_EQ(events[i].find("name")->asString(), "IPC");
        EXPECT_EQ(events[i].find("ts")->asUint(), 10u * i);
        EXPECT_DOUBLE_EQ(
            events[i].find("args")->find("IPC")->asDouble(),
            0.5 + 0.1 * i);
    }
    EXPECT_EQ(events[4].find("name")->asString(), "l2HitRate");
    std::remove(path.c_str());
}

TEST(TraceWriter, FileIsValidJsonWhileStillOpen)
{
    const std::string path = tmpPath("openvalid");
    TraceWriter w;
    ASSERT_TRUE(w.open(path));
    // Force past a periodic flush boundary.
    for (uint64_t i = 0; i < TraceWriter::kFlushEvery + 3; ++i)
        w.completeSpan(1, 1, "e", i, 1);
    w.flush();
    const json::Value root = json::Value::parse(readFile(path));
    EXPECT_EQ(root.find("traceEvents")->size(),
              TraceWriter::kFlushEvery + 3);

    // More events after the flush overwrite the tail cleanly.
    w.completeSpan(1, 1, "tail", 999, 1);
    w.close();
    const json::Value full = json::Value::parse(readFile(path));
    EXPECT_EQ(full.find("traceEvents")->size(),
              TraceWriter::kFlushEvery + 4);
    std::remove(path.c_str());
}

/**
 * The satellite fix: an aborted run must still leave a loadable trace.
 * Fork a child that opens a trace, writes events and abort()s without
 * any cleanup; the SIGABRT panic-flush hook must leave valid JSON.
 */
TEST(TraceWriter, AbortedProcessLeavesValidJson)
{
    const std::string path = tmpPath("abort");
    std::fflush(nullptr); // don't duplicate buffered test output
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ScopedTracer guard;
        guard->openTrace(path);
        guard->beginRun("aborted-run");
        for (int i = 0; i < 10; ++i)
            guard->counterSample("IPC", 100u * i, 1.0);
        std::abort(); // no endRun, no finalize, no close
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGABRT);

    const json::Value root = json::Value::parse(readFile(path));
    const json::Value *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    size_t counters = 0;
    for (const json::Value &e : events->items()) {
        if (e.find("ph")->asString() == "C")
            ++counters;
    }
    EXPECT_EQ(counters, 10u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tracer facade

TEST(Tracer, DisabledByDefaultAndZeroGranularity)
{
    ScopedTracer guard;
    EXPECT_FALSE(guard->enabled());
    EXPECT_FALSE(guard->traceOn());
    EXPECT_FALSE(guard->auditOn());
    EXPECT_EQ(guard->sampleGranularity(), 0u);

    // Samples and bandit steps are dropped without error.
    guard->counterSample("IPC", 100, 1.0);
    BanditStepRecord rec;
    rec.algorithm = "DUCB";
    guard->banditStep(rec);
    EXPECT_TRUE(guard->samples().empty() ||
                guard->samples().begin()->second.samples().empty());
}

TEST(Tracer, SamplerRecordsRunLabeledTimeSeries)
{
    const std::string audit = tmpPath("sampler_audit");
    ScopedTracer guard;
    ASSERT_TRUE(guard->openAudit(audit)); // enabled_ without a trace file
    guard->beginRun("app/pf");
    guard->counterSample("IPC", 1000, 0.8);
    guard->counterSample("IPC", 2000, 0.9);
    guard->endRun(2000);
    guard->beginRun("app/other");
    guard->counterSample("IPC", 500, 0.4);
    guard->endRun(500);

    const auto &samples = guard->samples();
    ASSERT_EQ(samples.count("app/pf:IPC"), 1u);
    ASSERT_EQ(samples.count("app/other:IPC"), 1u);
    const TimeSeries &first = samples.at("app/pf:IPC");
    ASSERT_EQ(first.samples().size(), 2u);
    EXPECT_DOUBLE_EQ(first.samples()[0].first, 1000.0);
    EXPECT_DOUBLE_EQ(first.samples()[0].second, 0.8);
    guard->finalize();
    std::remove(audit.c_str());
}

TEST(Tracer, SequentialRunsAreLaidOutBackToBack)
{
    const std::string path = tmpPath("runs");
    {
        ScopedTracer guard;
        ASSERT_TRUE(guard->openTrace(path));
        guard->beginRun("run-a");
        guard->counterSample("IPC", 1000, 1.0);
        guard->endRun(1000);
        guard->beginRun("run-b");
        guard->counterSample("IPC", 400, 2.0);
        guard->endRun(400);
    }
    const std::vector<json::Value> events = traceEvents(path);
    uint64_t run_a_end = 0, run_b_ts = 0;
    bool saw_a = false, saw_b = false;
    for (const json::Value &e : events) {
        const json::Value *name = e.find("name");
        if (!name)
            continue;
        if (name->asString() == "run-a") {
            saw_a = true;
            run_a_end = e.find("ts")->asUint() +
                e.find("dur")->asUint();
        } else if (name->asString() == "run-b") {
            saw_b = true;
            run_b_ts = e.find("ts")->asUint();
        }
    }
    ASSERT_TRUE(saw_a);
    ASSERT_TRUE(saw_b);
    // run-b starts after run-a ends on the shared virtual timeline.
    EXPECT_GT(run_b_ts, run_a_end);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Bandit decision audit log

/** Drive @p agent through @p steps bandit steps (stepUnits=4). */
void
driveAgent(BanditAgent &agent, int steps)
{
    uint64_t instr = 0, cycles = 0;
    for (int s = 0; s < steps; ++s) {
        instr += 300 + 10 * s;
        cycles += 400;
        agent.tick(4, instr, cycles);
    }
}

std::vector<json::Value>
auditRecords(const std::string &path)
{
    std::ifstream in(path);
    std::vector<json::Value> records;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            records.push_back(json::Value::parse(line));
    }
    return records;
}

struct AuditCase
{
    MabAlgorithm algo;
    const char *name;
};

class AuditLogSchema : public testing::TestWithParam<AuditCase>
{
};

TEST_P(AuditLogSchema, OneWellFormedRecordPerStep)
{
    const AuditCase &c = GetParam();
    const std::string path = tmpPath(std::string("audit_") + c.name);

    constexpr int kArms = 3;
    constexpr int kSteps = 8;
    {
        ScopedTracer guard;
        ASSERT_TRUE(guard->openAudit(path));

        MabConfig cfg;
        cfg.numArms = kArms;
        cfg.seed = 7;
        BanditHwConfig hw;
        hw.stepUnits = 4;
        hw.selectionLatencyCycles = 0;
        BanditAgent agent(makePolicy(c.algo, cfg), hw);
        driveAgent(agent, kSteps);
    }

    const std::vector<json::Value> records = auditRecords(path);
    ASSERT_EQ(records.size(), static_cast<size_t>(kSteps));
    uint64_t prev_cycle = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        const json::Value &r = records[i];
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(r.find("algo")->asString(), c.name);
        EXPECT_EQ(r.find("agent")->asString(),
                  std::string(c.name) + "#0");
        EXPECT_EQ(r.find("step")->asUint(), i + 1);

        // Step window: monotone, contiguous cycles.
        const uint64_t start = r.find("startCycle")->asUint();
        const uint64_t end = r.find("cycle")->asUint();
        EXPECT_EQ(start, prev_cycle);
        EXPECT_GT(end, start);
        prev_cycle = end;

        const int64_t arm = r.find("arm")->asInt();
        const int64_t next = r.find("nextArm")->asInt();
        EXPECT_GE(arm, 0);
        EXPECT_LT(arm, kArms);
        EXPECT_GE(next, 0);
        EXPECT_LT(next, kArms);
        EXPECT_GT(r.find("reward")->asDouble(), 0.0);

        // Discount state and boolean round-robin markers.
        ASSERT_NE(r.find("rr"), nullptr);
        ASSERT_NE(r.find("restart"), nullptr);
        EXPECT_GT(r.find("nTotal")->asDouble(), 0.0);
        EXPECT_GT(r.find("gamma")->asDouble(), 0.0);

        // Per-arm table: value estimate, count and selection score.
        const json::Value *arms = r.find("arms");
        ASSERT_NE(arms, nullptr);
        ASSERT_EQ(arms->size(), static_cast<size_t>(kArms));
        for (const json::Value &a : arms->items()) {
            ASSERT_NE(a.find("r"), nullptr);
            ASSERT_NE(a.find("n"), nullptr);
            ASSERT_NE(a.find("score"), nullptr);
        }
    }

    // The first numArms steps are the initial round-robin phase: each
    // arm is tried exactly once, in some order.
    std::set<int64_t> rr_arms;
    for (int i = 0; i < kArms; ++i) {
        EXPECT_TRUE(records[i].find("rr")->asBool() ||
                    i == kArms - 1);
        rr_arms.insert(records[i].find("arm")->asInt());
    }
    EXPECT_EQ(rr_arms.size(), static_cast<size_t>(kArms));
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AuditLogSchema,
    testing::Values(AuditCase{MabAlgorithm::Ducb, "DUCB"},
                    AuditCase{MabAlgorithm::SwUcb, "SW-UCB"},
                    AuditCase{MabAlgorithm::Ucb, "UCB"},
                    AuditCase{MabAlgorithm::EpsilonGreedy, "eGreedy"},
                    AuditCase{MabAlgorithm::Thompson, "Thompson"}),
    [](const testing::TestParamInfo<AuditCase> &info) {
        std::string name = info.param.name;
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(AuditLog, RestartIsFlaggedWhenRoundRobinReenters)
{
    const std::string path = tmpPath("audit_restart");
    {
        ScopedTracer guard;
        ASSERT_TRUE(guard->openAudit(path));
        MabConfig cfg;
        cfg.numArms = 2;
        cfg.rrRestartProb = 0.5; // restarts virtually certain in 200
        cfg.seed = 11;
        BanditHwConfig hw;
        hw.stepUnits = 1;
        BanditAgent agent(makePolicy(MabAlgorithm::Ducb, cfg), hw);
        driveAgent(agent, 200);
    }
    const std::vector<json::Value> records = auditRecords(path);
    ASSERT_EQ(records.size(), 200u);
    size_t restarts = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].find("restart")->asBool()) {
            ++restarts;
            // A restart record re-enters the round-robin phase.
            EXPECT_TRUE(records[i].find("rr")->asBool())
                << "record " << i;
        }
    }
    EXPECT_GT(restarts, 0u);
    std::remove(path.c_str());
}

TEST(AuditLog, TraceFileGetsArmSpansAndCounterTrack)
{
    const std::string trace_path = tmpPath("bandit_trace");
    {
        ScopedTracer guard;
        ASSERT_TRUE(guard->openTrace(trace_path));
        MabConfig cfg;
        cfg.numArms = 2;
        BanditHwConfig hw;
        hw.stepUnits = 4;
        BanditAgent agent(makePolicy(MabAlgorithm::Ducb, cfg), hw);
        driveAgent(agent, 6);
    }
    const std::vector<json::Value> events = traceEvents(trace_path);
    size_t arm_spans = 0, arm_counters = 0;
    for (const json::Value &e : events) {
        const std::string ph = e.find("ph")->asString();
        const json::Value *name = e.find("name");
        if (ph == "X" && name &&
            name->asString().rfind("arm", 0) == 0) {
            ++arm_spans;
            EXPECT_EQ(e.find("tid")->asInt(), kTidBanditBase);
            ASSERT_NE(e.find("args"), nullptr);
            EXPECT_NE(e.find("args")->find("reward"), nullptr);
            EXPECT_NE(e.find("args")->find("nextArm"), nullptr);
        }
        if (ph == "C" && name && name->asString() == "DUCB#0:arm")
            ++arm_counters;
    }
    EXPECT_EQ(arm_spans, 6u);
    EXPECT_EQ(arm_counters, 6u);

    // The agent's track is named in the metadata.
    bool named = false;
    for (const json::Value &e : traceEvents(trace_path, true)) {
        const json::Value *args = e.find("args");
        if (e.find("ph")->asString() == "M" && args &&
            args->find("name") &&
            args->find("name")->asString() == "bandit DUCB#0") {
            named = true;
        }
    }
    EXPECT_TRUE(named);
    std::remove(trace_path.c_str());
}

} // namespace
} // namespace mab::tracing
