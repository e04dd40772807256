#include "sim/tracing.h"

#include <csignal>
#include <cstdlib>

namespace mab::tracing {

namespace {

/**
 * Open writers, for the crash/exit flush path. Trace files are opened
 * and closed from the harness thread (before/after sweeps), never from
 * pool workers, so a plain vector suffices.
 */
std::vector<TraceWriter *> &
openWriters()
{
    static std::vector<TraceWriter *> writers;
    return writers;
}

/**
 * Leave every open trace file as valid JSON. fwrite/fflush are not
 * async-signal-safe in general; for a crashing simulator run a
 * best-effort flush beats an unloadable trace.
 */
void
panicFlushAll()
{
    for (TraceWriter *w : openWriters())
        w->flush();
    // Audit logs are line-buffered JSONL: flushing stdio makes them
    // valid up to the last complete record.
    std::fflush(nullptr);
}

void
crashHandler(int sig)
{
    panicFlushAll();
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
installFlushHooksOnce()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    std::atexit(panicFlushAll);
    std::signal(SIGABRT, crashHandler);
    std::signal(SIGINT, crashHandler);
    std::signal(SIGTERM, crashHandler);
}

void
registerWriter(TraceWriter *w)
{
    installFlushHooksOnce();
    openWriters().push_back(w);
}

void
unregisterWriter(TraceWriter *w)
{
    auto &v = openWriters();
    for (size_t i = 0; i < v.size(); ++i) {
        if (v[i] == w) {
            v.erase(v.begin() + static_cast<long>(i));
            return;
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::~TraceWriter()
{
    close();
}

bool
TraceWriter::open(const std::string &path, const json::Value *meta)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return false;
    path_ = path;
    events_ = 0;
    sinceFlush_ = 0;

    std::string header = "{";
    if (meta) {
        header += "\"meta\":";
        header += meta->dump(0);
        header += ",";
    }
    header += "\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
        header.size()) {
        std::fclose(file_);
        file_ = nullptr;
        return false;
    }
    registerWriter(this);
    flush(); // valid JSON from the first byte on disk
    return true;
}

void
TraceWriter::emit(const json::Value &event)
{
    if (!file_)
        return;
    std::string line = events_ == 0 ? "\n" : ",\n";
    line += event.dump(0);
    // One fwrite per event keeps the stdio buffer at an event
    // boundary, so a crash flush always yields parseable JSON.
    std::fwrite(line.data(), 1, line.size(), file_);
    ++events_;
    if (++sinceFlush_ >= kFlushEvery)
        flush();
}

void
TraceWriter::completeSpan(int pid, int tid, const std::string &name,
                          uint64_t tsUs, uint64_t durUs,
                          const json::Value *args)
{
    json::Value e = json::Value::object();
    e["ph"] = "X";
    e["pid"] = pid;
    e["tid"] = tid;
    e["name"] = name;
    e["ts"] = tsUs;
    e["dur"] = durUs;
    if (args)
        e["args"] = *args;
    emit(e);
}

void
TraceWriter::beginSpan(int pid, int tid, const std::string &name,
                       uint64_t tsUs, const json::Value *args)
{
    json::Value e = json::Value::object();
    e["ph"] = "B";
    e["pid"] = pid;
    e["tid"] = tid;
    e["name"] = name;
    e["ts"] = tsUs;
    if (args)
        e["args"] = *args;
    emit(e);
}

void
TraceWriter::endSpan(int pid, int tid, uint64_t tsUs)
{
    json::Value e = json::Value::object();
    e["ph"] = "E";
    e["pid"] = pid;
    e["tid"] = tid;
    e["ts"] = tsUs;
    emit(e);
}

void
TraceWriter::counter(int pid, const std::string &name, uint64_t tsUs,
                     const std::string &series, double value)
{
    json::Value e = json::Value::object();
    e["ph"] = "C";
    e["pid"] = pid;
    e["name"] = name;
    e["ts"] = tsUs;
    json::Value args = json::Value::object();
    args[series] = value;
    e["args"] = std::move(args);
    emit(e);
}

void
TraceWriter::instant(int pid, int tid, const std::string &name,
                     uint64_t tsUs, const json::Value *args)
{
    json::Value e = json::Value::object();
    e["ph"] = "i";
    e["pid"] = pid;
    e["tid"] = tid;
    e["name"] = name;
    e["ts"] = tsUs;
    e["s"] = "t";
    if (args)
        e["args"] = *args;
    emit(e);
}

void
TraceWriter::processName(int pid, const std::string &name)
{
    json::Value e = json::Value::object();
    e["ph"] = "M";
    e["pid"] = pid;
    e["name"] = "process_name";
    json::Value args = json::Value::object();
    args["name"] = name;
    e["args"] = std::move(args);
    emit(e);
}

void
TraceWriter::threadName(int pid, int tid, const std::string &name)
{
    json::Value e = json::Value::object();
    e["ph"] = "M";
    e["pid"] = pid;
    e["tid"] = tid;
    e["name"] = "thread_name";
    json::Value args = json::Value::object();
    args["name"] = name;
    e["args"] = std::move(args);
    emit(e);
}

void
TraceWriter::flush()
{
    if (!file_)
        return;
    const long pos = std::ftell(file_);
    std::fputs("\n]}", file_);
    std::fflush(file_);
    if (pos >= 0)
        std::fseek(file_, pos, SEEK_SET);
    sinceFlush_ = 0;
}

void
TraceWriter::close()
{
    if (!file_)
        return;
    std::fputs("\n]}", file_);
    std::fclose(file_);
    file_ = nullptr;
    unregisterWriter(this);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer *Tracer::current_ = nullptr;

namespace {
Tracer &
defaultTracer()
{
    static Tracer t;
    return t;
}
} // namespace

Tracer &
Tracer::global()
{
    return current_ ? *current_ : defaultTracer();
}

void
Tracer::setGlobal(Tracer *t)
{
    current_ = t;
}

Tracer::~Tracer()
{
    finalize();
}

bool
Tracer::openTrace(const std::string &path, const json::Value *meta)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!writer_.open(path, meta))
        return false;
    enabled_ = true;
    samplingOn_ = true;

    writer_.processName(kPidCycles, "simulation (virtual cycles)");
    writer_.threadName(kPidCycles, kTidRuns, "runs");
    return true;
}

bool
Tracer::openAudit(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (audit_) {
        std::fclose(audit_);
        audit_ = nullptr;
    }
    audit_ = std::fopen(path.c_str(), "wb");
    if (!audit_)
        return false;
    installFlushHooksOnce();
    enabled_ = true;
    return true;
}

void
Tracer::setGranularity(uint64_t cycles)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (cycles > 0)
        granularity_ = cycles;
}

void
Tracer::finalize()
{
    std::lock_guard<std::mutex> lock(mu_);
    writer_.close();
    if (audit_) {
        std::fclose(audit_);
        audit_ = nullptr;
    }
    samplingOn_ = false;
    enabled_ = false;
}

uint64_t
Tracer::toTsLocked(uint64_t cycle)
{
    auto it = runScopes_.find(std::this_thread::get_id());
    const uint64_t offset =
        it != runScopes_.end() ? it->second.tsOffset : fallbackOffset_;
    const uint64_t ts = offset + cycle;
    if (ts > maxTs_)
        maxTs_ = ts;
    return ts;
}

void
Tracer::beginRun(const std::string &label)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    RunScope &scope = runScopes_[std::this_thread::get_id()];
    scope.tsOffset = maxTs_ == 0 ? 0 : maxTs_ + 1;
    scope.startTs = scope.tsOffset;
    scope.label = label;
}

void
Tracer::endRun(uint64_t cycles)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t end = toTsLocked(cycles);
    RunScope &scope = runScopes_[std::this_thread::get_id()];
    if (writer_.isOpen()) {
        writer_.completeSpan(kPidCycles, kTidRuns,
                             scope.label.empty() ? "run" : scope.label,
                             scope.startTs, end - scope.startTs);
    }
    // Events emitted between runs keep the last run's frame: the
    // scope stays mapped (label cleared) and threads without a scope
    // inherit its offset.
    scope.label.clear();
    fallbackOffset_ = scope.tsOffset;
}

void
Tracer::counterSample(const std::string &track, uint64_t cycle,
                      double value)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    auto scopeIt = runScopes_.find(std::this_thread::get_id());
    const std::string key =
        scopeIt == runScopes_.end() || scopeIt->second.label.empty()
            ? track
            : scopeIt->second.label + ":" + track;
    auto it = samples_.find(key);
    if (it == samples_.end())
        it = samples_.emplace(key, TimeSeries()).first;
    it->second.add(static_cast<double>(cycle), value);

    if (writer_.isOpen())
        writer_.counter(kPidCycles, key, toTsLocked(cycle), track, value);
}

int
Tracer::agentTidLocked(const BanditStepRecord &rec)
{
    auto it = agentTids_.find(rec.agentKey);
    if (it != agentTids_.end())
        return it->second;
    const int tid =
        kTidBanditBase + static_cast<int>(agentTids_.size());
    agentTids_.emplace(rec.agentKey, tid);
    if (writer_.isOpen()) {
        writer_.threadName(kPidCycles, tid,
                           "bandit " + rec.algorithm + "#" +
                               std::to_string(tid - kTidBanditBase));
    }
    return tid;
}

void
Tracer::banditStep(const BanditStepRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    const int tid = agentTidLocked(rec);
    const std::string label =
        rec.algorithm + "#" + std::to_string(tid - kTidBanditBase);

    if (audit_) {
        json::Value line = json::Value::object();
        line["agent"] = label;
        line["algo"] = rec.algorithm;
        line["step"] = rec.step;
        line["startCycle"] = rec.startCycle;
        line["cycle"] = rec.endCycle;
        line["arm"] = rec.arm;
        line["reward"] = rec.reward;
        line["nextArm"] = rec.nextArm;
        line["rr"] = rec.inRoundRobin;
        line["restart"] = rec.restarted;
        line["nTotal"] = rec.nTotal;
        line["gamma"] = rec.gamma;
        json::Value arms = json::Value::array();
        for (size_t i = 0; i < rec.armReward.size(); ++i) {
            json::Value a = json::Value::object();
            a["r"] = rec.armReward[i];
            a["n"] = i < rec.armCount.size() ? rec.armCount[i] : 0.0;
            a["score"] =
                i < rec.armScore.size() ? rec.armScore[i] : 0.0;
            arms.push(std::move(a));
        }
        line["arms"] = std::move(arms);
        const std::string text = line.dump(0) + "\n";
        std::fwrite(text.data(), 1, text.size(), audit_);
    }

    if (writer_.isOpen()) {
        const uint64_t start = toTsLocked(rec.startCycle);
        const uint64_t end = toTsLocked(rec.endCycle);
        json::Value args = json::Value::object();
        args["reward"] = rec.reward;
        args["nextArm"] = rec.nextArm;
        writer_.completeSpan(kPidCycles, tid,
                             "arm" + std::to_string(rec.arm), start,
                             end > start ? end - start : 0, &args);
        writer_.counter(kPidCycles, label + ":arm", end, "arm",
                        static_cast<double>(rec.nextArm));
        if (rec.restarted)
            writer_.instant(kPidCycles, tid, "rr-restart", end);
    }
}

} // namespace mab::tracing
