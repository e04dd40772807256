#ifndef MAB_SIM_TRACING_H
#define MAB_SIM_TRACING_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/json.h"
#include "sim/stats_registry.h"

namespace mab::tracing {

/** Tool version stamped into trace files and report meta blocks. */
constexpr const char *kToolVersion = "0.3.0";

/**
 * Time-resolved tracing layer.
 *
 * Two cooperating pieces, both off by default. Nothing here is
 * consulted per instruction or per cycle: a simulator reads
 * Tracer::sampleGranularity() once per run, and a bandit agent tests
 * auditOn()/traceOn() once per bandit step.
 *
 *  - TraceWriter: a streaming Chrome trace-event JSON writer
 *    (chrome://tracing / Perfetto "JSON" format) emitting duration
 *    spans, counter tracks, instant events and process/thread
 *    metadata. The file is kept parseable at every flush point by
 *    writing the closing "]}"-tail and seeking back over it before the
 *    next event, so a crashed or aborted run still leaves a loadable
 *    trace (an atexit hook and SIGABRT/SIGINT/SIGTERM handlers force a
 *    final flush).
 *
 *  - Tracer: the simulation-wide facade. Owns the optional trace
 *    writer, the optional bandit decision audit log (JSONL, one record
 *    per bandit step) and the interval sampler (bounded TimeSeries
 *    tracks mirrored as counter events). Components reach it through
 *    Tracer::global(); tests install a private instance with
 *    ScopedTracer.
 *
 * Timeline: every event uses simulated cycles as the trace "ts"
 * (1 cycle = 1 us in the viewer) under process id kPidCycles.
 * Sequential runs within one bench process are laid out back-to-back
 * via a per-run ts offset (beginRun()/endRun()), so a whole bench
 * sweep reads as one navigable timeline.
 */

/** Process id of the virtual timeline: ts = simulated cycles. */
constexpr int kPidCycles = 1;

/** Thread track (on kPidCycles) holding one span per bench run. */
constexpr int kTidRuns = 1;

/** First thread track for bandit agents; agent i gets tid base+i. */
constexpr int kTidBanditBase = 10;

/**
 * Streaming Chrome trace-event JSON writer.
 *
 * Layout: {"meta":{...},"displayTimeUnit":"ms","traceEvents":[e,e,...]}
 * Every event is serialized through json::Value (correct escaping) and
 * written in one fwrite, so the file always ends at an event boundary;
 * flush() appends the closing tail, flushes stdio, and seeks back so
 * the next event overwrites it. Timestamps are caller-provided
 * microseconds (the Tracer maps cycles 1:1).
 */
class TraceWriter
{
  public:
    TraceWriter() = default;
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /**
     * Open @p path and write the header. @p meta (optional) is stored
     * as the top-level "meta" object, making the file self-describing.
     * Returns false on I/O failure.
     */
    bool open(const std::string &path,
              const json::Value *meta = nullptr);

    bool isOpen() const { return file_ != nullptr; }
    const std::string &path() const { return path_; }
    uint64_t eventsWritten() const { return events_; }

    /** Complete duration event (ph "X"): [ts, ts+dur] on pid/tid. */
    void completeSpan(int pid, int tid, const std::string &name,
                      uint64_t tsUs, uint64_t durUs,
                      const json::Value *args = nullptr);

    /** Begin/end pair (ph "B"/"E") for spans whose end is not known
     *  up front; nesting per tid follows call order. */
    void beginSpan(int pid, int tid, const std::string &name,
                   uint64_t tsUs, const json::Value *args = nullptr);
    void endSpan(int pid, int tid, uint64_t tsUs);

    /** Counter sample (ph "C"): one series named @p series under the
     *  counter track @p name. */
    void counter(int pid, const std::string &name, uint64_t tsUs,
                 const std::string &series, double value);

    /** Thread-scoped instant event (ph "i"). */
    void instant(int pid, int tid, const std::string &name,
                 uint64_t tsUs, const json::Value *args = nullptr);

    /** Process / thread naming metadata (ph "M"). */
    void processName(int pid, const std::string &name);
    void threadName(int pid, int tid, const std::string &name);

    /**
     * Make the on-disk file valid JSON without closing it: write the
     * "\n]}" tail, fflush, seek back. Called periodically (every
     * kFlushEvery events), from finalize paths, and from the
     * crash handlers.
     */
    void flush();

    /** Final flush + fclose. Idempotent. */
    void close();

    static constexpr uint64_t kFlushEvery = 256;

  private:
    void emit(const json::Value &event);

    std::FILE *file_ = nullptr;
    std::string path_;
    uint64_t events_ = 0;
    uint64_t sinceFlush_ = 0;
};

/** One bandit decision, as reported by BanditAgent at each step end.
 *  Plain data only, so the core layer does not depend on tracing
 *  internals and the audit schema is explicit. */
struct BanditStepRecord
{
    /** Identity key of the reporting agent (tid/label assignment). */
    const void *agentKey = nullptr;
    std::string algorithm;     ///< policy name ("DUCB", "SW-UCB", ...)
    uint64_t step = 0;         ///< completed bandit steps (1-based)
    uint64_t startCycle = 0;   ///< first cycle of the finished step
    uint64_t endCycle = 0;     ///< cycle the step ended
    int arm = -1;              ///< arm that ran the finished step
    double reward = 0.0;       ///< step reward fed to the policy
    int nextArm = -1;          ///< arm selected for the next step
    bool inRoundRobin = false; ///< next step is part of a RR phase
    bool restarted = false;    ///< this step triggered a RR restart
    double nTotal = 0.0;       ///< (discounted) total selection count
    double gamma = 0.0;        ///< discount factor of the policy
    std::vector<double> armReward; ///< per-arm value estimates r_i
    std::vector<double> armCount;  ///< per-arm (discounted) counts n_i
    std::vector<double> armScore;  ///< per-arm selection scores (UCB)
};

class Tracer
{
  public:
    Tracer() = default;
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The process-wide tracer components report into. */
    static Tracer &global();

    /** Install @p t as the global tracer (nullptr restores the
     *  default instance). Used by ScopedTracer in tests. */
    static void setGlobal(Tracer *t);

    /** Any sink open (trace file or audit log). */
    bool enabled() const { return enabled_; }
    bool traceOn() const { return writer_.isOpen(); }
    bool auditOn() const { return audit_ != nullptr; }

    /**
     * Open the Chrome-trace output at @p path. Also enables the
     * interval sampler. @p meta becomes the trace file's
     * self-description block.
     */
    bool openTrace(const std::string &path,
                   const json::Value *meta = nullptr);

    /** Open the bandit decision audit log (JSON Lines) at @p path. */
    bool openAudit(const std::string &path);

    /** Interval sampler period in cycles (default 10000). */
    void setGranularity(uint64_t cycles);

    /**
     * Sampler period, or 0 when sampling is off — simulators skip all
     * sampling work when this returns 0.
     */
    uint64_t
    sampleGranularity() const
    {
        return samplingOn_ ? granularity_ : 0;
    }

    /** Flush and close all sinks; further events are dropped. Safe to
     *  call more than once. */
    void finalize();

    /**
     * Lay sequential runs out back-to-back on the virtual timeline:
     * shifts the cycle->ts offset past everything emitted so far and
     * names the region @p label. endRun() draws the enclosing span.
     *
     * Run scoping is per thread: each thread of a parallel sweep
     * (sim/parallel.h) gets its own label/offset scope, so counter
     * samples and bandit steps reported from worker threads attribute
     * to the right run. All sinks are mutex-guarded; note that with
     * concurrent runs the virtual-timeline regions interleave, which
     * is why the bench harness serializes sweeps (--jobs 1) whenever
     * a trace/audit sink is open (see bench/sweep.cc:Sweep::run).
     */
    void beginRun(const std::string &label);
    void endRun(uint64_t cycles);

    /**
     * Record one interval sample: appends (cycle, value) to the
     * bounded TimeSeries @p track and mirrors it as a counter event on
     * the virtual timeline when a trace file is open.
     */
    void counterSample(const std::string &track, uint64_t cycle,
                       double value);

    /** One bandit step: audit JSONL record + step span, arm counter
     *  track and restart instants on the virtual timeline. */
    void banditStep(const BanditStepRecord &rec);

    /** Sampled time-series tracks, keyed by track name. */
    const std::map<std::string, TimeSeries> &
    samples() const
    {
        return samples_;
    }

    TraceWriter &writer() { return writer_; }

  private:
    // Helpers suffixed "Locked" must be called with mu_ held.
    int agentTidLocked(const BanditStepRecord &rec);
    uint64_t toTsLocked(uint64_t cycle);

    /** The calling thread's run scope on the virtual timeline. */
    struct RunScope
    {
        uint64_t tsOffset = 0;
        uint64_t startTs = 0;
        std::string label;
    };

    bool enabled_ = false;
    bool samplingOn_ = false;
    uint64_t granularity_ = 10000;

    TraceWriter writer_;
    std::FILE *audit_ = nullptr;

    /**
     * Serializes every sink (trace writer, audit log, sample store)
     * and the run-scope table. Uncontended in serial runs and never
     * taken with tracing off: every entry point is gated on enabled_,
     * or its caller on auditOn()/traceOn(), before locking.
     */
    std::mutex mu_;

    // Virtual-timeline layout of runs: one scope per active thread,
    // plus the offset of the last ended run so late events (emitted
    // between runs) keep the previous run's frame, as before.
    std::map<std::thread::id, RunScope> runScopes_;
    uint64_t maxTs_ = 0;
    uint64_t fallbackOffset_ = 0;

    std::map<std::string, TimeSeries> samples_;

    // Bandit agents seen so far -> their thread track on kPidCycles.
    std::map<const void *, int> agentTids_;

    static Tracer *current_;
};

/** Installs a private tracer for the current scope (tests). */
class ScopedTracer
{
  public:
    ScopedTracer() { Tracer::setGlobal(&tracer_); }
    ~ScopedTracer()
    {
        tracer_.finalize();
        Tracer::setGlobal(nullptr);
    }

    Tracer &operator*() { return tracer_; }
    Tracer *operator->() { return &tracer_; }
    Tracer &get() { return tracer_; }

  private:
    Tracer tracer_;
};

} // namespace mab::tracing

#endif // MAB_SIM_TRACING_H
