#ifndef MAB_SIM_TRACING_H
#define MAB_SIM_TRACING_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
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
 * Time-resolved tracing layer (the observability tentpole of ISSUE 2).
 *
 * Three cooperating pieces, all zero-overhead when disabled (one
 * pointer load + predictable branch on the hot paths):
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
 *    per bandit step), the interval sampler (bounded TimeSeries tracks
 *    mirrored as counter events) and the phase profiler. Components
 *    reach it through Tracer::global(); tests install a private
 *    instance with ScopedTracer.
 *
 *  - PhaseProfiler / ScopedPhase: RAII wall-clock timers around the
 *    simulator hot paths (core tick, cache access, prefetch issue,
 *    bandit update, SMT cycle). The accumulated breakdown is exported
 *    as a "profile" subtree in the JSON stats report and, when a trace
 *    file is open, as per-interval duration spans on a wall-clock
 *    process timeline.
 *
 * Timelines: events on the virtual timeline use simulated cycles as
 * the trace "ts" (1 cycle = 1 us in the viewer) under process id
 * kPidCycles; profiler spans use wall-clock microseconds under
 * kPidWall. Sequential runs within one bench process are laid out
 * back-to-back on the virtual timeline via a per-run ts offset
 * (beginRun()/endRun()), so a whole bench sweep reads as one
 * navigable timeline.
 */

/** Process ids separating the two timelines in the trace viewer. */
constexpr int kPidCycles = 1; ///< virtual time, ts = simulated cycles
constexpr int kPidWall = 2;   ///< wall clock, ts = microseconds

/** Thread track (on kPidCycles) holding one span per bench run. */
constexpr int kTidRuns = 1;

/** First thread track for bandit agents; agent i gets tid base+i. */
constexpr int kTidBanditBase = 10;

/** Profiled simulator phases (fixed set; see phaseName()). */
enum class Phase
{
    CoreTick,      ///< CoreModel::stepOne (inclusive)
    CacheAccess,   ///< CacheHierarchy::demandAccess
    PrefetchIssue, ///< prefetcher training + queue issue (inclusive)
    BanditUpdate,  ///< MAB policy observeReward + selectArm
    SmtCycle,      ///< SmtPipeline::advance (inclusive): one cycle
                   ///< plus the quiescent cycles it skips, so the
                   ///< phase count is advances, not cycles
    kCount,
};

/** Stable lower-camel name of @p p ("coreTick", "banditUpdate"). */
const char *phaseName(Phase p);

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

/** Wall-clock totals of one profiled phase. */
struct PhaseTotals
{
    uint64_t count = 0;
    uint64_t totalNs = 0;
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

    /**
     * Fast-path probe for per-instruction call sites: true when the
     * global tracer has profiling on. One plain bool load — branch on
     * it before constructing a ScopedPhase so the disabled path keeps
     * a scope with no cleanup obligations.
     */
    static bool profileActive() { return profileActive_; }

    /** Any feature on (trace file, audit log, or profiler). */
    bool enabled() const { return enabled_; }
    bool traceOn() const { return writer_.isOpen(); }
    bool auditOn() const { return audit_ != nullptr; }
    bool profileOn() const { return profile_; }

    /**
     * Open the Chrome-trace output at @p path. Also enables the
     * interval sampler and the phase profiler. @p meta becomes the
     * trace file's self-description block.
     */
    bool openTrace(const std::string &path,
                   const json::Value *meta = nullptr);

    /** Open the bandit decision audit log (JSON Lines) at @p path. */
    bool openAudit(const std::string &path);

    /** Enable the phase profiler without a trace file (the "profile"
     *  subtree of the JSON report). */
    void enableProfile();

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

    /** Accumulate @p ns into @p p (called by ~ScopedPhase). */
    void addPhaseTime(Phase p, uint64_t ns);

    /** Wall-clock now in ns (overridable for deterministic tests). */
    uint64_t nowNs() const;

    /** Inject a fake clock (tests); nullptr restores steady_clock. */
    void setClock(std::function<uint64_t()> nowNs);

    /** Sampled time-series tracks, keyed by track name. */
    const std::map<std::string, TimeSeries> &
    samples() const
    {
        return samples_;
    }

    const std::array<PhaseTotals,
                     static_cast<size_t>(Phase::kCount)> &
    phaseTotals() const
    {
        return phases_;
    }

    /**
     * Export the profiler breakdown under @p prefix ("profile"):
     * per-phase count / totalNs / meanNs. Inclusive times — nested
     * phases (cache access inside a core tick) count in both.
     */
    void exportProfile(StatsRegistry &reg,
                       const std::string &prefix = "profile") const;

    /** Same breakdown as a JSON subtree (bench --json reports). */
    json::Value profileJson() const;

    TraceWriter &writer() { return writer_; }

  private:
    // Helpers suffixed "Locked" must be called with mu_ held.
    void emitPhaseSpansLocked();
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
    bool profile_ = false;
    bool samplingOn_ = false;
    uint64_t granularity_ = 10000;

    TraceWriter writer_;
    std::FILE *audit_ = nullptr;
    std::string auditPath_;

    std::function<uint64_t()> clock_;

    /**
     * Serializes every sink (trace writer, audit log, sample store,
     * phase totals) and the run-scope table. Uncontended in serial
     * runs and never touched on the tracing-off hot paths (all entry
     * points are gated on enabled_/profileActive_ before locking).
     */
    mutable std::mutex mu_;

    // Virtual-timeline layout of runs: one scope per active thread,
    // plus the offset of the last ended run so late events (emitted
    // between runs) keep the previous run's frame, as before.
    std::map<std::thread::id, RunScope> runScopes_;
    uint64_t maxTs_ = 0;
    uint64_t fallbackOffset_ = 0;
    uint64_t runIndex_ = 0;

    std::map<std::string, TimeSeries> samples_;

    // Bandit agents seen so far -> their thread track on kPidCycles.
    std::map<const void *, int> agentTids_;

    std::array<PhaseTotals, static_cast<size_t>(Phase::kCount)>
        phases_{};
    std::array<uint64_t, static_cast<size_t>(Phase::kCount)>
        phaseEmittedNs_{};
    uint64_t wallStartNs_ = 0;

    static Tracer *current_;

    /**
     * Fast-path mirror of global().profileOn(), refreshed whenever a
     * tracer feature toggles or the global instance changes. Lets
     * ScopedPhase skip the Tracer::global() call (function-local
     * static guard + non-inlined call) on the per-instruction paths
     * when profiling is off — one plain bool load instead.
     */
    static inline bool profileActive_ = false;
    static void refreshFastFlags() { profileActive_ = global().profileOn(); }

    friend class ScopedPhase;
};

/**
 * RAII wall-clock timer around one simulator phase. When profiling is
 * off the constructor is a pointer load and one branch — cheap enough
 * for per-instruction call sites.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase p)
    {
        if (Tracer::profileActive_) {
            Tracer &t = Tracer::global();
            tracer_ = &t;
            phase_ = p;
            startNs_ = t.nowNs();
        }
    }

    ~ScopedPhase()
    {
        if (tracer_)
            tracer_->addPhaseTime(phase_, tracer_->nowNs() - startNs_);
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Tracer *tracer_ = nullptr;
    Phase phase_ = Phase::CoreTick;
    uint64_t startNs_ = 0;
};

/**
 * Drop-in ScopedPhase stand-in that compiles to nothing. Hot loops
 * templated on a Profiled flag pick between the two with
 * std::conditional_t, so the untraced instantiation is byte-identical
 * to a build without any instrumentation.
 */
class NoopPhase
{
  public:
    explicit NoopPhase(Phase) {}
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
