#ifndef MAB_BENCH_COMMON_H
#define MAB_BENCH_COMMON_H

/**
 * @file
 * Shared plumbing for the bench harness: prefetcher factory, run
 * helpers, and table formatting. Every bench binary regenerates one
 * table or figure of the paper (see DESIGN.md for the index) and
 * prints the same rows/series the paper reports.
 *
 * Scale: the paper simulates 1B instructions per trace and 150M
 * instructions per SMT thread; the harness defaults to ~1M-instruction
 * / ~1M-cycle runs so the full suite completes in minutes on one core.
 * Set MAB_BENCH_SCALE=<f> to multiply all run lengths (e.g. 10 for a
 * long run).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "prefetch/bingo.h"
#include "prefetch/ensemble.h"
#include "prefetch/ipcp.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
#include "prefetch/stride.h"
#include "sim/json.h"
#include "sim/parallel.h"
#include "sim/stats.h"
#include "sim/tracing.h"
#include "trace/replay.h"
#include "trace/suites.h"

namespace mab::bench {

/** Print the usage error @p err on stderr and exit 2 if it is set. */
inline void
exitOnUsageError(const std::string &err)
{
    if (!err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(2);
    }
}

/**
 * Testable core of benchScale(): the run-length multiplier named by
 * @p env (MAB_BENCH_SCALE), 1.0 when unset. The value must be one
 * whole token holding a finite number above 0; anything else is a
 * usage error naming the value, so a typo cannot silently run at
 * scale 1 or push scaled() into an out-of-range double -> uint64 cast.
 */
inline std::string
resolveScale(const char *env, double *out)
{
    *out = 1.0;
    if (!env)
        return "";
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(env, &end);
    if (std::isspace(static_cast<unsigned char>(*env)) || end == env ||
        *end != '\0' || errno == ERANGE || !std::isfinite(v) || v <= 0.0)
        return std::string("usage error: MAB_BENCH_SCALE needs a "
                           "finite number above 0, got '") +
            env + "'";
    *out = v;
    return "";
}

/** Global run-length multiplier (MAB_BENCH_SCALE, default 1.0); a bad
 *  value exits 2. */
inline double
benchScale()
{
    double scale = 1.0;
    exitOnUsageError(resolveScale(std::getenv("MAB_BENCH_SCALE"), &scale));
    return scale;
}

/**
 * Testable core of scaled(): @p n scaled by @p scale, truncated, in
 * @p out. A zero budget stays zero; a nonzero one must land in
 * [1, 2^64) — a run of no instructions would print a table of zeros,
 * and a product past 2^64 has no uint64 value at all.
 */
inline std::string
scaledBudget(uint64_t n, double scale, uint64_t *out)
{
    *out = 0;
    if (n == 0)
        return "";
    const double budget = static_cast<double>(n) * scale;
    if (!(budget >= 1.0 && budget < 0x1p64)) {
        char msg[160]; // %g: to_string would print 1e-9 as 0.000000
        std::snprintf(msg, sizeof msg,
                      "usage error: MAB_BENCH_SCALE=%g scales a budget "
                      "of %llu to %g, outside [1, 2^64)",
                      scale, static_cast<unsigned long long>(n), budget);
        return msg;
    }
    *out = static_cast<uint64_t>(budget);
    return "";
}

/** Scale an instruction/cycle budget by the global multiplier; a
 *  budget the scale pushes out of range exits 2. */
inline uint64_t
scaled(uint64_t n)
{
    uint64_t budget = 0;
    exitOnUsageError(scaledBudget(n, benchScale(), &budget));
    return budget;
}

/**
 * Testable core of argValue(): scan for @p flag and write the token
 * following it to @p out (nullptr when the flag is absent). Returns ""
 * on success, else a usage-error message — the flag appearing as the
 * final token (nothing to consume) or appearing twice (the two values
 * would silently shadow each other; the old code returned the first
 * and ignored the rest).
 */
inline std::string
findFlagValue(int argc, char **argv, const char *flag, const char **out)
{
    *out = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        if (i + 1 >= argc)
            return std::string("usage error: ") + flag +
                " needs a value";
        if (*out)
            return std::string("usage error: duplicate ") + flag;
        *out = argv[i + 1];
        ++i; // the flag consumes the next token
    }
    return "";
}

/** Strict base-10 signed parse: the whole token must be a number. */
inline bool
parseInt64(const char *text, int64_t *out)
{
    if (!text || *text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Strict base-10 unsigned parse (seeds; rejects signs and suffixes). */
inline bool
parseUint64(const char *text, uint64_t *out)
{
    if (!text || *text == '\0' || *text == '-' || *text == '+')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    *out = v;
    return true;
}

/**
 * Value following @p flag on the command line, else nullptr. A flag
 * with no value to return or given more than once is a usage error
 * and exits with status 2 (the old code silently ignored the flag,
 * which turned e.g. a forgotten `--json` path into a run with no
 * report at all).
 */
inline const char *
argValue(int argc, char **argv, const char *flag)
{
    const char *value = nullptr;
    exitOnUsageError(findFlagValue(argc, argv, flag, &value));
    return value;
}

/**
 * Sweep-execution record of this process: the job count the harness
 * chose and the wall-clock of every sweep task, in submission order
 * (a prefetching sweep submits its cells in claimOrder()).
 * Stamped into the "parallel" entry of every report's meta block so a
 * result file says how it was produced and where the time went.
 */
struct ParallelMeta
{
    int jobs = 1;
    std::vector<double> taskWallMs;
};

inline ParallelMeta &
parallelMeta()
{
    static ParallelMeta meta;
    return meta;
}

/**
 * Parallel width of the bench sweep: `--jobs N` on the command line,
 * else MAB_BENCH_JOBS, else 1 (serial, the pre-parallel behavior).
 * N = 0 selects the hardware concurrency. Call it after constructing
 * the TracingSession: when a trace or audit sink is open the sweep is
 * clamped to serial, because concurrent runs would interleave on the
 * shared virtual timeline (see sim/tracing.h:beginRun).
 *
 * Per-run simulation results do not depend on the choice: every sweep
 * task owns its trace, prefetcher, RNG and registry, and results are
 * aggregated in submission order (sim/parallel.h), so `--json` reports
 * are byte-identical across job counts modulo the meta block.
 *
 * A negative or non-numeric count is a usage error (exit 2) — the old
 * code silently clamped `--jobs -3` to 1 and, worse, atoi'd `--jobs
 * abc` to 0 and fanned out to every hardware thread. resolveJobs() is
 * the testable core: it reports the error instead of exiting.
 */
inline std::string
resolveJobs(int argc, char **argv, const char *env, int *out)
{
    *out = 1;
    const char *v = nullptr;
    const std::string err = findFlagValue(argc, argv, "--jobs", &v);
    if (!err.empty())
        return err;
    if (!v)
        v = env;
    if (!v)
        return "";
    int64_t jobs = 0;
    if (!parseInt64(v, &jobs) || jobs < 0)
        return std::string("usage error: --jobs needs a non-negative "
                           "integer, got '") +
            v + "'";
    *out = jobs == 0
        ? SweepRunner::hardwareJobs()
        : static_cast<int>(std::min<int64_t>(jobs, 1 << 16));
    return "";
}

inline int
benchJobs(int argc, char **argv)
{
    int jobs = 1;
    exitOnUsageError(
        resolveJobs(argc, argv, std::getenv("MAB_BENCH_JOBS"), &jobs));
    if (jobs > 1 && tracing::Tracer::global().enabled()) {
        std::printf(
            "tracing/audit sink open: serializing sweep (jobs 1)\n");
        jobs = 1;
    }
    parallelMeta().jobs = jobs;
    return jobs;
}

/**
 * Run the sweep { fn(0), ..., fn(n-1) } on @p jobs lanes and return
 * the results in submission order; the per-task wall-clock lands in
 * parallelMeta(). This is the one call every bench binary routes its
 * independent runs through: compute the task grid up front, simulate
 * through sweepMap, then print/aggregate serially as before.
 */
template <typename T, typename Fn>
std::vector<T>
sweepMap(int jobs, size_t n, Fn &&fn)
{
    SweepRunner runner(jobs);
    std::vector<T> results = runner.runAll<T>(n, std::forward<Fn>(fn));
    ParallelMeta &meta = parallelMeta();
    for (const SweepTaskStats &s : runner.lastTaskStats())
        meta.taskWallMs.push_back(static_cast<double>(s.wallNs) / 1e6);
    return results;
}

/**
 * Structured-output destination: `--json <path>` on the command line,
 * else the MAB_BENCH_JSON environment variable, else none. Every
 * bench binary keeps printing its human-readable table; the JSON file
 * is emitted alongside for machine consumption (diffing, plotting,
 * regression tracking).
 */
inline const char *
jsonOutPath(int argc, char **argv)
{
    if (const char *path = argValue(argc, argv, "--json"))
        return path;
    return std::getenv("MAB_BENCH_JSON");
}

/**
 * The Micro-Armed Bandit configuration the bench harness runs (the
 * paper's Table 6 hyperparameters retuned to the scaled runs; see the
 * comment in makePrefetcher()). Exposed so the run metadata block can
 * report exactly what produced a result.
 */
inline BanditPrefetchConfig
benchBanditConfig(uint64_t seed = 1)
{
    BanditPrefetchConfig cfg;
    cfg.mab.seed = seed;
    cfg.hw.stepUnits = 125;
    cfg.mab.c = 0.2;
    cfg.mab.gamma = 0.99;
    return cfg;
}

/**
 * Self-description block stamped into every `--json` report and trace
 * file (ISSUE 2 satellite): tool version, command line, run scale,
 * the bandit configuration and arm table, and the simulated machine.
 * Makes snapshots and traces interpretable without the producing
 * checkout.
 */
inline json::Value
runMetaJson(int argc, char **argv)
{
    json::Value meta = json::Value::object();
    meta["tool"] = "micro-armed-bandit-sim";
    meta["version"] = tracing::kToolVersion;
    json::Value cmd = json::Value::array();
    for (int i = 0; i < argc; ++i)
        cmd.push(argv[i]);
    meta["cmdline"] = std::move(cmd);
    meta["scale"] = benchScale();

    const BanditPrefetchConfig bandit = benchBanditConfig();
    json::Value b = json::Value::object();
    b["algorithm"] = toString(bandit.algorithm);
    b["numArms"] = bandit.mab.numArms;
    b["epsilon"] = bandit.mab.epsilon;
    b["c"] = bandit.mab.c;
    b["gamma"] = bandit.mab.gamma;
    b["normalizeRewards"] = bandit.mab.normalizeRewards;
    b["rrRestartProb"] = bandit.mab.rrRestartProb;
    b["seed"] = bandit.mab.seed;
    b["stepUnits"] = bandit.hw.stepUnits;
    b["stepUnitsRr"] = bandit.hw.stepUnitsRr;
    b["selectionLatencyCycles"] = bandit.hw.selectionLatencyCycles;
    meta["bandit"] = std::move(b);

    json::Value arms = json::Value::array();
    for (const PrefetchArm &arm : prefetchArmTable()) {
        json::Value a = json::Value::object();
        a["nextLine"] = arm.nextLineOn;
        a["strideDegree"] = arm.strideDegree;
        a["streamDegree"] = arm.streamDegree;
        arms.push(std::move(a));
    }
    meta["armTable"] = std::move(arms);

    const CoreConfig core;
    const HierarchyConfig hier;
    const DramConfig dram;
    json::Value sim = json::Value::object();
    sim["fetchWidth"] = core.fetchWidth;
    sim["robSize"] = core.robSize;
    sim["commitWidth"] = core.commitWidth;
    sim["branchMissPenalty"] = core.branchMissPenalty;
    sim["prefetchIssueLatency"] = core.prefetchIssueLatency;
    sim["l1Bytes"] = hier.l1.sizeBytes;
    sim["l2Bytes"] = hier.l2.sizeBytes;
    sim["llcBytes"] = hier.llc.sizeBytes;
    sim["mshrEntries"] = hier.mshrEntries;
    sim["prefetchQueueMax"] = hier.prefetchQueueMax;
    sim["dramMtps"] = dram.mtps;
    sim["dramBaseLatencyCycles"] = dram.baseLatencyCycles;
    meta["sim"] = std::move(sim);

    json::Value par = json::Value::object();
    par["jobs"] = parallelMeta().jobs;
    json::Value wall = json::Value::array();
    for (double ms : parallelMeta().taskWallMs)
        wall.push(ms);
    par["taskWallMs"] = std::move(wall);
    meta["parallel"] = std::move(par);

    const TraceArena::Stats arena = TraceArena::global().stats();
    json::Value ar = json::Value::object();
    ar["enabled"] = arena.enabled;
    ar["hits"] = arena.hits;
    ar["misses"] = arena.misses;
    ar["evictions"] = arena.evictions;
    ar["entries"] = arena.entries;
    ar["bytes"] = arena.bytes;
    ar["budgetBytes"] = arena.budgetBytes;
    ar["genMs"] = arena.genMs;
    ar["dir"] = arena.dir;
    ar["fileHits"] = arena.fileHits;
    ar["fileSpills"] = arena.fileSpills;
    ar["fileRejects"] = arena.fileRejects;
    meta["traceArena"] = std::move(ar);

    return meta;
}

/**
 * Testable core of the TracingSession's sampler period:
 * `--trace-granularity <cycles>`, else @p env (MAB_TRACE_GRANULARITY),
 * written to @p out; 0 when neither is set (keep the tracer's
 * default). The value must be a positive base-10 integer; anything
 * else is a usage error, so `-5` cannot wrap to 2^64 - 5 (a sampler
 * that never fires) and `abc` cannot parse to an ignored 0.
 */
inline std::string
resolveGranularity(int argc, char **argv, const char *env,
                   uint64_t *out)
{
    *out = 0;
    const char *v = nullptr;
    const std::string err =
        findFlagValue(argc, argv, "--trace-granularity", &v);
    if (!err.empty())
        return err;
    if (!v)
        v = env;
    if (!v)
        return "";
    uint64_t cycles = 0;
    if (!parseUint64(v, &cycles) || cycles == 0)
        return std::string("usage error: --trace-granularity needs a "
                           "positive integer, got '") +
            v + "'";
    *out = cycles;
    return "";
}

/**
 * Observability session of one bench binary (the ISSUE 2 tentpole,
 * bench side). Construct it first thing in main():
 *
 *     --trace <path> / MAB_TRACE=<path>   Chrome-trace timeline (open
 *                                         in Perfetto or
 *                                         chrome://tracing); also
 *                                         enables the interval
 *                                         sampler and phase profiler
 *     --trace-granularity <cycles> /
 *       MAB_TRACE_GRANULARITY=<cycles>    sampler period (default 10k)
 *     --audit <path> / MAB_AUDIT=<path>   bandit decision audit log,
 *                                         one JSON record per step
 *     MAB_PROFILE=1                       phase profiler only (adds
 *                                         the "profile" subtree to
 *                                         --json reports)
 *
 * The destructor finalizes all sinks; aborted runs are covered by the
 * tracer's atexit/signal flush hooks.
 */
class TracingSession
{
  public:
    TracingSession(int argc, char **argv)
    {
        // Valueless flag, so scanned directly (argValue consumes the
        // token after the flag). MAB_TRACE_ARENA=0 is parsed by the
        // arena itself on first use.
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--no-trace-cache") == 0)
                TraceArena::global().setEnabled(false);
        }

        tracing::Tracer &tracer = tracing::Tracer::global();

        uint64_t granularity = 0;
        exitOnUsageError(resolveGranularity(
            argc, argv, std::getenv("MAB_TRACE_GRANULARITY"),
            &granularity));
        if (granularity != 0)
            tracer.setGranularity(granularity);

        const char *trace_path = argValue(argc, argv, "--trace");
        if (!trace_path)
            trace_path = std::getenv("MAB_TRACE");
        if (trace_path) {
            const json::Value meta = runMetaJson(argc, argv);
            if (!tracer.openTrace(trace_path, &meta))
                std::fprintf(stderr, "cannot open trace output: %s\n",
                             trace_path);
            else
                std::printf("tracing to %s\n", trace_path);
        }

        const char *audit_path = argValue(argc, argv, "--audit");
        if (!audit_path)
            audit_path = std::getenv("MAB_AUDIT");
        if (audit_path) {
            if (!tracer.openAudit(audit_path))
                std::fprintf(stderr, "cannot open audit output: %s\n",
                             audit_path);
            else
                std::printf("bandit audit log to %s\n", audit_path);
        }

        if (const char *profile = std::getenv("MAB_PROFILE")) {
            if (profile[0] != '\0' && profile[0] != '0')
                tracer.enableProfile();
        }
    }

    ~TracingSession() { tracing::Tracer::global().finalize(); }

    TracingSession(const TracingSession &) = delete;
    TracingSession &operator=(const TracingSession &) = delete;
};

/**
 * Write @p root to the destination selected by jsonOutPath(), if any.
 * A "meta" self-description block (runMetaJson) and — when the phase
 * profiler ran — a "profile" wall-clock breakdown are added to the
 * report unless the binary already set them. Returns false (and
 * reports on stderr) on I/O failure so binaries can exit nonzero.
 */
inline bool
writeJsonReport(const json::Value &root, int argc, char **argv)
{
    const char *path = jsonOutPath(argc, argv);
    if (!path)
        return true;
    std::FILE *f = std::fopen(path, "wb");
    if (!f) {
        std::fprintf(stderr, "cannot open json output: %s\n", path);
        return false;
    }
    json::Value report = root;
    if (!report.find("meta"))
        report["meta"] = runMetaJson(argc, argv);
    tracing::Tracer &tracer = tracing::Tracer::global();
    if (tracer.profileOn() && !report.find("profile"))
        report["profile"] = tracer.profileJson();
    const std::string text = report.dump(2);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed) {
        std::fprintf(stderr, "short write on json output: %s\n", path);
        return false;
    }
    std::printf("json report written to %s\n", path);
    return true;
}

/** Names of the prefetchers compared in Figures 8/9/11/14. */
inline std::vector<std::string>
comparisonPrefetchers()
{
    return {"Stride", "Bingo", "MLOP", "Pythia", "Bandit"};
}

/**
 * Instantiate a prefetcher by report name. "Bandit" builds the DUCB
 * Micro-Armed Bandit controller; "Bandit:<algo>" selects the MAB
 * algorithm whose toString() is <algo>; "BanditIdeal" removes the
 * 500-cycle selection latency. The bandit takes a step every
 * @p banditStepUnits L2 accesses. An unknown name aborts.
 */
inline std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &name, uint64_t seed = 1,
               uint64_t banditStepUnits = benchBanditConfig().hw.stepUnits)
{
    if (name == "None")
        return std::make_unique<NullPrefetcher>();
    if (name == "Stride") {
        // The baseline IP-stride prefetcher [23] runs one stride
        // ahead of the demand stream.
        return std::make_unique<StridePrefetcher>(64, 1);
    }
    if (name == "Bingo")
        return std::make_unique<BingoPrefetcher>();
    if (name == "MLOP")
        return std::make_unique<MlopPrefetcher>();
    if (name == "IPCP")
        return std::make_unique<IpcpPrefetcher>();
    if (name == "Pythia") {
        PythiaConfig cfg;
        cfg.seed = seed * 31 + 7;
        return std::make_unique<PythiaPrefetcher>(cfg);
    }
    if (name == "Bandit" || name.rfind("Bandit:", 0) == 0 ||
        name == "BanditIdeal") {
        // The paper's hyperparameters (step = 1000 accesses,
        // c = 0.04, gamma = 0.999) were tuned for 1B-instruction
        // traces with tens of thousands of bandit steps. The scaled
        // runs take a few hundred steps, so the step shrinks
        // proportionally and (per the paper's own tune-set
        // procedure) c/gamma are retuned to the shorter horizon.
        BanditPrefetchConfig cfg = benchBanditConfig(seed);
        cfg.hw.stepUnits = banditStepUnits;
        if (name == "BanditIdeal")
            cfg.hw.selectionLatencyCycles = 0;
        if (name.rfind("Bandit:", 0) != 0)
            return std::make_unique<BanditPrefetchController>(cfg);
        // Hierarchical is the last MabAlgorithm enumerator.
        for (int a = 0; a <= static_cast<int>(MabAlgorithm::Hierarchical);
             ++a) {
            cfg.algorithm = static_cast<MabAlgorithm>(a);
            if (name.substr(7) == toString(cfg.algorithm))
                return std::make_unique<BanditPrefetchController>(cfg);
        }
    }
    std::fprintf(stderr, "unknown prefetcher: %s\n", name.c_str());
    std::abort();
}

/** Result of one single-core prefetching run. */
struct PfRun
{
    double ipc = 0.0;
    PrefetchStats pf;
    uint64_t llcDemandMisses = 0;
    uint64_t l2DemandAccesses = 0;
    uint64_t instructions = 0;
};

/**
 * Offer @p pf the system probes @p core can provide; implementations
 * that exploit one take it (Pythia's bandwidth awareness), the rest
 * inherit the no-op default. The repository benchmark (perfbench/)
 * calls it too, so its cells wire the same probes as the sweeps.
 */
inline void
attachDramProbes(CoreModel &core, Prefetcher &pf)
{
    SystemProbes probes;
    Dram *d = &core.hierarchy().dram();
    probes.dramUtilization = [d](uint64_t cycle) {
        const uint64_t busy = d->busFreeCycle();
        if (busy <= cycle)
            return 0.0;
        const double backlog = static_cast<double>(busy - cycle);
        return backlog >= 500.0 ? 1.0 : backlog / 500.0;
    };
    pf.attachSystemProbes(probes);
}

/**
 * Run @p app with @p pf for @p instr instructions.
 *
 * @param seed When nonzero, overrides the profile's base seed for the
 *             synthetic trace, making the run's input stream — and
 *             therefore every exported counter — a pure function of
 *             (app, pf, instr, hier, dram, seed). Zero keeps
 *             app.seed, the per-workload default.
 */
inline PfRun
runPrefetch(const AppProfile &app, Prefetcher &pf, uint64_t instr,
            const HierarchyConfig &hier = {}, const DramConfig &dram = {},
            uint64_t seed = 0)
{
    AppProfile seeded = app;
    if (seed != 0)
        seeded.seed = seed;
    // Arena on: replay the workload's materialized records (generated
    // once per (profile, instr) across the whole sweep). Arena off:
    // a private live generator, the pre-arena behavior. Either way the
    // core consumes byte-identical records (trace/replay.h).
    const std::unique_ptr<TraceSource> trace =
        makeRunSource(seeded, instr);
    CoreModel core(CoreConfig{}, hier, *trace, &pf, nullptr, dram);

    // Scope this run on the trace timeline ("app/prefetcher"), so a
    // whole bench sweep reads as back-to-back regions in Perfetto.
    tracing::Tracer &tracer = tracing::Tracer::global();
    tracer.beginRun(seeded.name + "/" + pf.name());

    attachDramProbes(core, pf);

    core.run(instr);
    tracer.endRun(core.cycles());
    PfRun r;
    r.ipc = core.ipc();
    r.pf = core.hierarchy().prefetchStats();
    r.llcDemandMisses = core.hierarchy().llcDemandMisses();
    r.l2DemandAccesses = core.hierarchy().l2DemandAccesses();
    r.instructions = core.instructions();
    return r;
}

/** Convenience: run by prefetcher name. A nonzero @p seed seeds both
 *  the trace and the prefetcher, for bit-reproducible runs. */
inline PfRun
runPrefetchNamed(const AppProfile &app, const std::string &pf_name,
                 uint64_t instr, const HierarchyConfig &hier = {},
                 const DramConfig &dram = {}, uint64_t seed = 0)
{
    auto pf = makePrefetcher(pf_name, seed != 0 ? seed : app.seed);
    return runPrefetch(app, *pf, instr, hier, dram, seed);
}

/**
 * One cell of a prefetching sweep, described as data so the harness
 * can order the cells by the stream they replay (claimOrder).
 * Semantics match runPrefetch/runPrefetchNamed exactly: a
 * nonzero @p seed overrides both the trace seed and the prefetcher
 * seed.
 */
struct PfTask
{
    AppProfile app;
    std::string pf = "None"; ///< makePrefetcher() name
    uint64_t instr = 0;
    HierarchyConfig hier{};
    DramConfig dram{};
    uint64_t seed = 0; ///< nonzero overrides app.seed (runPrefetch)
    /** Custom prefetcher factory (e.g. Table 8's fixed-arm cells);
     *  when set, @p pf is ignored. */
    std::function<std::unique_ptr<Prefetcher>()> make;
};

/** The profile whose record stream the task consumes (seed override
 *  applied) — the claim order groups cells by this. */
inline AppProfile
taskProfile(const PfTask &t)
{
    AppProfile p = t.app;
    if (t.seed != 0)
        p.seed = t.seed;
    return p;
}

inline std::unique_ptr<Prefetcher>
makeTaskPrefetcher(const PfTask &t)
{
    if (t.make)
        return t.make();
    return makePrefetcher(t.pf, t.seed != 0 ? t.seed : t.app.seed);
}

/** The per-task path: exactly runPrefetchNamed / runPrefetch. */
inline PfRun
runPfTask(const PfTask &t)
{
    const std::unique_ptr<Prefetcher> pf = makeTaskPrefetcher(t);
    return runPrefetch(t.app, *pf, t.instr, t.hier, t.dram, t.seed);
}

/**
 * The order a prefetching sweep hands its cells to the lanes: a
 * permutation of [0, keys.size()), where keys[i] names the record
 * stream cell i replays. Cells are grouped by key in order of first
 * appearance, the groups are taken @p jobs at a time, and each such
 * window is emitted rank-major: the k-th cell of every group in the
 * window goes before any group's (k+1)-th.
 *
 * Why: the grids are workload- or bandwidth-major. In grid order the
 * lanes of a parallel sweep all replay one stream and wait behind its
 * recorder's frontier, and under arena pressure a bandwidth-major
 * grid regenerates every stream once per bandwidth. In this order the
 * J lanes of jobs J start on J different streams, each recording its
 * own, and at jobs 1 each stream's cells run back to back. The window
 * keeps about J streams in flight; rank-major over all groups would
 * cycle every stream through the arena. A pure function of its
 * arguments.
 */
inline std::vector<size_t>
claimOrder(const std::vector<std::string> &keys, int jobs)
{
    std::vector<std::vector<size_t>> groups;
    std::unordered_map<std::string, size_t> groupOf;
    for (size_t i = 0; i < keys.size(); ++i) {
        const auto [it, fresh] =
            groupOf.try_emplace(keys[i], groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    const size_t window = static_cast<size_t>(std::max(jobs, 1));
    std::vector<size_t> order;
    order.reserve(keys.size());
    for (size_t first = 0; first < groups.size(); first += window) {
        const size_t last = std::min(first + window, groups.size());
        size_t ranks = 0;
        for (size_t g = first; g < last; ++g)
            ranks = std::max(ranks, groups[g].size());
        for (size_t r = 0; r < ranks; ++r) {
            for (size_t g = first; g < last; ++g) {
                if (r < groups[g].size())
                    order.push_back(groups[g][r]);
            }
        }
    }
    return order;
}

/**
 * Run the cells of a prefetching sweep on @p jobs lanes in
 * claimOrder() and return the results indexed like @p tasks. Every
 * cell is an independent runPfTask, so the results do not depend on
 * the order; meta.parallel.taskWallMs lists the cells in claim order.
 */
inline std::vector<PfRun>
sweepPrefetchRuns(int jobs, const std::vector<PfTask> &tasks)
{
    std::vector<std::string> keys;
    keys.reserve(tasks.size());
    for (const PfTask &t : tasks)
        keys.push_back(profileFingerprint(taskProfile(t)) + '#' +
                       std::to_string(t.instr));
    const std::vector<size_t> order = claimOrder(keys, jobs);
    std::vector<PfRun> claimed = sweepMap<PfRun>(
        jobs, order.size(),
        [&](size_t k) { return runPfTask(tasks[order[k]]); });
    std::vector<PfRun> out(tasks.size());
    for (size_t k = 0; k < order.size(); ++k)
        out[order[k]] = std::move(claimed[k]);
    return out;
}

/** Print a horizontal rule sized to @p width. */
inline void
rule(int width)
{
    for (int i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

} // namespace mab::bench

#endif // MAB_BENCH_COMMON_H
