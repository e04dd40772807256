#ifndef MAB_BENCH_SWEEP_H
#define MAB_BENCH_SWEEP_H

/**
 * @file
 * The bench harness (the mab_bench library). Every sweep binary
 * regenerates one table or figure of the paper (see DESIGN.md for the
 * index) through one Sweep:
 *
 *     Sweep sweep(argc, argv, "fig8_singlecore");
 *     ...build the whole grid of cells...
 *     sweep.run(std::move(cells));   // once: every cell, claim order
 *     ...reduce into sweep.body(), print from it...
 *     return sweep.finish();         // {bench, scale, ...body, meta}
 *
 * Scale: the paper simulates 1B instructions per trace and 150M
 * instructions per SMT thread; the harness defaults to ~1M-instruction
 * / ~1M-cycle runs so the full suite completes in minutes on one core.
 * MAB_BENCH_SCALE=<f> multiplies all run lengths.
 */

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/drift_env.h"
#include "sim/json.h"
#include "sim/stats.h"
#include "smt/bandit_pg.h"
#include "smt/smt_sim.h"
#include "trace/suites.h"

namespace mab::bench {

// ---- Command line. The parsing cores return a usage-error message
// instead of exiting, so they are testable; the Sweep exits 2 on them.

/** The token following @p flag in @p out (nullptr when absent). A flag
 *  as the final token or given twice is a usage error. */
std::string findFlagValue(int argc, char **argv, const char *flag,
                          const char **out);

/** Strict base-10 signed parse: the whole token must be a number. */
bool parseInt64(const char *text, int64_t *out);

/** Strict base-10 unsigned parse (seeds; rejects signs and suffixes). */
bool parseUint64(const char *text, uint64_t *out);

/** One accepted command-line flag. */
struct Flag
{
    const char *name;  ///< e.g. "--jobs"
    const char *value; ///< placeholder of its value; nullptr: a switch
};

/** Every argument must be a flag of @p table (a valued flag consumes
 *  the next token verbatim), given at most once and with its value.
 *  An unknown argument's message lists the table. */
std::string checkFlags(int argc, char **argv,
                       const std::vector<Flag> &table);

/** `--jobs N`, else @p env (MAB_BENCH_JOBS), else 1; 0 selects the
 *  hardware concurrency, a negative or non-numeric count is an error. */
std::string resolveJobs(int argc, char **argv, const char *env, int *out);

/** @p env (MAB_BENCH_SCALE), 1.0 when unset: one whole token holding a
 *  finite number above 0. */
std::string resolveScale(const char *env, double *out);

/** @p n scaled by @p scale, truncated: a nonzero budget must land in
 *  [1, 2^64); zero stays zero. */
std::string scaledBudget(uint64_t n, double scale, uint64_t *out);

/** `--trace-granularity <cycles>`, else @p env (MAB_TRACE_GRANULARITY),
 *  else 0 (the tracer's default): a positive integer. */
std::string resolveGranularity(int argc, char **argv, const char *env,
                               uint64_t *out);

// ---- Cells and their execution core.

/** One independent run of a sweep's grid. The run function owns its
 *  simulator, prefetcher and RNG and writes its result into a slot the
 *  sweep preallocated, so results do not depend on order or lane. */
struct Cell
{
    /** The record stream the cell replays (streamKey()); empty when it
     *  replays none, which keeps the cell at its grid position. */
    std::string stream;
    json::Value config; ///< what ran: config() of describe() values
    std::function<void()> run;
};

/**
 * The order a sweep hands its cells to the lanes: a permutation of
 * [0, keys.size()), where keys[i] names the record stream cell i
 * replays. Cells are grouped by key in order of first appearance, the
 * groups are taken @p jobs at a time, and each such window is emitted
 * rank-major: the k-th cell of every group in the window goes before
 * any group's (k+1)-th. So the J lanes start on J different streams,
 * each generating its own, and a bandwidth-major grid generates each
 * stream once (EXPERIMENTS.md, "Sweep claim order").
 */
std::vector<size_t> claimOrder(const std::vector<std::string> &keys,
                               int jobs);

/** Run every cell on @p jobs lanes in claimOrder() (a streamless cell
 *  is a group of its own); each cell's wall-clock, ms, claim order. */
std::vector<double> runCells(const std::vector<Cell> &cells, int jobs);

// ---- Report values and descriptions (one per config struct, seeds
// left out).

/** A JSON object of @p members, in order. */
json::Value
obj(std::initializer_list<std::pair<std::string, json::Value>> members);

/** Member @p key of object @p v as a number; it must exist. */
double num(const json::Value &v, const std::string &key);

/** The trace-driven machine: @p cores cores sharing LLC and DRAM. */
json::Value describe(const CoreConfig &core, const HierarchyConfig &hier,
                     const DramConfig &dram, int cores = 1);
/** The 2-thread SMT pipeline with Hill Climbing. */
json::Value describe(const SmtConfig &pipe, const SmtRunConfig &run);
/** The prefetching Bandit (with its arm table when it has 11 arms). */
json::Value describe(const BanditPrefetchConfig &cfg);
/** The SMT fetch-policy Bandit, with its arm table. */
json::Value describe(const SmtBanditConfig &cfg);
/** Pythia; @p bandwidthProbe: the DRAM probe its bandwidth-aware
 *  reward reads was attached. */
json::Value describe(const PythiaConfig &cfg, bool bandwidthProbe);
/** Fixed fetch PG policies, by name (a config's "policies"). */
json::Value describe(const std::vector<PgPolicy> &policies);
/** The synthetic drifting bandit of the drift oracle. */
json::Value describe(const DriftBanditConfig &cfg);
/** One policy column of the drift oracle. */
json::Value describe(const DriftPolicySpec &spec);
/** The prefetcher makeCellPrefetcher(@p name) builds. */
json::Value describePrefetcher(const std::string &name,
                               bool bandwidthProbe);
/** A cell's description: its machine plus every agent that ran. */
json::Value config(json::Value machine, std::vector<json::Value> agents);

// ---- Prefetching cells.

/** Result of one single-core prefetching run. */
struct PfRun
{
    double ipc = 0.0;
    PrefetchStats pf;
    uint64_t llcDemandMisses = 0;
    uint64_t l2DemandAccesses = 0;
    uint64_t instructions = 0;
};

/** The claim-order key of the @p instr-record stream of @p app. */
std::string streamKey(const AppProfile &app, uint64_t instr);

/** Run @p app with @p pf at L2 for @p instr instructions, the DRAM
 *  probes attached. A nonzero @p seed overrides the profile's trace
 *  seed, so every counter is a pure function of (app, pf, instr, hier,
 *  dram, seed). */
PfRun runPrefetch(const AppProfile &app, Prefetcher &pf, uint64_t instr,
                  const HierarchyConfig &hier = {},
                  const DramConfig &dram = {}, uint64_t seed = 0);

/** makePrefetcher(), plus "Arm:<k>": the Bandit controller pinned to
 *  arm k of Table 7 with the paper's hardware step (the best-static
 *  runs of Table 8 and Fig. 7). */
std::unique_ptr<Prefetcher> makeCellPrefetcher(const std::string &name,
                                               uint64_t seed);

/** One prefetching cell as data: runPrefetch of makeCellPrefetcher(pf);
 *  a nonzero seed overrides both the trace and the prefetcher seed. */
struct PfTask
{
    AppProfile app;
    std::string pf = "None";
    uint64_t instr = 0;
    HierarchyConfig hier{};
    DramConfig dram{};
    uint64_t seed = 0;
};

/** The cells of @p grid; cell i writes (*out)[i], resized to fit. */
std::vector<Cell> pfCells(const std::vector<PfTask> &grid,
                          std::vector<PfRun> *out);

/** IPC of @p app with @p l1 at L1 and @p l2 at L2 (either may be null),
 *  no system probes offered: Fig. 12's combinations, the joint agent. */
double runTwoLevel(const AppProfile &app, uint64_t instr, Prefetcher *l2,
                   Prefetcher *l1);

/** Fig. 14's 4-core homogeneous system: four cores sharing a
 *  dual-channel (4800 MTPS) memory system. */
constexpr int kFourCores = 4;
DramConfig fourCoreDram();

/** Sum of per-core IPCs of @p app on every core of the 4-core system,
 *  core c on trace region seed + 911 c with the prefetcher @p make
 *  builds from that seed. No system probes are offered. */
double runFourCore(
    const AppProfile &app, uint64_t instrPerCore,
    const std::function<std::unique_ptr<Prefetcher>(uint64_t)> &make);

// ---- Tables.

/** Print a horizontal rule sized to @p width. */
void rule(int width);

/** Tables 8 and 9: {label: {min, max, gmean}} of each label's ratios
 *  to the best static arm, in @p labels order. */
json::Value pctOfBestStatic(
    const std::vector<std::string> &labels,
    const std::map<std::string, std::vector<double>> &ratios);

/** Print a pctOfBestStatic() table between rules. */
void printPctOfBestStatic(const json::Value &table);

// ---- The runner.

/**
 * One sweep binary's harness. Flags, each also read from the
 * environment (the flag wins): --jobs <n> / MAB_BENCH_JOBS (0 = all
 * hardware threads), --json <path> / MAB_BENCH_JSON, --trace <path> /
 * MAB_TRACE (Chrome-trace timeline), --trace-granularity <cycles> /
 * MAB_TRACE_GRANULARITY, --audit <path> / MAB_AUDIT (bandit decision
 * log); plus the trace arena's own MAB_TRACE_ARENA* variables
 * (trace/replay.h). Any other argument, a missing value or a repeated
 * flag exits 2, and an unwritable report path exits 1, before the
 * first cell runs. An open sink serializes the sweep to jobs 1:
 * concurrent runs would interleave on its shared timeline.
 */
class Sweep
{
  public:
    Sweep(int argc, char **argv, const char *bench);
    ~Sweep();

    Sweep(const Sweep &) = delete;
    Sweep &operator=(const Sweep &) = delete;

    /** @p n scaled by MAB_BENCH_SCALE; out of range exits 2. */
    uint64_t scaled(uint64_t n) const;

    /** Run the whole grid, once: open the sinks with the final meta,
     *  then runCells(). */
    void run(std::vector<Cell> cells);

    /** The report body: the sweep reduces into it and prints from it. */
    json::Value &body() { return body_; }

    /** Write the report, if one was asked for; the exit code. */
    int finish();

  private:
    json::Value meta(int jobs) const;

    std::string bench_;
    std::vector<std::string> cmdline_;
    double scale_ = 1.0;
    int jobs_ = 1;
    const char *tracePath_ = nullptr;
    const char *auditPath_ = nullptr;
    const char *reportPath_ = nullptr;
    std::FILE *report_ = nullptr;
    bool ran_ = false;
    json::Value configs_ = json::Value::array();
    std::vector<double> taskWallMs_;
    json::Value body_ = json::Value::object();
};

} // namespace mab::bench

#endif // MAB_BENCH_SWEEP_H
