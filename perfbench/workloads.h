#ifndef MAB_PERFBENCH_WORKLOADS_H
#define MAB_PERFBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's workloads. Each is a grid of independent cells (one
 * simulation run per cell) plus its reducer: the per-cell correctness
 * gate, the digest of every simulated output, the paper-facing quality
 * figure and the per-layer counters. The driver runs the cells on
 * SweepRunner lanes; the inputs are a pure function of the seed.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "memory/hierarchy.h"
#include "probes.h"
#include "smt/pipeline.h"

namespace mab::perfbench {

/** FNV-1a over the simulated outputs; doubles hash by bit pattern. */
class Digest
{
  public:
    void add(uint64_t v);
    void add(double v);
    void add(const std::string &s);
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** What a finished pass reports besides host timings. */
struct Summary
{
    /** Simulated work: committed instructions, or bandit steps. */
    uint64_t workUnits = 0;

    /** The workload's bandit result relative to its baseline
     *  (bandit_quality; see perfbench/README.md). */
    double quality = 0.0;

    /** The same result under its paper-facing name. */
    std::map<std::string, double> named;

    uint64_t banditCells = 0;
    /** Bandit cells that ended inside the initial round-robin phase. */
    uint64_t rrIncomplete = 0;

    /** Per-layer metrics; timings are filled on traced passes only. */
    std::map<std::string, double> layers;
};

/** Grid sizes: the benchmark's, or the self-test's small ones. */
enum class GridSize
{
    Bench,
    Mini,
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual size_t numCells() const = 0;

    /** Run cell @p i. Distinct cells may run concurrently. A traced
     *  run wraps the layer calls in the probes of probes.h. */
    virtual void runCell(size_t i, bool traced) = 0;

    /** Invariants cell @p i violates (empty: the cell passes). */
    virtual std::vector<std::string> gate(size_t i) const = 0;

    /** Fold every cell's simulated outputs, in grid order. */
    virtual void digest(Digest &d) const = 0;

    virtual Summary summarize() const = 0;
};

/** "pf_single", "smt_fetch", "bandit_drift". */
const std::vector<std::string> &workloadNames();

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, GridSize size);

/** Every per-layer metric name, in report order. Each workload
 *  reports all of them; a layer it bypasses reads 0. */
const std::vector<std::string> &layerMetricNames();

/** One single-core prefetching run. */
struct PfCell
{
    std::string app;
    std::string pf;
    double ipc = 0.0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    /** Demand accesses seen by the L1 (hits + misses). */
    uint64_t demandAccesses = 0;
    /** Demand accesses served at L1, L2, LLC, DRAM. */
    uint64_t hits[4] = {0, 0, 0, 0};
    uint64_t l2Accesses = 0;
    PrefetchStats pfStats;
    uint64_t dramLines = 0;
    double dramBusyCycles = 0.0;
    OccupancyAccum mshr;
    OccupancyAccum pfq;
    bool bandit = false;
    bool rrDone = true;
    uint64_t banditSteps = 0;
    uint64_t armSwitches = 0;
    double runNs = 0.0;

    // Traced runs only.
    SampleStats traceReplay;
    SampleStats traceRecord;
    SampleStats onAccess;
    uint64_t candidates = 0;
};

/** One SMT run of a 2-thread mix under one fetch regime. */
struct SmtCell
{
    std::string mix;
    std::string regime;
    bool bandit = false;
    double ipc[2] = {0.0, 0.0};
    double ipcSum = 0.0;
    uint64_t cycles = 0;
    uint64_t fetched[2] = {0, 0};
    uint64_t committed[2] = {0, 0};
    RenameStats rename;
    uint64_t policySwitches = 0;
    uint64_t banditSteps = 0;
    uint64_t armSwitches = 0;
    bool rrDone = true;
    double runNs = 0.0;
};

/** One drifting-bandit run of one policy. */
struct DriftCell
{
    std::string policy;
    int arms = 0;
    uint64_t period = 0;
    uint64_t expectedSteps = 0;
    uint64_t steps = 0;
    uint64_t policySteps = 0;
    double cumulativeRegret = 0.0;
    double tailRegret = 0.0;
    double recoveredFraction = 0.0;
    bool rrDone = true;

    // Traced runs only.
    SampleStats select;
    SampleStats update;
    uint64_t armSwitches = 0;
};

/** Typed cell access for the self-test's planted corruptions; nullptr
 *  when @p w is another workload or @p i is out of range. */
PfCell *pfCellOf(Workload &w, size_t i);
SmtCell *smtCellOf(Workload &w, size_t i);
DriftCell *driftCellOf(Workload &w, size_t i);

} // namespace mab::perfbench

#endif // MAB_PERFBENCH_WORKLOADS_H
