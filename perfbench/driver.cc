/**
 * Benchmark driver: runs one pass (one full sweep of a workload's grid,
 * as a user runs a sweep binary) and prints one JSON line describing
 * it. perfbench/run.py repeats passes for the run's duration and turns
 * them into the benchmark's metrics.
 *
 *   mab_perfbench --workload pf_single --seed 1 [--trace]
 *   mab_perfbench --self-test
 *
 * --trace wraps the layer calls in the probes of probes.h. --self-test
 * checks the gate, the digest and the round-robin guard on small grids
 * and exits non-zero on any failure.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "cpu/core_model.h"
#include "sim/parallel.h"
#include "trace/replay.h"
#include "workloads.h"

using namespace mab;
using namespace mab::perfbench;

namespace {

struct CellTime
{
    uint64_t start = 0;
    uint64_t end = 0;
};

/** One pass over a workload's grid. */
struct Pass
{
    int lanes = 1;
    bool traced = false;
    std::vector<CellTime> times;
    size_t failedCells = 0;
    std::vector<std::string> errors;
    std::string digest;
    Summary summary;
};

/**
 * Pin the trace arena so the environment cannot change what a pass
 * measures: in memory only, a budget that holds every trace of the
 * grid (no eviction), and empty, so a pass starts cold.
 */
void
resetArena()
{
    TraceArena &arena = TraceArena::global();
    arena.setEnabled(true);
    arena.setDir("");
    arena.setBudgetBytes(8ull << 30);
    arena.clear();
}

/**
 * Lanes of a benchmark pass. On a shared 4-CPU host one pass's wall time
 * spread 5% pass to pass on one lane but 16% on two and 21% on four
 * (smt_fetch, six interleaved passes each), too wide for the bounds in
 * BENCHMARK.json. The self-test still sweeps wider to check that the
 * outputs do not depend on the lane count.
 */
constexpr int kBenchLanes = 1;

int
capLanes(int lanes)
{
    return std::max(1, std::min(lanes, SweepRunner::hardwareJobs()));
}

double
p95(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(0.95 * static_cast<double>(xs.size())));
    return xs[std::max<size_t>(rank, 1) - 1];
}

Pass
runPass(Workload &w, int lanes, bool traced)
{
    Pass p;
    p.lanes = lanes;
    p.traced = traced;
    const size_t n = w.numCells();
    p.times.resize(n);

    SweepRunner runner(lanes);
    std::vector<SweepRunner::Task> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        tasks.push_back([&w, &p, i, traced] {
            p.times[i].start = nowNs();
            w.runCell(i, traced);
            p.times[i].end = nowNs();
        });
    }
    const uint64_t submitNs = nowNs();
    runner.run(std::move(tasks));

    const uint64_t reduceStart = nowNs();
    for (size_t i = 0; i < n; ++i) {
        const std::vector<std::string> errs = w.gate(i);
        if (errs.empty())
            continue;
        ++p.failedCells;
        for (const std::string &e : errs) {
            if (p.errors.size() < 8)
                p.errors.push_back("cell " + std::to_string(i) + ": " + e);
        }
    }
    Digest d;
    w.digest(d);
    p.digest = d.hex();
    p.summary = w.summarize();

    auto &L = p.summary.layers;
    const TraceArena::Stats arena = TraceArena::global().stats();
    const uint64_t lookups = arena.hits + arena.misses;
    L["trace.arena_lookups"] = static_cast<double>(lookups);
    L["trace.arena_hit_ratio"] = lookups == 0
        ? 0.0
        : static_cast<double>(arena.hits) / static_cast<double>(lookups);
    L["trace.arena_mb"] = static_cast<double>(arena.bytes) / (1 << 20);

    uint64_t first = UINT64_MAX, last = 0;
    double busy = 0.0;
    std::vector<double> waitMs;
    for (const CellTime &t : p.times) {
        first = std::min(first, t.start);
        last = std::max(last, t.end);
        busy += static_cast<double>(t.end - t.start);
        waitMs.push_back(static_cast<double>(t.start - submitNs) / 1e6);
    }
    L["sim.cells"] = static_cast<double>(n);
    L["sim.lanes"] = lanes;
    L["sim.lane_busy_frac"] =
        busy / (lanes * static_cast<double>(std::max<uint64_t>(
                            last - first, 1)));
    L["sim.cell_wait_ms_p95"] = p95(waitMs);
    L["sim.report_ms"] = static_cast<double>(nowNs() - reduceStart) / 1e6;
    return p;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printPass(const std::string &workload, uint64_t seed, const Pass &p)
{
    uint64_t first = UINT64_MAX, last = 0;
    std::string cellMs;
    for (const CellTime &t : p.times) {
        first = std::min(first, t.start);
        last = std::max(last, t.end);
        cellMs += (cellMs.empty() ? "" : ",") +
            num(static_cast<double>(t.end - t.start) / 1e6);
    }
    std::string errors;
    for (const std::string &e : p.errors)
        errors += (errors.empty() ? "" : ",") + str(e);
    std::string named;
    for (const auto &[k, v] : p.summary.named)
        named += (named.empty() ? "" : ",") + str(k) + ":" + num(v);
    std::string layers;
    for (const std::string &k : layerMetricNames()) {
        const auto it = p.summary.layers.find(k);
        layers += (layers.empty() ? "" : ",") + str(k) + ":" +
            num(it == p.summary.layers.end() ? 0.0 : it->second);
    }

    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"lanes\":%d,\"traced\":%s,"
        "\"cells\":%zu,\"failed_cells\":%zu,\"errors\":[%s],"
        "\"bandit_cells\":%llu,\"rr_incomplete\":%llu,\"digest\":%s,"
        "\"sim_start_ns\":%llu,\"sim_end_ns\":%llu,\"cell_ms\":[%s],"
        "\"work_units\":%llu,\"quality\":%s,\"named\":{%s},"
        "\"peak_rss_mb\":%s,\"layers\":{%s}}\n",
        str(workload).c_str(), static_cast<unsigned long long>(seed),
        p.lanes, p.traced ? "true" : "false", p.times.size(),
        p.failedCells, errors.c_str(),
        static_cast<unsigned long long>(p.summary.banditCells),
        static_cast<unsigned long long>(p.summary.rrIncomplete),
        str(p.digest).c_str(), static_cast<unsigned long long>(first),
        static_cast<unsigned long long>(last), cellMs.c_str(),
        static_cast<unsigned long long>(p.summary.workUnits),
        num(p.summary.quality).c_str(), named.c_str(),
        num(peakRssMb()).c_str(), layers.c_str());
}

// ---------------------------------------------------------------------
// Self-test.

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

Pass
miniPass(Workload &w, int lanes, bool traced)
{
    resetArena();
    return runPass(w, lanes, traced);
}

/** Apply each corruption to cell @p k of @p w in turn; the gate must
 *  flag every one, and the restored cell must pass again. */
template <class Cell>
void
plant(Workload &w, Cell *cell, size_t k, const std::string &label,
      const std::vector<std::pair<std::string,
                                  std::function<void(Cell &)>>> &cases)
{
    check(cell != nullptr, label + ": cell " + std::to_string(k) +
                               " is reachable");
    if (cell == nullptr)
        return;
    const Cell original = *cell;
    for (const auto &[what, corrupt] : cases) {
        *cell = original;
        corrupt(*cell);
        check(!w.gate(k).empty(), label + ": gate catches " + what);
    }
    *cell = original;
    check(w.gate(k).empty(), label + ": restored cell passes");
}

bool
selfTest()
{
    const int wide = capLanes(4);
    for (const std::string &name : workloadNames()) {
        std::string ref;
        const std::pair<int, bool> legs[] = {
            {1, false}, {wide, false}, {1, false}, {wide, true}};
        for (const auto &[lanes, traced] : legs) {
            const auto w = makeWorkload(name, 7, GridSize::Mini);
            const Pass p = miniPass(*w, lanes, traced);
            const std::string leg = name + " (lanes " +
                std::to_string(lanes) + (traced ? ", traced)" : ")");
            check(p.failedCells == 0, leg + ": every cell passes the gate");
            if (ref.empty())
                ref = p.digest;
            else
                check(p.digest == ref, leg + ": digest matches lanes 1");
        }
        const auto other = makeWorkload(name, 8, GridSize::Mini);
        check(miniPass(*other, 1, false).digest != ref,
              name + ": another seed gives another digest");
    }

    {
        const auto w = makeWorkload("pf_single", 7, GridSize::Mini);
        miniPass(*w, 1, false);
        const size_t k = 5; // the first app's Bandit cell
        PfCell *c = pfCellOf(*w, k);
        using Case = std::pair<std::string, std::function<void(PfCell &)>>;
        plant<PfCell>(
            *w, c, k, "pf_single",
            {Case{"a hit lost from the level sum",
                  [](PfCell &x) { ++x.hits[3]; }},
             Case{"timely+late > issued",
                  [](PfCell &x) { x.pfStats.late = x.pfStats.issued + 1; }},
             Case{"wrong > issued",
                  [](PfCell &x) { x.pfStats.wrong = x.pfStats.issued + 1; }},
             Case{"a NaN IPC", [](PfCell &x) { x.ipc = std::nan(""); }},
             Case{"a zero IPC", [](PfCell &x) { x.ipc = 0.0; }},
             Case{"IPC above fetchWidth", [](PfCell &x) {
                      x.ipc = CoreConfig{}.fetchWidth + 0.5;
                  }}});
        if (c) {
            Digest before, after;
            w->digest(before);
            const double ipc = c->ipc;
            c->ipc = std::nextafter(ipc, 10.0);
            w->digest(after);
            c->ipc = ipc;
            check(before.hex() != after.hex(),
                  "pf_single: digest catches a one-ulp IPC change");
        }
    }
    {
        const auto w = makeWorkload("smt_fetch", 7, GridSize::Mini);
        const Pass p = miniPass(*w, 1, false);
        check(p.summary.banditCells == 1 && p.summary.rrIncomplete == 1,
              "smt_fetch: round-robin guard flags the 80k-cycle Bandit");
        using Case = std::pair<std::string, std::function<void(SmtCell &)>>;
        plant<SmtCell>(
            *w, smtCellOf(*w, 0), 0, "smt_fetch",
            {Case{"committed > fetched",
                  [](SmtCell &x) { x.committed[1] = x.fetched[1] + 1; }},
             Case{"a NaN IPC", [](SmtCell &x) { x.ipcSum = std::nan(""); }},
             Case{"IPC above fetchWidth", [](SmtCell &x) {
                      x.ipcSum = SmtConfig{}.fetchWidth + 0.5;
                  }}});
    }
    {
        const auto w = makeWorkload("bandit_drift", 7, GridSize::Mini);
        miniPass(*w, 1, false);
        using Case =
            std::pair<std::string, std::function<void(DriftCell &)>>;
        plant<DriftCell>(
            *w, driftCellOf(*w, 0), 0, "bandit_drift",
            {Case{"a lost step", [](DriftCell &x) { --x.steps; }},
             Case{"a NaN tail regret",
                  [](DriftCell &x) { x.tailRegret = std::nan(""); }},
             Case{"a negative regret",
                  [](DriftCell &x) { x.cumulativeRegret = -1.0; }}});
    }

    std::printf("self-test: %s (%d failure%s)\n",
                failures == 0 ? "PASS" : "FAIL", failures,
                failures == 1 ? "" : "s");
    return failures == 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mab_perfbench --workload <name> --seed <n> "
                 "[--trace]\n"
                 "       mab_perfbench --self-test\n");
    return 2;
}

bool
parseUint(const char *text, uint64_t *out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    *out = std::strtoull(text, &end, 10);
    return *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 0;
    bool haveSeed = false, traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--self-test" && argc == 2) {
            return selfTest() ? 0 : 1;
        } else if (arg == "--workload" && value) {
            workload = value;
            ++i;
        } else if (arg == "--seed" && parseUint(value, &seed)) {
            haveSeed = true;
            ++i;
        } else if (arg == "--trace") {
            traced = true;
        } else {
            return usage();
        }
    }
    if (!haveSeed)
        return usage();
    const auto w = makeWorkload(workload, seed, GridSize::Bench);
    if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
        return usage();
    }

    try {
        resetArena();
        printPass(workload, seed, runPass(*w, kBenchLanes, traced));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mab_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
