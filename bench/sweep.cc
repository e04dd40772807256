#include "sweep.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/heuristics.h"
#include "cpu/multicore.h"
#include "sim/parallel.h"
#include "sim/tracing.h"
#include "trace/replay.h"

namespace mab::bench {

namespace {

/** Print the usage error @p err on stderr and exit 2 if it is set. */
void
exitOnUsageError(const std::string &err)
{
    if (!err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(2);
    }
}

/** The sweep binaries' flag table. */
const std::vector<Flag> kSweepFlags = {
    {"--jobs", "n"},      {"--json", "path"},
    {"--trace", "path"},  {"--trace-granularity", "cycles"},
    {"--audit", "path"},
};

/** `flag`'s value, else the environment variable @p env, else null. */
const char *
flagOrEnv(int argc, char **argv, const char *flag, const char *env)
{
    const char *v = nullptr;
    exitOnUsageError(findFlagValue(argc, argv, flag, &v));
    return v ? v : std::getenv(env);
}

} // namespace

// ---- Command line.

std::string
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

bool
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

bool
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

std::string
checkFlags(int argc, char **argv, const std::vector<Flag> &table)
{
    std::vector<bool> seen(table.size(), false);
    for (int i = 1; i < argc; ++i) {
        size_t f = 0;
        while (f < table.size() && std::strcmp(argv[i], table[f].name))
            ++f;
        if (f == table.size()) {
            std::string msg = std::string("usage error: unknown "
                                          "argument '") +
                argv[i] + "' (accepted:";
            for (const Flag &flag : table) {
                msg += std::string(&flag == table.data() ? " " : ", ") +
                    flag.name;
                if (flag.value)
                    msg += std::string(" <") + flag.value + ">";
            }
            return msg + ")";
        }
        if (seen[f])
            return std::string("usage error: duplicate ") + argv[i];
        seen[f] = true;
        if (!table[f].value)
            continue;
        if (i + 1 >= argc)
            return std::string("usage error: ") + argv[i] +
                " needs a value";
        ++i; // the flag consumes the next token
    }
    return "";
}

std::string
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

std::string
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

std::string
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

std::string
resolveGranularity(int argc, char **argv, const char *env, uint64_t *out)
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

// ---- Cells.

std::vector<size_t>
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

std::vector<double>
runCells(const std::vector<Cell> &cells, int jobs)
{
    // A stream key always holds a profile fingerprint's '|', so "#i"
    // names streamless cell i alone.
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        keys.push_back(cells[i].stream.empty() ? "#" + std::to_string(i)
                                               : cells[i].stream);
    std::vector<SweepRunner::Task> tasks;
    tasks.reserve(cells.size());
    for (size_t i : claimOrder(keys, jobs))
        tasks.push_back(cells[i].run);
    SweepRunner runner(jobs);
    runner.run(std::move(tasks));
    std::vector<double> wallMs;
    for (const SweepTaskStats &s : runner.lastTaskStats())
        wallMs.push_back(static_cast<double>(s.wallNs) / 1e6);
    return wallMs;
}

// ---- Report values and descriptions.

json::Value
obj(std::initializer_list<std::pair<std::string, json::Value>> members)
{
    json::Value v = json::Value::object();
    for (const auto &[key, value] : members)
        v[key] = value;
    return v;
}

double
num(const json::Value &v, const std::string &key)
{
    const json::Value *m = v.find(key);
    if (!m)
        throw std::out_of_range("report has no member " + key);
    return m->asDouble();
}

json::Value
describe(const CoreConfig &core, const HierarchyConfig &hier,
         const DramConfig &dram, int cores)
{
    return obj({{"kind", "core"}, {"cores", cores},
                {"fetchWidth", core.fetchWidth}, {"robSize", core.robSize},
                {"commitWidth", core.commitWidth},
                {"branchMissPenalty", core.branchMissPenalty},
                {"prefetchIssueLatency", core.prefetchIssueLatency},
                {"l1Bytes", hier.l1.sizeBytes},
                {"l2Bytes", hier.l2.sizeBytes},
                {"llcBytes", hier.llc.sizeBytes},
                {"mshrEntries", hier.mshrEntries},
                {"prefetchQueueMax", hier.prefetchQueueMax},
                {"dramMtps", dram.mtps},
                {"dramBaseLatencyCycles", dram.baseLatencyCycles}});
}

json::Value
describe(const SmtConfig &pipe, const SmtRunConfig &run)
{
    return obj({{"kind", "smt"}, {"threads", SmtConfig::kThreads},
                {"fetchWidth", pipe.fetchWidth},
                {"decodeWidth", pipe.decodeWidth},
                {"commitWidth", pipe.commitWidth}, {"iqSize", pipe.iqSize},
                {"robSize", pipe.robSize}, {"lqSize", pipe.lqSize},
                {"sqSize", pipe.sqSize}, {"irfSize", pipe.irfSize},
                {"frfSize", pipe.frfSize},
                {"fetchQueueSize", pipe.fetchQueueSize},
                {"hcEpochCycles", run.hcEpochCycles},
                {"hcDelta", run.hcDelta}});
}

namespace {

/** The policy knobs both use cases share (MabConfig minus the seed). */
json::Value
describeMab(const char *kind, MabAlgorithm algo, const MabConfig &mab)
{
    return obj({{"kind", kind}, {"algorithm", toString(algo)},
                {"numArms", mab.numArms}, {"epsilon", mab.epsilon},
                {"c", mab.c}, {"gamma", mab.gamma},
                {"normalizeRewards", mab.normalizeRewards},
                {"rrRestartProb", mab.rrRestartProb}});
}

json::Value
describeArm(const PrefetchArm &arm)
{
    return obj({{"nextLine", arm.nextLineOn},
                {"strideDegree", arm.strideDegree},
                {"streamDegree", arm.streamDegree}});
}

} // namespace

json::Value
describe(const BanditPrefetchConfig &cfg)
{
    json::Value a = describeMab("bandit", cfg.algorithm, cfg.mab);
    a["stepUnits"] = cfg.hw.stepUnits;
    a["stepUnitsRr"] = cfg.hw.stepUnitsRr;
    a["selectionLatencyCycles"] = cfg.hw.selectionLatencyCycles;
    const auto &table = prefetchArmTable();
    if (static_cast<size_t>(cfg.mab.numArms) == table.size()) {
        for (const PrefetchArm &arm : table)
            a["armTable"].push(describeArm(arm));
    }
    return a;
}

json::Value
describe(const SmtBanditConfig &cfg)
{
    json::Value a = describeMab("smtBandit", cfg.algorithm, cfg.mab);
    a["stepEpochs"] = cfg.stepEpochs;
    a["stepRrEpochs"] = cfg.stepRrEpochs;
    a["armTable"] = describe(std::vector<PgPolicy>(smtArmTable().begin(),
                                                   smtArmTable().end()));
    return a;
}

json::Value
describe(const PythiaConfig &cfg, bool bandwidthProbe)
{
    return obj({{"kind", "pythia"}, {"planeEntries", cfg.planeEntries},
                {"alpha", cfg.alpha}, {"gamma", cfg.gamma},
                {"epsilon", cfg.epsilon}, {"eqDepth", cfg.eqDepth},
                {"rewardHit", cfg.rewardHit}, {"rewardLate", cfg.rewardLate},
                {"rewardMiss", cfg.rewardMiss},
                {"rewardNone", cfg.rewardNone},
                {"lateThresholdCycles", cfg.lateThresholdCycles},
                {"qInit", cfg.qInit}, {"bwPenaltyScale", cfg.bwPenaltyScale},
                {"bandwidthProbe", bandwidthProbe}});
}

json::Value
describe(const std::vector<PgPolicy> &policies)
{
    json::Value names = json::Value::array();
    for (const PgPolicy &p : policies)
        names.push(p.name());
    return names;
}

json::Value
describe(const DriftBanditConfig &cfg)
{
    return obj({{"kind", "driftingBandit"}, {"numArms", cfg.numArms},
                {"steps", cfg.steps}, {"periodSteps", cfg.periodSteps},
                {"noise", cfg.noise},
                {"recoveryWindow", cfg.recoveryWindow}});
}

json::Value
describe(const DriftPolicySpec &spec)
{
    json::Value a = obj({{"kind", "policy"}, {"label", spec.label},
                         {"algorithm", toString(spec.algo)}});
    if (spec.algo == MabAlgorithm::Ducb)
        a["gamma"] = spec.gamma;
    if (spec.algo == MabAlgorithm::SwUcb)
        a["window"] = spec.window;
    return a;
}

json::Value
describePrefetcher(const std::string &name, bool bandwidthProbe)
{
    if (name == "Pythia")
        return describe(PythiaConfig{}, bandwidthProbe);
    BanditPrefetchConfig bandit;
    if (namedBanditConfig(name, 1, benchBanditConfig().hw.stepUnits,
                          &bandit))
        return describe(bandit);
    if (name.rfind("Arm:", 0) == 0) {
        const int arm = std::stoi(name.substr(4));
        const BanditHwConfig hw;
        return obj({{"kind", "fixedArm"}, {"arm", arm},
                    {"entry", describeArm(prefetchArmTable().at(arm))},
                    {"stepUnits", hw.stepUnits},
                    {"selectionLatencyCycles", hw.selectionLatencyCycles}});
    }
    return obj({{"kind", "prefetcher"}, {"name", name}});
}

json::Value
config(json::Value machine, std::vector<json::Value> agents)
{
    json::Value list = json::Value::array();
    for (json::Value &a : agents)
        list.push(std::move(a));
    return obj({{"machine", std::move(machine)}, {"agents", std::move(list)}});
}

// ---- Prefetching cells.

std::string
streamKey(const AppProfile &app, uint64_t instr)
{
    return profileFingerprint(app) + '#' + std::to_string(instr);
}

PfRun
runPrefetch(const AppProfile &app, Prefetcher &pf, uint64_t instr,
            const HierarchyConfig &hier, const DramConfig &dram,
            uint64_t seed)
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

std::unique_ptr<Prefetcher>
makeCellPrefetcher(const std::string &name, uint64_t seed)
{
    if (name.rfind("Arm:", 0) != 0)
        return makePrefetcher(name, seed);
    MabConfig mcfg;
    mcfg.numArms = BanditEnsemblePrefetcher::numArms();
    return std::make_unique<BanditPrefetchController>(
        std::make_unique<FixedArmPolicy>(
            mcfg, static_cast<ArmId>(std::stoi(name.substr(4)))),
        BanditHwConfig{});
}

std::vector<Cell>
pfCells(const std::vector<PfTask> &grid, std::vector<PfRun> *out)
{
    out->assign(grid.size(), PfRun{});
    std::vector<Cell> cells;
    cells.reserve(grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        const PfTask &t = grid[i];
        AppProfile stream = t.app;
        if (t.seed != 0)
            stream.seed = t.seed;
        cells.push_back(
            {streamKey(stream, t.instr),
             config(describe(CoreConfig{}, t.hier, t.dram),
                    {describePrefetcher(t.pf, true)}),
             [t, r = &(*out)[i]] {
                 const std::unique_ptr<Prefetcher> pf = makeCellPrefetcher(
                     t.pf, t.seed != 0 ? t.seed : t.app.seed);
                 *r = runPrefetch(t.app, *pf, t.instr, t.hier, t.dram,
                                  t.seed);
             }});
    }
    return cells;
}

double
runTwoLevel(const AppProfile &app, uint64_t instr, Prefetcher *l2,
            Prefetcher *l1)
{
    const auto trace = makeRunSource(app, instr);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, l2, l1);
    tracing::Tracer &tracer = tracing::Tracer::global();
    tracer.beginRun(app.name + "/" + (l1 ? l1->name() + "+" : "") +
                    (l2 ? l2->name() : "None"));
    core.run(instr);
    tracer.endRun(core.cycles());
    return core.ipc();
}

DramConfig
fourCoreDram()
{
    // The per-core bandwidth the multi-programmed ChampSim studies
    // provision.
    DramConfig dram;
    dram.mtps = 4800;
    return dram;
}

double
runFourCore(const AppProfile &app, uint64_t instrPerCore,
            const std::function<std::unique_ptr<Prefetcher>(uint64_t)> &make)
{
    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, fourCoreDram(),
                        kFourCores);
    std::vector<std::unique_ptr<SyntheticTrace>> traces;
    std::vector<std::unique_ptr<Prefetcher>> pfs;
    for (int c = 0; c < kFourCores; ++c) {
        AppProfile per_core = app;
        // Different trace regions of the same app per core.
        per_core.seed = app.seed + static_cast<uint64_t>(c) * 911;
        traces.push_back(std::make_unique<SyntheticTrace>(per_core));
        pfs.push_back(make(per_core.seed));
        sys.attachCore(c, *traces.back(), pfs.back().get());
    }
    tracing::Tracer &tracer = tracing::Tracer::global();
    tracer.beginRun(app.name + "/" +
                    (pfs.front() ? pfs.front()->name() : "None"));
    const double sum_ipc = sys.run(instrPerCore).sumIpc;
    // The run ends with its slowest core.
    uint64_t cycles = 0;
    for (int c = 0; c < kFourCores; ++c)
        cycles = std::max(cycles, sys.core(c).cycles());
    tracer.endRun(cycles);
    return sum_ipc;
}

// ---- Tables.

void
rule(int width)
{
    for (int i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

json::Value
pctOfBestStatic(const std::vector<std::string> &labels,
                const std::map<std::string, std::vector<double>> &ratios)
{
    json::Value table = json::Value::object();
    for (const std::string &l : labels) {
        const RatioSummary s = summarizeRatios(ratios.at(l));
        json::Value row = json::Value::object();
        row["min"] = s.min;
        row["max"] = s.max;
        row["gmean"] = s.gmean;
        table[l] = std::move(row);
    }
    return table;
}

void
printPctOfBestStatic(const json::Value &table)
{
    std::printf("%-7s", "");
    for (const auto &[label, row] : table.members())
        std::printf("%10s", label.c_str());
    std::printf("\n");
    rule(67);
    for (const char *stat : {"min", "max", "gmean"}) {
        std::printf("%-7s", stat);
        for (const auto &[label, row] : table.members())
            std::printf("%10s", fmt(row.find(stat)->asDouble(), 1).c_str());
        std::printf("\n");
    }
    rule(67);
}

// ---- The runner.

Sweep::Sweep(int argc, char **argv, const char *bench)
    : bench_(bench), cmdline_(argv, argv + argc)
{
    exitOnUsageError(checkFlags(argc, argv, kSweepFlags));
    exitOnUsageError(resolveScale(std::getenv("MAB_BENCH_SCALE"), &scale_));
    exitOnUsageError(
        resolveJobs(argc, argv, std::getenv("MAB_BENCH_JOBS"), &jobs_));
    uint64_t granularity = 0;
    exitOnUsageError(resolveGranularity(
        argc, argv, std::getenv("MAB_TRACE_GRANULARITY"), &granularity));
    if (granularity != 0)
        tracing::Tracer::global().setGranularity(granularity);
    tracePath_ = flagOrEnv(argc, argv, "--trace", "MAB_TRACE");
    auditPath_ = flagOrEnv(argc, argv, "--audit", "MAB_AUDIT");
    reportPath_ = flagOrEnv(argc, argv, "--json", "MAB_BENCH_JSON");
    if (reportPath_) {
        report_ = std::fopen(reportPath_, "wb");
        if (!report_) {
            std::fprintf(stderr, "cannot open json output: %s\n",
                         reportPath_);
            std::exit(1);
        }
    }
}

Sweep::~Sweep()
{
    if (report_)
        std::fclose(report_);
    tracing::Tracer::global().finalize();
}

uint64_t
Sweep::scaled(uint64_t n) const
{
    uint64_t budget = 0;
    exitOnUsageError(scaledBudget(n, scale_, &budget));
    return budget;
}

void
Sweep::run(std::vector<Cell> cells)
{
    if (ran_)
        throw std::logic_error("Sweep::run: a sweep runs its grid once");
    ran_ = true;

    // Distinct descriptions in grid order: the same list at any jobs.
    std::unordered_set<std::string> seen;
    for (const Cell &c : cells) {
        if (seen.insert(c.config.dump(0)).second)
            configs_.push(c.config);
    }

    tracing::Tracer &tracer = tracing::Tracer::global();
    if (tracePath_) {
        // An open trace serializes the sweep (below).
        const json::Value meta = this->meta(1);
        if (!tracer.openTrace(tracePath_, &meta))
            std::fprintf(stderr, "cannot open trace output: %s\n",
                         tracePath_);
        else
            std::printf("tracing to %s\n", tracePath_);
    }
    if (auditPath_) {
        if (!tracer.openAudit(auditPath_))
            std::fprintf(stderr, "cannot open audit output: %s\n",
                         auditPath_);
        else
            std::printf("bandit audit log to %s\n", auditPath_);
    }
    if (jobs_ > 1 && tracer.enabled()) {
        std::printf("tracing/audit sink open: serializing sweep (jobs 1)\n");
        jobs_ = 1;
    }

    taskWallMs_ = runCells(cells, jobs_);
}

json::Value
Sweep::meta(int jobs) const
{
    json::Value cmd = json::Value::array();
    for (const std::string &arg : cmdline_)
        cmd.push(arg);
    json::Value wall = json::Value::array();
    for (double ms : taskWallMs_)
        wall.push(ms);
    const TraceArena::Stats ar = TraceArena::global().stats();
    return obj(
        {{"tool", "micro-armed-bandit-sim"},
         {"version", tracing::kToolVersion},
         {"cmdline", std::move(cmd)},
         {"scale", scale_},
         {"configs", configs_},
         {"parallel", obj({{"jobs", jobs}, {"taskWallMs", std::move(wall)}})},
         {"traceArena",
          obj({{"enabled", ar.enabled}, {"hits", ar.hits},
               {"misses", ar.misses}, {"evictions", ar.evictions},
               {"entries", ar.entries}, {"bytes", ar.bytes},
               {"budgetBytes", ar.budgetBytes}, {"genMs", ar.genMs},
               {"dir", ar.dir}, {"fileHits", ar.fileHits},
               {"fileSpills", ar.fileSpills},
               {"fileRejects", ar.fileRejects}})}});
}

int
Sweep::finish()
{
    if (!report_)
        return 0;
    json::Value report = json::Value::object();
    report["bench"] = bench_;
    report["scale"] = scale_;
    for (const auto &[key, value] : body_.members())
        report[key] = value;
    report["meta"] = meta(jobs_);
    const std::string text = report.dump(2);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), report_) == text.size();
    const bool closed = std::fclose(report_) == 0;
    report_ = nullptr;
    if (!ok || !closed) {
        std::fprintf(stderr, "short write on json output: %s\n",
                     reportPath_);
        return 1;
    }
    std::printf("json report written to %s\n", reportPath_);
    return 0;
}

} // namespace mab::bench
