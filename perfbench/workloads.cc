#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "../bench/common.h"
#include "core/drift_env.h"
#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "sim/stats.h"
#include "smt/smt_sim.h"
#include "trace/replay.h"
#include "trace/suites.h"

namespace mab::perfbench {

// ---------------------------------------------------------------------
// Digest.

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<uint64_t>(s.size()));
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

namespace {

/** splitmix64 of (seed, salt): distinct, never-zero per-cell seeds. */
uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

void
expect(std::vector<std::string> &errors, bool ok, const char *what)
{
    if (!ok)
        errors.emplace_back(what);
}

// ---------------------------------------------------------------------
// pf_single: the Figure 8 grid.

/** The six columns of Figure 8 (None is the normalization base). */
const std::vector<std::string> kPrefetchers = {
    "None", "Stride", "Bingo", "MLOP", "Pythia", "Bandit",
};

/**
 * The Figure 8 harness's prefetcher (bench/common.h). A traced pass
 * also records the Bandit's arm history for core.arm_switches; the
 * recording changes no decision, so traced and untraced digests match.
 */
std::unique_ptr<Prefetcher>
makeCellPrefetcher(const std::string &name, uint64_t seed, bool traced)
{
    if (traced && name == "Bandit") {
        BanditPrefetchConfig cfg = bench::benchBanditConfig(seed);
        cfg.hw.recordHistory = true;
        return std::make_unique<BanditPrefetchController>(cfg);
    }
    return bench::makePrefetcher(name, seed);
}

class PfSingle final : public Workload
{
  public:
    PfSingle(uint64_t seed, GridSize size)
        : instr_(size == GridSize::Bench ? kBenchInstr : kMiniInstr)
    {
        std::vector<WorkloadSpec> specs = allWorkloads();
        if (size == GridSize::Mini)
            specs = {specs[0], specs[specs.size() / 2], specs.back()};
        for (size_t w = 0; w < specs.size(); ++w) {
            AppProfile app = specs[w].app;
            app.seed = mixSeed(seed, w + 1);
            apps_.push_back(app);
            for (const std::string &pf : kPrefetchers) {
                PfCell c;
                c.app = app.name;
                c.pf = pf;
                cells_.push_back(c);
            }
        }
    }

    size_t numCells() const override { return cells_.size(); }

    void
    runCell(size_t i, bool traced) override
    {
        PfCell &c = cells_[i];
        const AppProfile &app = apps_[i / kPrefetchers.size()];
        const std::unique_ptr<Prefetcher> pf =
            makeCellPrefetcher(c.pf, app.seed, traced);
        const std::unique_ptr<TraceSource> src =
            makeRunSource(app, instr_);

        std::optional<TimedTrace> timedTrace;
        std::optional<TimedPrefetcher> timedPf;
        TraceSource *trace = src.get();
        Prefetcher *l2 = pf.get();
        if (traced) {
            trace = &timedTrace.emplace(*src);
            if (c.pf != "None")
                l2 = &timedPf.emplace(*pf);
        }

        CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, l2);
        bench::attachDramProbes(core, *l2);
        const uint64_t t0 = nowNs();
        core.run(instr_);
        c.runNs = static_cast<double>(nowNs() - t0);

        CacheHierarchy &h = core.hierarchy();
        c.ipc = core.ipc();
        c.instructions = core.instructions();
        c.cycles = core.cycles();
        c.demandAccesses = h.l1().demandHits + h.l1().demandMisses;
        for (int k = 0; k < 4; ++k)
            c.hits[k] = h.hitsAt(static_cast<HitLevel>(k));
        c.l2Accesses = h.l2DemandAccesses();
        c.pfStats = h.prefetchStats();
        c.dramLines = h.dram().transfers();
        c.dramBusyCycles = h.dram().busBusyCycles();
        c.mshr = h.mshrOccupancy();
        c.pfq = h.prefetchQueueOccupancy();
        if (const auto *b =
                dynamic_cast<const BanditPrefetchController *>(pf.get())) {
            c.bandit = true;
            c.rrDone = !b->agent().policy().inRoundRobin();
            c.banditSteps = b->agent().stepsCompleted();
            const size_t switches = b->agent().history().size();
            c.armSwitches = switches == 0 ? 0 : switches - 1;
        }
        if (timedTrace) {
            c.traceReplay = timedTrace->replayStats();
            c.traceRecord = timedTrace->recordStats();
        }
        if (timedPf) {
            c.onAccess = timedPf->stats();
            c.candidates = timedPf->candidates();
        }
    }

    std::vector<std::string>
    gate(size_t i) const override
    {
        const PfCell &c = cells_[i];
        std::vector<std::string> e;
        expect(e,
               c.hits[0] + c.hits[1] + c.hits[2] + c.hits[3] ==
                   c.demandAccesses,
               "L1+L2+LLC+DRAM hits != demand accesses");
        expect(e, c.pfStats.timely + c.pfStats.late <= c.pfStats.issued,
               "timely+late > issued prefetches");
        expect(e, c.pfStats.wrong <= c.pfStats.issued,
               "wrong > issued prefetches");
        expect(e,
               std::isfinite(c.ipc) && c.ipc > 0.0 &&
                   c.ipc <= CoreConfig{}.fetchWidth,
               "IPC not finite or outside (0, fetchWidth]");
        return e;
    }

    void
    digest(Digest &d) const override
    {
        for (const PfCell &c : cells_) {
            d.add(c.app);
            d.add(c.pf);
            d.add(c.ipc);
            d.add(c.instructions);
            d.add(c.cycles);
            d.add(c.demandAccesses);
            for (uint64_t h : c.hits)
                d.add(h);
            d.add(c.l2Accesses);
            d.add(c.pfStats.issued);
            d.add(c.pfStats.timely);
            d.add(c.pfStats.late);
            d.add(c.pfStats.wrong);
            d.add(c.pfStats.dropped);
            d.add(c.dramLines);
            d.add(c.banditSteps);
        }
    }

    Summary
    summarize() const override
    {
        Summary s;
        std::vector<double> banditOverStride;
        double stride = 0.0;
        std::map<std::string, SampleStats> onAccessByPf;
        SampleStats replay, record;
        double runNs = 0.0, busy = 0.0;
        uint64_t cycles = 0, demand = 0, l1Hits = 0, l2 = 0, l2Hits = 0,
                 llcHits = 0, dram = 0, dropped = 0, calls = 0,
                 issued = 0, useful = 0, late = 0, wrong = 0,
                 candidates = 0, steps = 0, switches = 0;
        OccupancyAccum mshr, pfq;
        for (const PfCell &c : cells_) {
            s.workUnits += c.instructions;
            cycles += c.cycles;
            runNs += c.runNs;
            replay += c.traceReplay;
            record += c.traceRecord;
            demand += c.demandAccesses;
            l1Hits += c.hits[0];
            l2 += c.l2Accesses;
            l2Hits += c.hits[1];
            llcHits += c.hits[2];
            dram += c.dramLines;
            busy += c.dramBusyCycles;
            mshr.samples += c.mshr.samples;
            mshr.sum += c.mshr.sum;
            pfq.samples += c.pfq.samples;
            pfq.sum += c.pfq.sum;
            dropped += c.pfStats.dropped;
            // Cells run app-major in kPrefetchers order, so an app's
            // Stride cell precedes its Bandit cell.
            if (c.pf == "Stride")
                stride = c.ipc;
            if (c.pf == "Bandit")
                banditOverStride.push_back(ratio(c.ipc, stride));
            if (c.pf != "None") {
                calls += c.l2Accesses;
                issued += c.pfStats.issued;
                useful += c.pfStats.timely + c.pfStats.late;
                late += c.pfStats.late;
                wrong += c.pfStats.wrong;
                candidates += c.candidates;
                onAccessByPf[c.pf] += c.onAccess;
            }
            if (c.bandit) {
                ++s.banditCells;
                s.rrIncomplete += c.rrDone ? 0 : 1;
                steps += c.banditSteps;
                switches += c.armSwitches;
            }
        }
        s.quality = gmean(banditOverStride);
        s.named["pf_bandit_vs_stride"] = s.quality;

        SampleStats allOnAccess;
        for (const auto &[pf, st] : onAccessByPf)
            allOnAccess += st;
        const double instr = static_cast<double>(s.workUnits);
        auto &L = s.layers;
        L["trace.records"] = instr;
        L["trace.next_ns"] = replay.meanNs();
        L["trace.gen_ms"] = record.totalNs() / 1e6;
        L["cpu.instructions"] = instr;
        L["cpu.run_ns_per_instr"] = ratio(runNs, instr);
        L["cpu.self_ns_per_instr"] =
            ratio(runNs - replay.totalNs() - record.totalNs() -
                      allOnAccess.totalNs(),
                  instr);
        L["cpu.ipc"] = ratio(instr, static_cast<double>(cycles));
        L["memory.l1_accesses"] = static_cast<double>(demand);
        L["memory.l1_hit_ratio"] = ratio(l1Hits, demand);
        L["memory.l2_accesses"] = static_cast<double>(l2);
        L["memory.l2_hit_ratio"] = ratio(l2Hits, l2);
        L["memory.llc_accesses"] = static_cast<double>(l2 - l2Hits);
        L["memory.llc_hit_ratio"] = ratio(llcHits, l2 - l2Hits);
        L["memory.dram_lines"] = static_cast<double>(dram);
        L["memory.dram_bus_util"] = ratio(busy, cycles);
        L["memory.mshr_occ_mean"] = mshr.mean();
        L["memory.pfq_occ_mean"] = pfq.mean();
        L["memory.pf_dropped"] = static_cast<double>(dropped);
        L["prefetch.calls"] = static_cast<double>(calls);
        for (const auto &[pf, st] : onAccessByPf)
            L["prefetch.onaccess_ns." + pf] = st.meanNs();
        L["prefetch.candidates_per_call"] =
            ratio(candidates, allOnAccess.calls);
        L["prefetch.issued"] = static_cast<double>(issued);
        L["prefetch.useful_ratio"] = ratio(useful, issued);
        L["prefetch.late_ratio"] = ratio(late, issued);
        L["prefetch.wrong_ratio"] = ratio(wrong, issued);
        L["core.steps"] = static_cast<double>(steps);
        L["core.arm_switches"] = static_cast<double>(switches);
        L["core.rr_done_frac"] =
            ratio(s.banditCells - s.rrIncomplete, s.banditCells);
        return s;
    }

    std::vector<PfCell> cells_;

  private:
    /** Instructions per cell; the sweep binaries' scale 1.0 is 1M. */
    static constexpr uint64_t kBenchInstr = 150'000;
    static constexpr uint64_t kMiniInstr = 20'000;

    uint64_t instr_;
    std::vector<AppProfile> apps_;
};

// ---------------------------------------------------------------------
// smt_fetch: Table 9 style fetch-policy selection.

/** Regimes per mix: the 6 static arms, then Choi, then the Bandit. */
constexpr size_t kSmtRegimes = 8;

class SmtFetch final : public Workload
{
  public:
    SmtFetch(uint64_t seed, GridSize size)
    {
        // Table 9's tune mixes, spread over the 43.
        const auto all = smtMixes(43, 10);
        const std::vector<size_t> picks = size == GridSize::Bench
            ? std::vector<size_t>{0, 21, 42}
            : std::vector<size_t>{0};
        // The Mini budget is the degenerate case the round-robin guard
        // exists for: 80k cycles is under 4096-cycle epochs x 6 arms x
        // 4 round-robin epochs, so the Bandit never leaves round-robin.
        run_.maxCycles = size == GridSize::Bench ? 800'000 : 80'000;
        run_.seed = mixSeed(seed, 0x5317);
        for (size_t m : picks) {
            mixes_.push_back(all[m]);
            for (size_t r = 0; r < kSmtRegimes; ++r) {
                SmtCell c;
                c.mix = all[m].first + "+" + all[m].second;
                c.bandit = r == kSmtRegimes - 1;
                c.regime = r < smtArmTable().size() ? smtArmTable()[r].name()
                    : c.bandit                      ? "DUCB"
                                                    : "Choi";
                cells_.push_back(c);
            }
        }
    }

    size_t numCells() const override { return cells_.size(); }

    void
    runCell(size_t i, bool) override
    {
        SmtCell &c = cells_[i];
        const auto &[a, b] = mixes_[i / kSmtRegimes];
        const size_t r = i % kSmtRegimes;
        SmtSimulator sim(a, b, run_);
        StatsRegistry reg;
        const uint64_t t0 = nowNs();
        const SmtRunResult res = r < smtArmTable().size()
            ? sim.runStatic(smtArmTable()[r], &reg)
            : c.bandit ? sim.runBandit(SmtBanditConfig{}, &reg)
                       : sim.runStatic(choiPolicy(), &reg);
        c.runNs = static_cast<double>(nowNs() - t0);

        c.ipc[0] = res.ipc[0];
        c.ipc[1] = res.ipc[1];
        c.ipcSum = res.ipcSum;
        c.cycles = res.cycles;
        c.rename = res.rename;
        for (int t = 0; t < 2; ++t) {
            const std::string th = "smt.thread" + std::to_string(t);
            c.fetched[t] = reg.counter(th + ".fetched").value();
            c.committed[t] = reg.counter(th + ".committed").value();
        }
        c.policySwitches = reg.counter("smt.policySwitches").value();
        if (c.bandit) {
            c.banditSteps = reg.counter("bandit.steps").value();
            c.armSwitches = reg.counter("bandit.armSwitches").value();
            // Restarts are off in SmtBanditConfig, so the initial
            // round-robin phase is exactly one step per arm.
            c.rrDone = c.banditSteps >=
                static_cast<uint64_t>(SmtBanditConfig{}.mab.numArms);
        }
    }

    std::vector<std::string>
    gate(size_t i) const override
    {
        const SmtCell &c = cells_[i];
        std::vector<std::string> e;
        expect(e,
               c.committed[0] <= c.fetched[0] &&
                   c.committed[1] <= c.fetched[1],
               "SMT committed > fetched");
        expect(e,
               std::isfinite(c.ipcSum) && c.ipcSum > 0.0 &&
                   c.ipcSum <= SmtConfig{}.fetchWidth,
               "IPC not finite or outside (0, fetchWidth]");
        return e;
    }

    void
    digest(Digest &d) const override
    {
        for (const SmtCell &c : cells_) {
            d.add(c.mix);
            d.add(c.regime);
            d.add(c.ipc[0]);
            d.add(c.ipc[1]);
            d.add(c.cycles);
            for (int t = 0; t < 2; ++t) {
                d.add(c.fetched[t]);
                d.add(c.committed[t]);
            }
            d.add(c.rename.stalled);
            d.add(c.rename.idle);
            d.add(c.rename.running);
            d.add(c.policySwitches);
            d.add(c.banditSteps);
        }
    }

    Summary
    summarize() const override
    {
        Summary s;
        std::vector<double> ducbOverBest;
        double bestStatic = 0.0, runNs = 0.0;
        uint64_t cycles = 0, stalled = 0, renameCycles = 0, pgSwitches = 0,
                 steps = 0, switches = 0;
        for (size_t i = 0; i < cells_.size(); ++i) {
            const SmtCell &c = cells_[i];
            const size_t r = i % kSmtRegimes;
            if (r == 0)
                bestStatic = 0.0;
            if (r < smtArmTable().size())
                bestStatic = std::max(bestStatic, c.ipcSum);
            s.workUnits += c.committed[0] + c.committed[1];
            cycles += c.cycles;
            runNs += c.runNs;
            stalled += c.rename.stalled;
            renameCycles +=
                c.rename.stalled + c.rename.idle + c.rename.running;
            pgSwitches += c.policySwitches;
            if (c.bandit) {
                ducbOverBest.push_back(ratio(c.ipcSum, bestStatic));
                ++s.banditCells;
                s.rrIncomplete += c.rrDone ? 0 : 1;
                steps += c.banditSteps;
                switches += c.armSwitches;
            }
        }
        s.quality = gmean(ducbOverBest);
        s.named["smt_ducb_pct_best"] = 100.0 * s.quality;

        auto &L = s.layers;
        L["smt.cycles"] = static_cast<double>(cycles);
        L["smt.run_ns_per_cycle"] = ratio(runNs, cycles);
        L["smt.committed"] = static_cast<double>(s.workUnits);
        L["smt.epochs"] =
            static_cast<double>(cycles / run_.hcEpochCycles);
        L["smt.pg_switches"] = static_cast<double>(pgSwitches);
        L["smt.rename_stall_frac"] = ratio(stalled, renameCycles);
        L["trace.uop_gen_ms"] = TraceArena::global().stats().genMs;
        L["core.steps"] = static_cast<double>(steps);
        L["core.arm_switches"] = static_cast<double>(switches);
        L["core.rr_done_frac"] =
            ratio(s.banditCells - s.rrIncomplete, s.banditCells);
        return s;
    }

    std::vector<SmtCell> cells_;

  private:
    SmtRunConfig run_;
    std::vector<std::pair<std::string, std::string>> mixes_;
};

// ---------------------------------------------------------------------
// bandit_drift: agent-only drifting-bandit regret.

/** The UCB, DUCB and SW-UCB part of the drift lab's policy grid. */
std::vector<DriftPolicySpec>
driftPolicies()
{
    std::vector<DriftPolicySpec> out;
    for (const DriftPolicySpec &p : driftPolicyGrid()) {
        if (p.algo == MabAlgorithm::Ucb || p.algo == MabAlgorithm::Ducb ||
            p.algo == MabAlgorithm::SwUcb)
            out.push_back(p);
    }
    return out;
}

/** The policy bandit_quality and drift_ducb_tail_regret follow. */
constexpr const char *kDriftReference = "DUCB g=0.99";

/** Mean reward of every phase's oracle arm (core/drift_env.h). */
constexpr double kDriftOracleMean = 0.9;

class BanditDrift final : public Workload
{
  public:
    BanditDrift(uint64_t seed, GridSize size)
        : seed_(seed),
          steps_(size == GridSize::Bench ? kBenchSteps : kMiniSteps)
    {
        // The paper's arm counts: 11 (prefetching), 6 (SMT fetch).
        for (int arms : {11, 6}) {
            for (uint64_t div : {4, 16, 64}) {
                for (const DriftPolicySpec &p : driftPolicies()) {
                    DriftCell c;
                    c.policy = p.label;
                    c.arms = arms;
                    c.period = steps_ / div;
                    c.expectedSteps = steps_;
                    cells_.push_back(c);
                    specs_.push_back(p);
                }
            }
        }
    }

    size_t numCells() const override { return cells_.size(); }

    void
    runCell(size_t i, bool traced) override
    {
        DriftCell &c = cells_[i];
        DriftBanditConfig cfg;
        cfg.numArms = c.arms;
        cfg.steps = steps_;
        cfg.periodSteps = c.period;
        cfg.seed = mixSeed(seed_, i + 1);
        const std::unique_ptr<MabPolicy> policy =
            makeDriftPolicy(specs_[i], c.arms, mixSeed(seed_, ~i));
        std::optional<TimedPolicy> timed;
        MabPolicy *driven = policy.get();
        if (traced)
            driven = &timed.emplace(*policy);
        const PhasedRegretTracker tracker =
            runDriftingBandit(*driven, cfg);

        c.steps = tracker.steps();
        c.policySteps = policy->steps();
        c.cumulativeRegret = tracker.cumulative();
        c.tailRegret = tracker.tailRegretRate();
        c.recoveredFraction = tracker.recoveredFraction();
        c.rrDone = !policy->inRoundRobin();
        if (timed) {
            c.select = timed->selectStats();
            c.update = timed->updateStats();
            c.armSwitches = timed->armSwitches();
        }
    }

    std::vector<std::string>
    gate(size_t i) const override
    {
        const DriftCell &c = cells_[i];
        std::vector<std::string> e;
        expect(e,
               c.steps == c.expectedSteps &&
                   c.policySteps == c.expectedSteps,
               "bandit steps != configured steps");
        expect(e,
               std::isfinite(c.cumulativeRegret) &&
                   c.cumulativeRegret >= 0.0,
               "cumulative regret not finite or negative");
        expect(e,
               std::isfinite(c.tailRegret) && c.tailRegret >= 0.0 &&
                   c.tailRegret <= kDriftOracleMean,
               "tail regret not finite or outside [0, oracle mean]");
        return e;
    }

    void
    digest(Digest &d) const override
    {
        for (const DriftCell &c : cells_) {
            d.add(c.policy);
            d.add(static_cast<uint64_t>(c.arms));
            d.add(c.period);
            d.add(c.steps);
            d.add(c.cumulativeRegret);
            d.add(c.tailRegret);
            d.add(c.recoveredFraction);
        }
    }

    Summary
    summarize() const override
    {
        Summary s;
        SampleStats select, update;
        double refTail = 0.0;
        uint64_t refCells = 0, switches = 0;
        for (const DriftCell &c : cells_) {
            s.workUnits += c.steps;
            select += c.select;
            update += c.update;
            switches += c.armSwitches;
            ++s.banditCells;
            s.rrIncomplete += c.rrDone ? 0 : 1;
            if (c.policy == kDriftReference) {
                refTail += c.tailRegret;
                ++refCells;
            }
        }
        const double tail = ratio(refTail, refCells);
        s.named["drift_ducb_tail_regret"] = tail;
        s.quality = 1.0 - tail / kDriftOracleMean;

        auto &L = s.layers;
        L["core.steps"] = static_cast<double>(s.workUnits);
        L["core.select_ns"] = select.meanNs();
        L["core.update_ns"] = update.meanNs();
        L["core.step_ns"] = select.meanNs() + update.meanNs();
        L["core.arm_switches"] = static_cast<double>(switches);
        L["core.rr_done_frac"] =
            ratio(s.banditCells - s.rrIncomplete, s.banditCells);
        return s;
    }

    std::vector<DriftCell> cells_;

  private:
    static constexpr uint64_t kBenchSteps = 500'000;
    static constexpr uint64_t kMiniSteps = 2'048;

    uint64_t seed_;
    uint64_t steps_;
    std::vector<DriftPolicySpec> specs_;
};

template <class W>
auto *
cellOf(Workload &w, size_t i)
{
    auto *typed = dynamic_cast<W *>(&w);
    return typed && i < typed->cells_.size() ? &typed->cells_[i] : nullptr;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "pf_single", "smt_fetch", "bandit_drift"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, GridSize size)
{
    if (name == "pf_single")
        return std::make_unique<PfSingle>(seed, size);
    if (name == "smt_fetch")
        return std::make_unique<SmtFetch>(seed, size);
    if (name == "bandit_drift")
        return std::make_unique<BanditDrift>(seed, size);
    return nullptr;
}

const std::vector<std::string> &
layerMetricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = {
            "trace.records", "trace.next_ns", "trace.gen_ms",
            "trace.arena_hit_ratio", "trace.arena_lookups",
            "trace.arena_mb", "trace.uop_gen_ms",
            "cpu.instructions", "cpu.run_ns_per_instr",
            "cpu.self_ns_per_instr", "cpu.ipc",
            "memory.l1_accesses", "memory.l1_hit_ratio",
            "memory.l2_accesses", "memory.l2_hit_ratio",
            "memory.llc_accesses", "memory.llc_hit_ratio",
            "memory.dram_lines", "memory.dram_bus_util",
            "memory.mshr_occ_mean", "memory.pfq_occ_mean",
            "memory.pf_dropped", "prefetch.calls"};
        for (const std::string &pf : kPrefetchers) {
            if (pf != "None")
                n.push_back("prefetch.onaccess_ns." + pf);
        }
        for (const char *m :
             {"prefetch.candidates_per_call", "prefetch.issued",
              "prefetch.useful_ratio", "prefetch.late_ratio",
              "prefetch.wrong_ratio", "core.steps", "core.step_ns",
              "core.select_ns", "core.update_ns", "core.arm_switches",
              "core.rr_done_frac", "smt.cycles", "smt.run_ns_per_cycle",
              "smt.committed", "smt.epochs", "smt.pg_switches",
              "smt.rename_stall_frac", "sim.cells", "sim.lanes",
              "sim.lane_busy_frac", "sim.cell_wait_ms_p95",
              "sim.report_ms", "sim.trace_overhead"})
            n.push_back(m);
        return n;
    }();
    return names;
}

PfCell *
pfCellOf(Workload &w, size_t i)
{
    return cellOf<PfSingle>(w, i);
}

SmtCell *
smtCellOf(Workload &w, size_t i)
{
    return cellOf<SmtFetch>(w, i);
}

DriftCell *
driftCellOf(Workload &w, size_t i)
{
    return cellOf<BanditDrift>(w, i);
}

} // namespace mab::perfbench
