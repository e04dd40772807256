#include <cmath>
#include <sstream>

#include "core/drift_env.h"
#include "fuzz/domains.h"
#include "fuzz/shrink.h"
#include "sim/rng.h"
#include "trace/drift.h"

namespace mab::fuzz {

namespace {

/**
 * A drift differential case: one seeded drifting profile (phase-
 * shifting, cyclic or adversarial — trace/drift.h) checked across the
 * whole delivery stack, plus a drifting-bandit rollout checked for
 * regret conservation against the per-phase oracle (core/regret.h).
 */
struct DriftCase
{
    /** 0 = phase-shift, 1 = cyclic, 2 = adversarial. */
    int kind = 1;
    DriftProfile drift;
    uint64_t instructions = 2000;
    /** Machine of the live-vs-replay counter leg. */
    HierarchyConfig hier;
    DramConfig dram;
    std::string prefetcher = "None";
    /** Regret-conservation rollout over the moving oracle. */
    DriftBanditConfig env;
    DriftPolicySpec policy;
};

std::string
formatDriftCase(const DriftCase &c)
{
    static const char *const kinds[] = {"phase-shift", "cyclic",
                                        "adversarial"};
    std::ostringstream os;
    os << "drift case: kind=" << kinds[c.kind % 3]
       << " instr=" << c.instructions
       << " segments=" << c.drift.schedule.size()
       << " phases=" << c.drift.app.phases.size()
       << " seed=" << c.drift.app.seed << " pf=" << c.prefetcher
       << " env{arms=" << c.env.numArms << " steps=" << c.env.steps
       << " period=" << c.env.periodSteps << " seed=" << c.env.seed
       << " recovery=" << c.env.recoveryWindow
       << "} policy=" << c.policy.label;
    return os.str();
}

/** Generate a drift case: random generator kind, shift schedule,
 *  machine and bandit environment, all from @p seed. */
DriftCase
genDriftCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 120));
    DriftCase c;
    c.kind = static_cast<int>(rng.below(3));
    // Contrasting bases with randomized patterns/footprints come from
    // the sim-case generator, so drifting streams inherit its variety
    // (degenerate geometries, every pattern kind).
    const AppProfile a = genSimCase(subSeed(seed, 121)).app;
    const AppProfile b = genSimCase(subSeed(seed, 122)).app;
    const uint64_t total = 1500 + rng.below(2000);
    const uint64_t period = 200 + rng.below(600);
    const uint64_t drift_seed = subSeed(seed, 123) | 1;
    switch (c.kind) {
      case 0: {
        std::vector<uint64_t> shifts;
        const size_t segments = 2 + rng.below(4);
        for (size_t i = 0; i < segments; ++i)
            shifts.push_back(250 + rng.below(900));
        c.drift = makePhaseShiftProfile("fuzz_drift_shift", {a, b},
                                        shifts, drift_seed);
        break;
      }
      case 1:
        c.drift = makeCyclicProfile("fuzz_drift_cyclic", a, b, period,
                                    total, drift_seed);
        break;
      default:
        c.drift = makeAdversarialProfile("fuzz_drift_adv", a, b,
                                         period, total, drift_seed);
        break;
    }
    c.instructions =
        std::min<uint64_t>(c.drift.totalInstrs(),
                           1200 + rng.below(1800));
    // The machine comes from an independent sim-case draw.
    const SimCase donor = genSimCase(subSeed(seed, 130));
    c.hier = donor.hier;
    c.dram = donor.dram;
    c.prefetcher = donor.prefetcher;
    // Drifting-bandit rollout: random horizon, shift period, policy.
    c.env.numArms = 3 + static_cast<int>(rng.below(3));
    c.env.steps = 400 + rng.below(1200);
    c.env.periodSteps = 60 + rng.below(300);
    c.env.seed = subSeed(seed, 140);
    c.env.recoveryWindow = 4 + static_cast<int>(rng.below(6));
    const std::vector<DriftPolicySpec> pool = driftPolicyGrid();
    c.policy = pool[rng.below(pool.size())];
    return c;
}

/**
 * Check the case end to end:
 *  - schedule structure: contiguous segments covering the profile's
 *    phase lengths exactly, driftSegmentAt agreeing at boundaries;
 *  - replay equivalence: a live SyntheticTrace of the drifting
 *    profile vs its materialized replay, record-for-record (fresh and
 *    post-reset) and end-to-end counters (arena-on vs arena-off
 *    delivery of the same drifting stream);
 *  - regret conservation: per-phase regrets of the
 *    PhasedRegretTracker sum exactly to cumulative(), per-phase step
 *    counts to steps(), with the expected phase count.
 * Returns "" on agreement, else the first divergence.
 */
std::string
diffDriftCase(const DriftCase &c)
{
    // Schedule structure: contiguous, non-empty segments covering the
    // generated phase list exactly, with driftSegmentAt agreeing at
    // both edges of every segment.
    const std::vector<DriftSegment> &sched = c.drift.schedule;
    if (sched.empty())
        return "drift schedule is empty (" + formatDriftCase(c) + ")";
    uint64_t phase_sum = 0;
    for (const PatternPhase &ph : c.drift.app.phases)
        phase_sum += ph.lengthInstrs;
    uint64_t at = 0;
    for (size_t i = 0; i < sched.size(); ++i) {
        if (sched[i].startInstr != at || sched[i].lengthInstrs == 0)
            return "drift schedule segment " + std::to_string(i) +
                " is not contiguous (" + formatDriftCase(c) + ")";
        if (driftSegmentAt(sched, at) != i ||
            driftSegmentAt(sched, at + sched[i].lengthInstrs - 1) != i)
            return "driftSegmentAt disagrees with segment " +
                std::to_string(i) + " boundaries (" +
                formatDriftCase(c) + ")";
        at += sched[i].lengthInstrs;
    }
    if (at != c.drift.totalInstrs() || at != phase_sum)
        return "drift schedule does not cover the profile (" +
            formatDriftCase(c) + ")";

    // Replay equivalence of the drifting stream on the case's machine:
    // the arena-on vs arena-off delivery paths.
    SimCase sc;
    sc.app = c.drift.app;
    sc.hier = c.hier;
    sc.dram = c.dram;
    sc.prefetcher = c.prefetcher;
    sc.instructions = c.instructions;
    const std::string err = diffLiveAndReplay(sc, "drift ");
    if (!err.empty())
        return err + " (" + formatDriftCase(c) + ")";

    // Regret conservation at the per-phase oracle: phases partition
    // the rollout (exact step counts, expected phase count) and the
    // per-phase regrets sum to the cumulative total.
    const std::unique_ptr<MabPolicy> policy =
        makeDriftPolicy(c.policy, c.env.numArms, c.env.seed | 1);
    const PhasedRegretTracker tracker =
        runDriftingBandit(*policy, c.env);
    double phase_regret = 0.0;
    uint64_t phase_steps = 0;
    for (const PhasedRegretTracker::PhaseStats &ph :
         tracker.phases()) {
        phase_regret += ph.regret;
        phase_steps += ph.steps;
    }
    if (phase_steps != tracker.steps() ||
        tracker.steps() != c.env.steps)
        return "per-phase step counts do not partition the rollout "
               "(" +
            formatDriftCase(c) + ")";
    const uint64_t want_phases =
        (c.env.steps + c.env.periodSteps - 1) / c.env.periodSteps;
    if (tracker.numPhases() != want_phases)
        return "phase count " + std::to_string(tracker.numPhases()) +
            " != expected " + std::to_string(want_phases) + " (" +
            formatDriftCase(c) + ")";
    const double tol =
        1e-9 * (1.0 + std::abs(tracker.cumulative()));
    if (std::abs(phase_regret - tracker.cumulative()) > tol)
        return "per-phase regret does not sum to cumulative (" +
            formatDriftCase(c) + ")";
    return "";
}

/** Shrink a failing drift case: halve the run and the rollout, then
 *  default the machine config. */
DriftCase
shrinkDriftCase(const DriftCase &c)
{
    return shrinkCase(
        c, [](const DriftCase &t) { return !diffDriftCase(t).empty(); },
        {[](DriftCase &t) { return halveAbove(t.instructions, 256); },
         [](DriftCase &t) { return halveAbove(t.env.steps, 64); }},
        {[](DriftCase &t) { t.prefetcher = "None"; },
         [](DriftCase &t) { t.hier = HierarchyConfig{}; },
         [](DriftCase &t) { t.dram = DramConfig{}; }});
}

} // namespace

std::string
checkDrift(uint64_t seed, bool shrink)
{
    const DriftCase c = genDriftCase(seed);
    std::string err = diffDriftCase(c);
    if (!err.empty() && shrink)
        err += "\nminimized: " + formatDriftCase(shrinkDriftCase(c));
    return err;
}

std::string
describeDrift(uint64_t seed)
{
    return formatDriftCase(genDriftCase(seed));
}

} // namespace mab::fuzz
