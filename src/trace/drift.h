#ifndef MAB_TRACE_DRIFT_H
#define MAB_TRACE_DRIFT_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/generator.h"

namespace mab {

/**
 * Drifting (non-stationary) workload constructors.
 *
 * The paper's workloads are temporally homogeneous, yet the DUCB /
 * SW-UCB / UCB comparison only gets interesting when the best arm
 * moves mid-run. Each constructor here returns a plain AppProfile
 * whose phase list realizes a non-stationary schedule, so drifting
 * streams inherit the whole delivery stack for free: they fingerprint
 * (trace/replay.h), materialize into the trace arena, spill to .maba
 * files, replay byte-identically and run in parallel sweeps like any
 * stationary workload — a drifting stream is still a pure function of
 * one seed.
 */

/** One segment of a drift schedule: which base profile is active,
 *  starting where, for how long. */
struct DriftSegment
{
    size_t base = 0;         ///< index into the base-profile list
    uint64_t startInstr = 0; ///< first instruction of the segment
    uint64_t lengthInstrs = 0;
};

/**
 * A drifting workload: the runnable profile plus the exact
 * instruction-indexed segment schedule it realizes. The schedule is
 * what per-phase oracles (core/regret.h) and the boundary-exactness
 * tests key on; it covers app's phases exactly (no gaps, no overlap).
 */
struct DriftProfile
{
    AppProfile app;
    std::vector<DriftSegment> schedule;

    /** Total instructions covered by the schedule. */
    uint64_t totalInstrs() const
    {
        return schedule.empty()
            ? 0
            : schedule.back().startInstr + schedule.back().lengthInstrs;
    }
};

/** Index of the segment containing instruction @p instr (the last
 *  segment for anything past the end of the schedule). */
size_t driftSegmentAt(const std::vector<DriftSegment> &schedule,
                      uint64_t instr);

/**
 * Phase-shifting drift: walk through @p bases in order (wrapping),
 * one segment per entry of @p shiftSchedule (segment lengths in
 * instructions). Each segment replays its base profile from the
 * start, tiling the base's own phases cyclically and truncating the
 * last one, so segment boundaries land on exact instruction counts.
 */
DriftProfile makePhaseShiftProfile(
    const std::string &name, const std::vector<AppProfile> &bases,
    const std::vector<uint64_t> &shiftSchedule, uint64_t seed);

/** Cyclic drift: period-P alternation between @p a and @p b until
 *  @p totalInstrs (the trailing segment is truncated). */
DriftProfile makeCyclicProfile(const std::string &name,
                               const AppProfile &a, const AppProfile &b,
                               uint64_t periodInstrs,
                               uint64_t totalInstrs, uint64_t seed);

/**
 * Adversarial drift: alternation keyed to punish a fixed window
 * length. Segment lengths are drawn (deterministically from @p seed)
 * from [windowInstrs/2, 3*windowInstrs/2], so a policy averaging its
 * estimates over ~windowInstrs of history is kept permanently
 * mid-transition: by the time its window fills with one regime the
 * stream has already flipped, and the jitter prevents any fixed
 * phase-locked schedule from lining up with the shifts.
 */
DriftProfile makeAdversarialProfile(const std::string &name,
                                    const AppProfile &a,
                                    const AppProfile &b,
                                    uint64_t windowInstrs,
                                    uint64_t totalInstrs, uint64_t seed);

/**
 * The contrasting stationary bases the drift suites alternate
 * between: a streaming regime (aggressive prefetch arms win) vs a
 * pointer-chasing regime (prefetching only pollutes) — maximally
 * different best arms, so every shift forces re-learning.
 */
std::vector<AppProfile> driftBaseProfiles();

} // namespace mab

#endif // MAB_TRACE_DRIFT_H
