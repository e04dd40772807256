#ifndef MAB_PREFETCH_PYTHIA_H
#define MAB_PREFETCH_PYTHIA_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "prefetch/prefetcher.h"
#include "prefetch/tag_table.h"
#include "sim/rng.h"

namespace mab {

/** Hyperparameters of the Pythia stand-in. */
struct PythiaConfig
{
    /** Entries per feature plane (96 x 64 actions x 2B x 2 planes
     *  matches the ~24KB QVStore the paper cites). */
    int planeEntries = 96;

    /** SARSA learning rate. */
    double alpha = 0.3;

    /** SARSA discount. */
    double gamma = 0.5;

    /** Epsilon-greedy exploration rate. */
    double epsilon = 0.01;

    /** Evaluation-queue depth (delayed reward horizon). */
    int eqDepth = 64;

    /** Reward per predicted line demanded after its fill completed. */
    double rewardHit = 12.0;

    /** Reward per predicted line demanded while still in flight. */
    double rewardLate = 5.0;

    /** Penalty per predicted line never demanded. */
    double rewardMiss = -8.0;

    /** Reward for choosing not to prefetch. */
    double rewardNone = -2.0;

    /** Cycles after which a prefetched line is considered arrived
     *  (timeliness proxy: DRAM latency + transfer). */
    uint64_t lateThresholdCycles = 340;

    /**
     * Optimistic Q initialization (the timely-hit fixed point
     * rewardHit / (1 - gamma)): unexplored actions look attractive,
     * so the agent sweeps the action space before settling — without
     * this, the delayed EQ rewards make the first acceptable action
     * sticky.
     */
    double qInit = 0.0;

    /** Extra no-prefetch reward / wrong-prefetch penalty applied in
     *  proportion to DRAM bandwidth utilization — the bandwidth
     *  awareness that lets Pythia win in constrained configs. */
    double bwPenaltyScale = 8.0;

    uint64_t seed = 7;
};

/**
 * Pythia (Bera et al., MICRO'21), simplified comparison baseline: an
 * MDP-RL (SARSA) prefetcher whose state is derived from program
 * features (PC and the recent delta history) and whose 64 actions are
 * (offset, degree) pairs — 16 offsets x 4 degrees, as profiled in
 * Figure 2 of the Micro-Armed Bandit paper.
 *
 * Q-values live in two hashed feature planes (a tiny tile coding);
 * rewards are assigned through an evaluation queue: an action is paid
 * rewardHit if a later demand access matches one of its predicted
 * lines before the entry retires, and a bandwidth-scaled penalty
 * otherwise. Updates follow the SARSA rule using the next retired
 * entry as (s', a').
 */
class PythiaPrefetcher final : public Prefetcher
{
  public:
    /** @throws std::invalid_argument if config.planeEntries < 1 or
     *  config.eqDepth < 0. */
    explicit PythiaPrefetcher(const PythiaConfig &config = {});

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Pythia"; }
    uint64_t storageBytes() const override;
    void reset() override;

    /** 16 offsets (in lines; 0 = no prefetch). */
    static const std::array<int, 16> &offsets();

    /** 4 degrees. */
    static const std::array<int, 4> &degrees();

    static constexpr int kNumActions = 64;

    /** The largest of degrees(): lines one decision can predict. */
    static constexpr int kMaxDegree = 6;

    /**
     * Install a DRAM bandwidth probe: called with the current cycle,
     * returns utilization in [0, 1]. Enables the bandwidth-aware
     * reward component.
     */
    void
    setBandwidthProbe(std::function<double(uint64_t)> probe)
    {
        bwProbe_ = std::move(probe);
    }

    /** Takes the DRAM utilization probe, when offered. */
    void
    attachSystemProbes(const SystemProbes &probes) override
    {
        if (probes.dramUtilization)
            setBandwidthProbe(probes.dramUtilization);
    }

    /** Per-action selection counts (Figure 2 histogram). */
    const std::array<uint64_t, kNumActions> &
    actionCounts() const
    {
        return actionCounts_;
    }

    /** Q-value of action @p a in the current feature state. */
    double qValue(int f0, int f1, int a) const;

  private:
    struct EqEntry
    {
        int f0 = 0;
        int f1 = 0;
        int action = 0;
        bool issued = false;
        double bwUtil = 0.0;
        uint64_t issueCycle = 0;
        int timelyHits = 0;
        int lateHits = 0;
        /** The lines credited to this decision: predictedLines[0,
         *  numPredicted). */
        int numPredicted = 0;
        std::array<uint64_t, kMaxDegree> predictedLines{};
    };

    int featurePc(uint64_t pc) const;
    int featureDeltas() const;
    int planeIndex(uint64_t key) const;
    int selectAction(int f0, int f1);
    /** The @p age-th oldest entry of the evaluation queue. */
    EqEntry &eqAt(int age);
    void retireOldest();

    PythiaConfig config_;
    Rng rng_;
    std::vector<double> q0_; // [planeEntries x kNumActions]
    std::vector<double> q1_;
    /** remainderReciprocal(planeEntries) (sim/rng.h): key %
     *  planeEntries without a divide. */
    unsigned __int128 planeRecip_;

    /** FIFO ring of eqDepth + 1 entries, allocated once: a decision
     *  is pushed before the oldest one over eqDepth retires. */
    std::vector<EqEntry> eq_;
    int eqHead_ = 0; ///< ring index of the oldest entry
    int eqSize_ = 0;
    /** line -> eq age id. Every key is a predicted line of a live
     *  entry, so it holds at most kMaxDegree x (eqDepth + 1) keys. */
    FixedMap pending_;
    int eqNextId_ = 0;
    int eqBaseId_ = 0;

    int64_t lastLine_ = 0;
    int64_t delta1_ = 0;
    int64_t delta2_ = 0;

    std::function<double(uint64_t)> bwProbe_;
    std::array<uint64_t, kNumActions> actionCounts_{};
};

} // namespace mab

#endif // MAB_PREFETCH_PYTHIA_H
