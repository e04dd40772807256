#ifndef MAB_CORE_SWUCB_H
#define MAB_CORE_SWUCB_H

#include <cstddef>
#include <vector>

#include "core/ucb.h"

namespace mab {

/**
 * Sliding-Window UCB (Garivier & Moulines, the companion algorithm to
 * DUCB in the same paper the Micro-Armed Bandit builds on).
 *
 * Where DUCB forgets the past with an exponential discount, SW-UCB
 * forgets it with a hard window: only the last W observations count
 * toward the per-arm averages and selection counts. The two
 * algorithms have the same regret guarantees in abruptly-changing
 * environments; SW-UCB reacts faster to a phase change but needs
 * O(W) storage for the window, making it a costlier hardware choice —
 * which is why the paper's agent implements DUCB. Provided here for
 * the hyperparameter/algorithm exploration the paper's Section 9
 * suggests.
 */
class SwUcb : public Ucb
{
  public:
    /** @throws std::invalid_argument if @p window < config.numArms. */
    SwUcb(const MabConfig &config, int window);

    std::string name() const override { return "SW-UCB"; }

    int window() const { return window_; }

    /** Also empties the window and the per-arm window sums. */
    void reset() override;

  protected:
    void updSels(ArmId arm) override;
    void updRew(ArmId arm, double r_step) override;

  private:
    void evictOldest();
    void recomputeArm(ArmId arm);

    /** Ring index one slot before @p i. */
    size_t prevSlot(size_t i) const
    {
        return (i == 0 ? ring_.size() : i) - 1;
    }

    struct Sample
    {
        double reward;
        ArmId arm;
        bool hasReward;
    };

    int window_;
    /** The window as a ring of window + 1 slots: updSels() pushes
     *  before it evicts, so the window briefly holds W + 1 samples. */
    std::vector<Sample> ring_;
    size_t head_ = 0; ///< oldest sample
    size_t tail_ = 0; ///< next free slot
    size_t size_ = 0;
    std::vector<double> sum_;
};

} // namespace mab

#endif // MAB_CORE_SWUCB_H
