#include "core/swucb.h"

#include <stdexcept>
#include <string>

namespace mab {

SwUcb::SwUcb(const MabConfig &config, int window)
    : Ucb(config), window_(window), sum_(config.numArms, 0.0)
{
    // Checked before the ring is sized from the window.
    if (window_ < config.numArms)
        throw std::invalid_argument(
            "SwUcb: window must cover at least one sample per arm (" +
            std::to_string(config.numArms) + "), got " +
            std::to_string(window_));
    ring_.resize(static_cast<size_t>(window_) + 1);
}

void
SwUcb::reset()
{
    Ucb::reset();
    head_ = tail_ = size_ = 0;
    sum_.assign(sum_.size(), 0.0);
}

void
SwUcb::evictOldest()
{
    const Sample old = ring_[head_];
    if (++head_ == ring_.size())
        head_ = 0;
    --size_;
    if (old.hasReward) {
        sum_[old.arm] -= old.reward;
        n_[old.arm] -= 1.0;
        nTotal_ -= 1.0;
        recomputeArm(old.arm);
    }
}

void
SwUcb::recomputeArm(ArmId arm)
{
    // Keep at least the last known estimate when the window holds no
    // samples of the arm; its exploration bonus (tiny n) will bring
    // it back quickly.
    if (n_[arm] > 0.5)
        r_[arm] = sum_[arm] / n_[arm];
}

void
SwUcb::updSels(ArmId arm)
{
    ring_[tail_] = {0.0, arm, false};
    if (++tail_ == ring_.size())
        tail_ = 0;
    ++size_;
    n_[arm] += 1.0;
    nTotal_ += 1.0;
    if (size_ > static_cast<size_t>(window_))
        evictOldest();
}

void
SwUcb::updRew(ArmId arm, double r_step)
{
    // Attach the reward to the youngest pending sample of this arm:
    // walk back from the newest slot. In the selectArm()/
    // observeReward() lifecycle that sample is the one updSels() just
    // pushed — eviction only pops the oldest — so the first probe
    // resolves every step; the rest of the walk serves out-of-order
    // callers.
    size_t slot = prevSlot(tail_);
    for (size_t k = 0; k < size_; ++k, slot = prevSlot(slot)) {
        Sample &s = ring_[slot];
        if (s.arm == arm && !s.hasReward) {
            s.hasReward = true;
            s.reward = r_step;
            break;
        }
    }
    sum_[arm] += r_step;
    recomputeArm(arm);
}

} // namespace mab
