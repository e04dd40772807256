#ifndef MAB_PREFETCH_MLOP_H
#define MAB_PREFETCH_MLOP_H

#include <array>
#include <vector>

#include "prefetch/prefetcher.h"

namespace mab {

/**
 * Multi-Lookahead Offset Prefetching (Shakerinava et al., DPC-3),
 * simplified comparison baseline.
 *
 * MLOP generalizes Best-Offset prefetching by selecting one best
 * offset *per lookahead level*: level k's offset is the one that most
 * often jumps from an access to the access k steps later in the
 * demand stream. The implementation keeps a ring buffer of recent
 * line addresses and, every epoch, rebuilds a delta histogram per
 * level; each demand access then prefetches with every
 * above-threshold level offset.
 */
class MlopPrefetcher final : public Prefetcher
{
  public:
    /** @throws std::invalid_argument if history < 1. */
    explicit MlopPrefetcher(int levels = 16, int history = 256,
                            int epoch = 1024);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "MLOP"; }
    uint64_t storageBytes() const override;
    void reset() override;

    /** Offset chosen for lookahead level @p level (0 = none). */
    int levelOffset(int level) const { return chosen_[level]; }

  private:
    static constexpr int kMaxOffset = 31;

    void retrain();

    int levels_;
    int epoch_;
    std::vector<int64_t> history_; // ring buffer of line numbers
    size_t histPos_ = 0;
    size_t histFill_ = 0;
    int accessesSinceTrain_ = 0;
    std::vector<int> chosen_; // per level; 0 = disabled
};

} // namespace mab

#endif // MAB_PREFETCH_MLOP_H
