#ifndef MAB_PREFETCH_BINGO_H
#define MAB_PREFETCH_BINGO_H

#include <vector>

#include "prefetch/prefetcher.h"
#include "prefetch/tag_table.h"

namespace mab {

/**
 * Bingo spatial data prefetcher (Bakhshalipour et al., HPCA'19),
 * simplified comparison baseline.
 *
 * Bingo records the footprint of lines touched inside a spatial region
 * during the region's "generation" and associates it with the
 * long-event "PC+Address" (here: PC + region offset) of the trigger
 * access. When a region is re-triggered, the stored footprint is
 * prefetched wholesale. The implementation keeps an accumulation
 * table for open generations and a set-associative footprint history
 * keyed by hash(PC, trigger offset) with a hash(PC)-only fallback,
 * capturing the core mechanism at a fraction of the engineering
 * surface of the original.
 */
class BingoPrefetcher final : public Prefetcher
{
  public:
    /**
     * @param region_bytes spatial region size (2KB in the paper).
     * @throws std::invalid_argument unless a region is 1 to 64 whole
     *     lines, accumulation_entries >= 1 and the history has a
     *     power-of-two count (history_entries / 4) of 4-way sets.
     */
    explicit BingoPrefetcher(uint64_t region_bytes = 2048,
                             int accumulation_entries = 64,
                             int history_entries = 2048);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Bingo"; }
    uint64_t storageBytes() const override;
    void reset() override;

  private:
    struct Accumulation
    {
        uint64_t triggerPc = 0;
        int triggerOffset = 0;
        uint64_t footprint = 0;
        bool valid = false;
    };

    struct History
    {
        uint64_t key = 0;
        uint64_t footprint = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    uint64_t keyLong(uint64_t pc, int offset) const;
    uint64_t keyShort(uint64_t pc) const;
    void storeHistory(uint64_t key, uint64_t footprint);
    const History *findHistory(uint64_t key) const;
    void closeGeneration(Accumulation &acc);
    void emitLines(uint64_t regionBase, uint64_t lines,
                   std::vector<uint64_t> &out) const;

    uint64_t regionBytes_;
    std::vector<Accumulation> accTable_;
    /** Region base -> accumulation entry, and the LRU order. */
    LruTagTable accTags_;
    /** History sets - 1 (the set count is a power of two). */
    uint64_t histSetMask_;
    std::vector<History> histTable_;
    /** Recency ticks of the history table's per-set LRU. */
    uint64_t histTick_ = 0;
};

} // namespace mab

#endif // MAB_PREFETCH_BINGO_H
