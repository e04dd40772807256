#ifndef MAB_PREFETCH_STRIDE_H
#define MAB_PREFETCH_STRIDE_H

#include <vector>

#include "prefetch/prefetcher.h"
#include "prefetch/tag_table.h"

namespace mab {

/**
 * PC-based stride prefetcher (Table 6: 64 trackers).
 *
 * Each tracker is tagged with a load PC and learns the constant
 * byte-stride between that PC's successive accesses; after two
 * confirmations it prefetches @c degree strides ahead. Because the
 * table distinguishes PCs, different streams can run different strides
 * concurrently — the state-discrimination ability the Bandit borrows
 * from its constituent prefetchers (Section 3.1). The standalone
 * "Stride" comparison baseline (IP-stride, [23]) is this class with a
 * fixed degree.
 */
class StridePrefetcher final : public Prefetcher
{
  public:
    /** @throws std::invalid_argument if num_trackers < 1. */
    explicit StridePrefetcher(int num_trackers = 64, int degree = 2);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Stride"; }
    uint64_t storageBytes() const override;
    void reset() override;

    /** Program the prefetch degree (0 = off). */
    void setDegree(int degree) { degree_ = degree; }
    int degree() const { return degree_; }

  private:
    struct Entry
    {
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confidence = 0;
    };

    int degree_;
    std::vector<Entry> table_;
    /** PC tag -> entry, and the LRU order. */
    LruTagTable tags_;
};

} // namespace mab

#endif // MAB_PREFETCH_STRIDE_H
