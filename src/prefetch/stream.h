#ifndef MAB_PREFETCH_STREAM_H
#define MAB_PREFETCH_STREAM_H

#include <vector>

#include "prefetch/prefetcher.h"
#include "prefetch/tag_table.h"

namespace mab {

/**
 * Stream prefetcher with a fixed number of stream trackers (Table 6:
 * 64 trackers). Each tracker locks onto a sequence of nearby line
 * accesses moving in one direction; once a stream is confirmed, the
 * prefetcher runs @c degree lines ahead of the demand stream. Degree 0
 * turns the prefetcher off; the Bandit programs the degree through a
 * programmable register (Section 5.2).
 */
class StreamPrefetcher final : public Prefetcher
{
  public:
    /** @throws std::invalid_argument unless 1 <= num_trackers <= 64. */
    explicit StreamPrefetcher(int num_trackers = 64);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Stream"; }
    uint64_t storageBytes() const override;
    void reset() override;

    /** Program the prefetch degree (0 = off). */
    void setDegree(int degree) { degree_ = degree; }
    int degree() const { return degree_; }

  private:
    struct Tracker
    {
        uint64_t lastLine = 0;
        int direction = 0;  // +1 / -1; 0 = untrained
        int confidence = 0; // confirmations in the same direction
    };

    /** Window-index mask of the 8-line bucket holding @p line. */
    uint64_t &windowMask(uint64_t line);

    int degree_ = 4;
    std::vector<Tracker> trackers_;
    /** Allocation and LRU order of the trackers. The lowest-index
     *  match wins, so the order's slot numbers are observable. */
    LruOrder order_;
    /**
     * Window index: one bit per allocated tracker, set in the mask of
     * the bucket lastLine >> 3 modulo kWindowMasks. Buckets that
     * alias share a mask, so a mask holds a superset of its bucket's
     * trackers; every candidate is tested exactly.
     */
    static constexpr size_t kWindowMasks = 512;
    std::vector<uint64_t> window_;
};

} // namespace mab

#endif // MAB_PREFETCH_STREAM_H
