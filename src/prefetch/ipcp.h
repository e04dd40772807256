#ifndef MAB_PREFETCH_IPCP_H
#define MAB_PREFETCH_IPCP_H

#include <vector>

#include "prefetch/prefetcher.h"
#include "prefetch/tag_table.h"

namespace mab {

/**
 * IPCP — Instruction Pointer Classifier-based Prefetching (Pakalapati
 * & Panda, ISCA'20), simplified comparison baseline.
 *
 * IPCP classifies each load IP into a class and runs a per-class
 * lightweight prefetcher. This implementation supports the two
 * highest-coverage classes: Constant Stride (CS) — a per-IP constant
 * stride — and Global Stream (GS) — IPs that participate in a
 * monotonic global access stream. Unclassified IPs do not prefetch.
 */
class IpcpPrefetcher final : public Prefetcher
{
  public:
    /** @throws std::invalid_argument if table_entries < 1. */
    explicit IpcpPrefetcher(int table_entries = 64, int cs_degree = 3,
                            int gs_degree = 4);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "IPCP"; }
    uint64_t storageBytes() const override;
    void reset() override;

  private:
    struct IpEntry
    {
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confidence = 0;
        int streamHits = 0; // participation in the global stream
    };

    IpEntry *lookup(uint64_t pc);

    int csDegree_;
    int gsDegree_;
    std::vector<IpEntry> table_;
    /** IP tag -> entry, and the LRU order. */
    LruTagTable tags_;

    // Global stream detector state.
    int64_t lastLine_ = 0;
    int globalDir_ = 0;
    int globalConf_ = 0;
};

} // namespace mab

#endif // MAB_PREFETCH_IPCP_H
