#include "memory/cache.h"

#include <cstring>
#include <new>
#include <stdexcept>

namespace mab {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    // Release builds would otherwise index past the planes (no set,
    // a zero or over-wide way count) or fold addresses onto a subset
    // of the sets (a set count setMask_ cannot express).
    const auto reject = [&](const char *field, const std::string &value,
                            const std::string &why) {
        throw std::invalid_argument("CacheConfig '" + config_.name +
                                    "': " + field + " " + value + " " +
                                    why);
    };
    if (config_.ways < 1 || config_.ways > kMaxWays)
        reject("ways", std::to_string(config_.ways),
               "must be in [1, " + std::to_string(kMaxWays) + "]");
    numSets_ = config_.sizeBytes / (kLineBytes * config_.ways);
    if (numSets_ == 0 || (numSets_ & (numSets_ - 1)) != 0)
        reject("sizeBytes", std::to_string(config_.sizeBytes),
               "gives " + std::to_string(numSets_) + " sets of " +
                   std::to_string(config_.ways) +
                   " lines; the set count must be a nonzero power of two");
    setMask_ = numSets_ - 1;
    ways_ = config_.ways;

    const uint64_t n = numSets_ * static_cast<uint64_t>(ways_);
    blob_.reset(static_cast<uint8_t *>(
        std::calloc(n * kBytesPerLine + numSets_ * kBytesPerSet, 1)));
    if (!blob_)
        throw std::bad_alloc();
    tags_ = reinterpret_cast<uint64_t *>(blob_.get());
    ready_ = tags_ + n;
    stamp_ = reinterpret_cast<uint8_t *>(ready_ + n);
    clock_ = stamp_ + n;
    count_ = clock_ + numSets_;
}

/**
 * Compact the stamps of one set's first @p n ways (its valid lines),
 * order-preserving, to {0..n-1} and return n. Each line's new stamp is
 * the number of stamps strictly below its own, so relative recency
 * order — and therefore every future victim choice — is unchanged.
 * During an insert the just-written line may still carry a stale
 * (possibly duplicate) stamp here; strict comparison keeps the other
 * lines' order intact and the caller overwrites that line's stamp
 * immediately after.
 */
uint8_t
Cache::renormalize(uint64_t base, int n)
{
    uint8_t *stamp = stamp_ + base;
    uint8_t fresh[kMaxWays];
    for (int i = 0; i < n; ++i) {
        uint8_t below = 0;
        for (int j = 0; j < n; ++j)
            below += static_cast<uint8_t>(stamp[j] < stamp[i]);
        fresh[i] = below;
    }
    std::memcpy(stamp, fresh, static_cast<size_t>(n));
    return static_cast<uint8_t>(n);
}

uint64_t
Cache::occupancy() const
{
    const uint64_t n = numSets_ * static_cast<uint64_t>(ways_);
    uint64_t count = 0;
    for (uint64_t i = 0; i < n; ++i)
        count += tags_[i] & kValid;
    return count;
}

void
Cache::clear()
{
    // The zero byte pattern is the reset state for every plane (see
    // the blob_ member comment), so one memset resets the cache.
    std::memset(blob_.get(), 0,
                numSets_ * static_cast<uint64_t>(ways_) * kBytesPerLine +
                    numSets_ * kBytesPerSet);
    lastHitKey_ = 0;
    demandHits = 0;
    demandMisses = 0;
}

} // namespace mab
