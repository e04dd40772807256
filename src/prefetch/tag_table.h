#ifndef MAB_PREFETCH_TAG_TABLE_H
#define MAB_PREFETCH_TAG_TABLE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mab {

// Host-side indexes of the prefetchers' fully associative tables. The
// modelled hardware looks a tag up in every entry at once (a CAM);
// software that scans every entry per access pays for the whole table
// on every L2 access. These structures answer the same questions in
// O(1) without changing any answer, and storageBytes() never counts
// them. Internal to src/prefetch: the prefetcher headers include it
// only for their private members.

/**
 * Fixed-capacity map from 64-bit keys to int: open addressing, linear
 * probing, backward-shift deletion. The bucket array (a power of two
 * of at least twice @c maxKeys) is allocated once, so no operation
 * allocates. Callers guarantee that at most @c maxKeys keys are live
 * and never insert a key that is present.
 */
class FixedMap
{
  public:
    explicit FixedMap(size_t maxKeys)
        : buckets_(std::bit_ceil(2 * (maxKeys ? maxKeys : 1))),
          shift_(64 - std::countr_zero(buckets_.size()))
    {
    }

    /** The value of @p key, else nullptr. */
    const int *
    find(uint64_t key) const
    {
        const size_t b = locate(key);
        return b == kAbsent ? nullptr : &buckets_[b].value;
    }

    /** Add @p key, which is absent, mapped to @p value. */
    void
    insert(uint64_t key, int value)
    {
        size_t b = home(key);
        while (buckets_[b].used)
            b = next(b);
        buckets_[b] = {key, value, true};
    }

    /** Remove @p key, which is present. */
    void
    erase(uint64_t key)
    {
        // Every bucket from the key's home to the key is in use.
        size_t hole = home(key);
        while (buckets_[hole].key != key)
            hole = next(hole);
        // Backward shift: pull each later member of the probe run
        // whose home does not lie cyclically in (hole, b] into the
        // hole, so lookups never need tombstones.
        const size_t mask = buckets_.size() - 1;
        for (size_t b = next(hole); buckets_[b].used; b = next(b)) {
            const size_t h = home(buckets_[b].key);
            if (((b - h) & mask) >= ((b - hole) & mask)) {
                buckets_[hole] = buckets_[b];
                hole = b;
            }
        }
        buckets_[hole].used = false;
    }

    void
    clear()
    {
        for (Bucket &b : buckets_)
            b.used = false;
    }

  private:
    struct Bucket
    {
        uint64_t key = 0;
        int value = 0;
        bool used = false;
    };

    static constexpr size_t kAbsent = ~size_t{0};

    size_t
    locate(uint64_t key) const
    {
        for (size_t b = home(key);; b = next(b)) {
            if (!buckets_[b].used)
                return kAbsent;
            if (buckets_[b].key == key)
                return b;
        }
    }

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    size_t
    home(uint64_t key) const
    {
        return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                   shift_);
    }

    size_t next(size_t b) const { return (b + 1) & (buckets_.size() - 1); }

    std::vector<Bucket> buckets_;
    int shift_;
};

/**
 * Replacement order of an n-slot table whose entries are only ever
 * allocated, touched and reset, as in the prefetchers' tracker tables.
 * While a slot is free, allocation hands out the highest free one
 * (n-1, n-2, ...); once every slot is in use it reuses the least
 * recently used. That is the rule of the scan it replaces, "the last
 * invalid entry, else the valid entry with the smallest last-use
 * tick": every touch took a fresh tick, so the tail of the recency
 * list is exactly that entry.
 */
class LruOrder
{
  public:
    explicit LruOrder(int slots)
        : prev_(static_cast<size_t>(slots)),
          next_(static_cast<size_t>(slots)), free_(slots)
    {
    }

    /** Every slot is in use: the next allocation evicts. */
    bool full() const { return free_ == 0; }

    /** Allocate the highest free slot, else the LRU slot; it becomes
     *  the most recently used. */
    int
    allocate()
    {
        if (free_ == 0) {
            const int slot = tail_;
            touch(slot);
            return slot;
        }
        const int slot = --free_;
        link(slot);
        return slot;
    }

    /** Mark allocated @p slot as the most recently used. */
    void
    touch(int slot)
    {
        if (slot == head_)
            return;
        // Unlink; slot is not the head, so it has a predecessor.
        next_[prev_[slot]] = next_[slot];
        if (slot == tail_)
            tail_ = prev_[slot];
        else
            prev_[next_[slot]] = prev_[slot];
        link(slot);
    }

    /** Free every slot. */
    void
    clear()
    {
        free_ = static_cast<int>(prev_.size());
        head_ = tail_ = -1;
    }

  private:
    /** Insert @p slot, currently unlinked, at the head. */
    void
    link(int slot)
    {
        prev_[slot] = -1;
        next_[slot] = head_;
        if (head_ >= 0)
            prev_[head_] = slot;
        else
            tail_ = slot;
        head_ = slot;
    }

    std::vector<int> prev_;
    std::vector<int> next_;
    int free_;
    int head_ = -1; ///< most recently used
    int tail_ = -1; ///< least recently used
};

/**
 * An n-entry fully associative LRU table of exact 64-bit tags: the
 * tag -> slot index plus the replacement order. The owner keeps each
 * slot's payload in its own array. A tag is inserted only after
 * find() missed, so each tag has at most one slot and which slot it
 * has is never observable.
 */
class LruTagTable
{
  public:
    explicit LruTagTable(int entries)
        : order_(entries), slots_(static_cast<size_t>(entries)),
          tags_(static_cast<size_t>(entries))
    {
    }

    /** Slot holding @p tag, else -1. */
    int
    find(uint64_t tag) const
    {
        const int *slot = slots_.find(tag);
        return slot ? *slot : -1;
    }

    /** Mark @p slot as the most recently used. */
    void touch(int slot) { order_.touch(slot); }

    /** Give absent @p tag a slot, evicting the LRU tag when the table
     *  is full, and return it. The owner's payload of the returned
     *  slot still holds the evicted entry. */
    int
    insert(uint64_t tag)
    {
        const bool evict = order_.full();
        const int slot = order_.allocate();
        if (evict)
            slots_.erase(tags_[static_cast<size_t>(slot)]);
        tags_[static_cast<size_t>(slot)] = tag;
        slots_.insert(tag, slot);
        return slot;
    }

    void
    clear()
    {
        order_.clear();
        slots_.clear();
    }

  private:
    LruOrder order_;
    FixedMap slots_;
    std::vector<uint64_t> tags_;
};

} // namespace mab

#endif // MAB_PREFETCH_TAG_TABLE_H
