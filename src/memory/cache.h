#ifndef MAB_MEMORY_CACHE_H
#define MAB_MEMORY_CACHE_H

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.h"

namespace mab {

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    int ways = 8;
    /** Cycles to serve a hit at this level. */
    uint64_t hitLatency = 4;
};

/**
 * A set-associative, LRU, write-allocate cache model.
 *
 * Timing is handled by the owner (Hierarchy): each line carries the
 * cycle at which its fill completes (readyCycle), so an access that
 * arrives while the fill is still in flight models an MSHR merge
 * rather than a fresh miss. Lines filled by a prefetcher are tagged
 * so that the hierarchy can classify prefetches as timely (demand hit
 * after the fill completed), late (demand hit while still in flight)
 * or wrong (evicted without a demand use) — the taxonomy of Figure 9.
 *
 * Storage is structure-of-arrays: three parallel planes indexed by
 * set * ways + way, plus a clock byte and a count byte per set, carved
 * out of one calloc block —
 *
 *   tags_[]   uint64  the line address with the valid/prefetched/used
 *                     flags packed into its low bits (line addresses
 *                     are kLineBytes-aligned, so the low 6 bits are
 *                     free; one 64-byte host cache line holds a whole
 *                     8-way set's tag words, so the probe's tag scan
 *                     is a single-line linear walk and the hit-path
 *                     flag update dirties a line the scan already
 *                     owns),
 *   ready_[]  uint64  fill-completion cycle (read only on a hit),
 *   stamp_[]  uint8   LRU use stamp (see below),
 *   clock_[]  uint8   per-set stamp clock,
 *   count_[]  uint8   per-set number of valid lines.
 *
 * The valid lines of a set are always its first count_ ways: insert()
 * takes way count_ while the set has room, and invalidate() moves the
 * set's last valid line into the hole it leaves. Every probe therefore
 * scans count_ ways, not the associativity, and a fill into a set with
 * room picks its way without a scan. Way numbers are never observable
 * (only hits, ready cycles and evicted lines are), so the layout
 * changes no output.
 *
 * LRU recency is an 8-bit *use stamp* per line instead of a 64-bit
 * last-use tick: each set hands out stamps from its own byte-wide
 * clock — a hit or fill assigns the current clock value and
 * increments it, so recency updates are O(1), not an O(ways) aging
 * sweep. When a set's clock reaches 255 the set renormalizes: its v
 * valid lines' stamps are compacted (order-preserving) to {0..v-1}
 * and the clock restarts at v. Stamps of valid lines are therefore
 * always distinct, the victim of a full set is the unique valid line
 * with the minimum stamp, and because renormalization preserves
 * relative order this reproduces the 64-bit tick ordering — and thus
 * every eviction decision — of the old layout exactly. Invalid
 * lines' stamps are dead values, never read; the all-zero byte
 * pattern remains the reset state (zero tag words carry no valid
 * bit, zero counts are empty sets, a zero clock is simply a fresh
 * epoch), preserving the calloc/lazy-page trick below.
 * Renormalization needs the clock to clear 255 - kMaxWays assignments
 * per epoch, bounding associativity at kMaxWays = 128 ways.
 *
 * lookupDemand() remembers the slot of its last hit. An L1 sees long
 * streaks of accesses to one line, and a repeat of the remembered
 * line is answered from that slot without a scan. Every insert(),
 * fill(), invalidate() and clear() forgets it, a hit on another line
 * replaces it, and misses and contains() change nothing, so a
 * remembered line is still its set's most recently used line with its
 * used flag set: the scan would find it and have nothing to update.
 */
class Cache
{
  public:
    /** Highest supported associativity (8-bit stamp-clock domain). */
    static constexpr int kMaxWays = 128;

    /**
     * Throws std::invalid_argument, naming the field and its value,
     * unless 1 <= ways <= kMaxWays and sizeBytes is a nonzero
     * power-of-two number of ways-line sets.
     */
    explicit Cache(const CacheConfig &config);

    /** Outcome of a demand lookup. */
    struct LookupResult
    {
        /** Line present (possibly still in flight). */
        bool hit = false;
        /** Line present but its fill has not completed yet. */
        bool inflight = false;
        /** Cycle at which the data is available (valid if hit). */
        uint64_t readyCycle = 0;
        /** First demand touch of a prefetched line. */
        bool prefetchFirstUse = false;
    };

    /**
     * Demand lookup for @p line at @p cycle. Updates recency and
     * clears the prefetched tag on first use. Always inlined: the
     * memory walk probes three levels in one function, and GCC's size
     * heuristic would otherwise call out to each probe.
     */
    [[gnu::always_inline]] LookupResult
    lookupDemand(uint64_t line, uint64_t cycle)
    {
        assert((line & kFlagMask) == 0);
        LookupResult res;
        const uint64_t key = line | kValid;
        if (key == lastHitKey_) {
            // The remembered hit again: the line is its set's MRU line
            // and already marked used (see the class comment).
            assert((tags_[lastHitSlot_] & ~kPrefetched) == (key | kUsed));
            ++demandHits;
            const uint64_t ready = ready_[lastHitSlot_];
            res.hit = true;
            res.readyCycle = ready;
            res.inflight = ready > cycle;
            return res;
        }
        const uint64_t set = setIndex(line);
        const uint64_t base = set * static_cast<uint64_t>(ways_);
        uint64_t *tags = tags_ + base;
        const int w = findWay(tags, key, count_[set]);
        if (w < 0) {
            ++demandMisses;
            return res;
        }
        ++demandHits;
        const uint64_t ready = ready_[base + w];
        res.hit = true;
        res.readyCycle = ready;
        res.inflight = ready > cycle;
        const uint64_t t = tags[w];
        res.prefetchFirstUse = (t & (kPrefetched | kUsed)) == kPrefetched;
        if (!(t & kUsed))
            tags[w] = t | kUsed;
        // Promote to most-recent. The last stamp handed out was
        // clock - 1, so an already-MRU line needs no new stamp — the
        // common case for the streaks of repeated hits an L1 sees.
        uint8_t *stamp = stamp_ + base;
        if (stamp[w] != static_cast<uint8_t>(clock_[set] - 1))
            stamp[w] = bumpClock(set, base);
        lastHitKey_ = key;
        lastHitSlot_ = base + w;
        return res;
    }

    /** Non-updating presence check (used by prefetch filtering). */
    bool
    contains(uint64_t line) const
    {
        const uint64_t set = setIndex(line);
        return findWay(tags_ + set * static_cast<uint64_t>(ways_),
                       line | kValid, count_[set]) >= 0;
    }

    /** Information about the victim of a fill. */
    struct EvictInfo
    {
        bool evictedValid = false;
        /** The victim was a prefetched line never demanded. */
        bool evictedUnusedPrefetch = false;
        uint64_t evictedLine = 0;
    };

    /**
     * Insert @p line, which must be absent (asserted in debug
     * builds); its data becomes usable at @p readyCycle. The victim
     * is way count_ of a set with room, else the valid line with the
     * lowest stamp. No tag is compared: the memory walk calls this
     * right after a lookup or contains() at this level missed.
     */
    EvictInfo
    insert(uint64_t line, uint64_t readyCycle, bool prefetch)
    {
        assert((line & kFlagMask) == 0);
        const uint64_t set = setIndex(line);
        const uint64_t base = set * static_cast<uint64_t>(ways_);
        uint64_t *tags = tags_ + base;
        uint8_t *stamp = stamp_ + base;
        const int n = count_[set];
        assert(findWay(tags, line | kValid, n) < 0 &&
               "insert() of a resident line");
        lastHitKey_ = 0;

        EvictInfo info;
        int w = n;
        if (n < ways_) {
            count_[set] = static_cast<uint8_t>(n + 1);
        } else {
            // The unique lowest stamp; the running minimum stays in a
            // register, so the scan compiles to conditional moves.
            w = 0;
            uint8_t least = stamp[0];
            for (int i = 1; i < n; ++i) {
                const uint8_t s = stamp[i];
                w = s < least ? i : w;
                least = s < least ? s : least;
            }
            const uint64_t t = tags[w];
            info.evictedValid = true;
            info.evictedLine = t & ~kFlagMask;
            info.evictedUnusedPrefetch =
                (t & (kPrefetched | kUsed)) == kPrefetched;
        }
        tags[w] = prefetch ? (line | kValid | kPrefetched)
                           : (line | kValid);
        ready_[base + w] = readyCycle;
        stamp[w] = bumpClock(set, base);
        return info;
    }

    /**
     * Insert @p line unless it is present; its data becomes usable at
     * @p readyCycle. A present line keeps its entry (a prefetch into
     * it is a no-op; a demand fill clears the prefetched tag). The
     * tests and the cache fuzz domain fill; the memory walk, which
     * knows the line is absent, calls insert().
     */
    EvictInfo
    fill(uint64_t line, uint64_t readyCycle, bool prefetch)
    {
        assert((line & kFlagMask) == 0);
        const uint64_t set = setIndex(line);
        const uint64_t base = set * static_cast<uint64_t>(ways_);
        const int w = findWay(tags_ + base, line | kValid, count_[set]);
        if (w < 0)
            return insert(line, readyCycle, prefetch);
        lastHitKey_ = 0;
        if (!prefetch)
            tags_[base + w] &= ~kPrefetched;
        return {};
    }

    /** Remove @p line if present (back-invalidation support). */
    void
    invalidate(uint64_t line)
    {
        lastHitKey_ = 0;
        const uint64_t set = setIndex(line);
        const uint64_t base = set * static_cast<uint64_t>(ways_);
        const int n = count_[set];
        const int w = findWay(tags_ + base, line | kValid, n);
        if (w < 0)
            return;
        // Keep the valid lines a prefix: the last one fills the hole.
        const uint64_t hole = base + w;
        const uint64_t last = base + n - 1;
        tags_[hole] = tags_[last];
        ready_[hole] = ready_[last];
        stamp_[hole] = stamp_[last];
        tags_[last] = 0;
        count_[set] = static_cast<uint8_t>(n - 1);
    }

    /** Reset contents and statistics. */
    void clear();

    const CacheConfig &config() const { return config_; }
    uint64_t numSets() const { return numSets_; }

    /** Number of valid lines currently resident (diagnostics). */
    uint64_t occupancy() const;

    uint64_t demandHits = 0;
    uint64_t demandMisses = 0;

  private:
    /**
     * Flag bits packed into the low bits of each tags_ word. Line
     * addresses are kLineBytes-aligned, so these bits are always zero
     * in the address itself (asserted on every mutating entry point).
     */
    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kPrefetched = 2;
    static constexpr uint64_t kUsed = 4;
    static constexpr uint64_t kFlagMask = kValid | kPrefetched | kUsed;
    static_assert(kFlagMask < kLineBytes,
                  "flag bits must fit below line alignment");

    /** Per-line plane bytes: tag+flags (8) + ready (8) + stamp (1). */
    static constexpr uint64_t kBytesPerLine = 17;
    /** Per-set plane bytes: clock (1) + count (1). */
    static constexpr uint64_t kBytesPerSet = 2;

    /** The set @p line maps to. */
    uint64_t
    setIndex(uint64_t line) const
    {
        return (line / kLineBytes) & setMask_;
    }

    /**
     * Single-pass tag probe over the first @p n ways of one set's tag
     * row (its valid lines): the way holding @p key (= line | kValid),
     * or -1. Masking the prefetched/used bits out of each stored word
     * leaves the valid bit in the compare. Every probe (lookupDemand,
     * contains, fill, invalidate) is this one scan.
     */
    int
    findWay(const uint64_t *tags, uint64_t key, int n) const
    {
        for (int i = 0; i < n; ++i) {
            if ((tags[i] & ~(kPrefetched | kUsed)) == key)
                return i;
        }
        return -1;
    }

    /**
     * Hand out set @p set's next use stamp. On epoch exhaustion
     * (clock at 255) the set's valid stamps are first compacted,
     * order-preserving, to {0..v-1} and the clock restarts at v —
     * amortized O(ways^2 / 255) per assignment, unobservable from
     * the outside because relative recency order never changes.
     */
    uint8_t
    bumpClock(uint64_t set, uint64_t base)
    {
        uint8_t c = clock_[set];
        if (c == 255)
            c = renormalize(base, count_[set]);
        clock_[set] = static_cast<uint8_t>(c + 1);
        return c;
    }

    uint8_t renormalize(uint64_t base, int n);

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };

    CacheConfig config_;
    uint64_t numSets_;
    uint64_t setMask_;
    int ways_;

    /** The last lookupDemand() hit: its key (line | kValid; 0, which
     *  no key equals, when forgotten) and its plane index. */
    uint64_t lastHitKey_ = 0;
    uint64_t lastHitSlot_ = 0;

    /**
     * The SoA planes, carved out of one calloc block (tags, ready,
     * stamps, per-set clocks and counts — in that order, so the wide
     * planes keep their natural alignment). The all-zero byte pattern
     * IS the reset state (no valid lines — a zero tag word has kValid
     * clear, a zero count is an empty set), so a fresh array needs no
     * explicit initialization pass — the OS hands out lazily-zeroed
     * pages and only the sets a run actually touches ever fault in. A
     * value-initialized vector would memset the whole array up front
     * (LLC: ~560 KB per CoreModel), which dominated short sweep runs
     * that touch a few hundred sets.
     */
    std::unique_ptr<uint8_t[], FreeDeleter> blob_;
    uint64_t *tags_;
    uint64_t *ready_;
    uint8_t *stamp_;
    uint8_t *clock_;
    uint8_t *count_;
};

} // namespace mab

#endif // MAB_MEMORY_CACHE_H
