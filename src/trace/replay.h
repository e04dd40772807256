#ifndef MAB_TRACE_REPLAY_H
#define MAB_TRACE_REPLAY_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/generator.h"

namespace mab {

/**
 * Materialized trace replay (the "generate once, replay everywhere"
 * subsystem).
 *
 * Every sweep point used to re-synthesize its workload one
 * TraceSource::next() call at a time: fig8 alone generates the same
 * instruction stream once per prefetcher (6x per workload), and the
 * tune/ablation grids are worse. ChampSim and Pythia's harness
 * amortize this by replaying pre-materialized traces; this header
 * brings that to the sweep engine.
 *
 *  - ChunkedStream: the one way a stream is materialized. A reader
 *    that needs an unpublished chunk generates it (and every earlier
 *    unpublished one) under the stream's mutex; every other read is
 *    an acquire load and an index. MaterializedTrace (PackedRecords,
 *    trace/record.h) and the SMT UopStream (smt/thread_source.h) are
 *    its two instances.
 *  - ReplaySource: a TraceSource whose replay read is one compare and
 *    one load from the current chunk.
 *  - TraceArena: a process-wide, mutex-guarded cache of materialized
 *    streams, shared_ptr-shared across sweep tasks, with a byte
 *    budget, LRU eviction and hit/miss/bytes/genMs counters (the
 *    meta.traceArena block of --json reports).
 *
 * Hard invariant: replay is byte-identical to live generation. A
 * materialized trace holds exactly the records the equivalent
 * SyntheticTrace would produce, so every sweep's output is unchanged
 * — to the byte, at any job count — whether the arena is on or off
 * (enforced by tests/test_replay.cc and fuzzed by fuzz/replay.cc).
 */

class TraceArena;

/**
 * Anything the TraceArena can hold: reports its resident size (which
 * may grow, e.g. lazily-extended SMT uop streams) and the wall-clock
 * spent generating it.
 */
class ArenaItem
{
  public:
    virtual ~ArenaItem() = default;

    /** Resident bytes of the materialized payload. */
    virtual uint64_t bytes() const = 0;

    /**
     * Bytes the arena's budget charges the item: by default its
     * resident bytes; an item whose final size is known up front
     * (MaterializedTrace) is charged that size from install, before
     * its payload has grown into it.
     */
    virtual uint64_t chargedBytes() const { return bytes(); }

    /** Wall-clock milliseconds spent generating the payload so far. */
    double
    genMs() const
    {
        return static_cast<double>(genNs_.load(std::memory_order_relaxed)) /
            1e6;
    }

  protected:
    /**
     * The item just grew by generating for @p ns. Counts @p ns to the
     * item and, once an arena has installed it, to the arena's total;
     * that arena then evicts other items down to its budget, so a
     * stream that grows after its last acquire cannot leave the arena
     * over budget. Call it holding no lock of the item.
     */
    void grew(uint64_t ns);

  private:
    friend class TraceArena;

    std::atomic<uint64_t> genNs_{0};
    /** The installing arena; set once, before the item is shared, and
     *  null for an item built outside the arena. */
    TraceArena *arena_ = nullptr;
};

/**
 * Owner of an externally-backed record payload: a MaterializedTrace
 * constructed over one keeps the owner alive for as long as any
 * consumer holds the trace. The concrete owner (an mmap'd arena file,
 * see trace/arena_file.h) stays out of this header so the replay hot
 * path never sees platform includes.
 */
class PayloadOwner
{
  public:
    virtual ~PayloadOwner() = default;
};

/**
 * A stream of up to capacity() Words from a Gen, materialized a chunk
 * of kChunkWords at a time. chunk(k) on an unpublished chunk takes the
 * generation mutex, generates every unpublished chunk up to k with
 * Gen::nextWord() and release-publishes the chunk count; every other
 * read is an acquire load and an index. The chunk directory is sized
 * once at construction, so a published slot never moves, and any
 * number of readers on any threads share the stream: whoever first
 * needs a chunk generates it. Generation is timed where it happens
 * (ArenaItem::genMs).
 */
template <class Word, class Gen>
class ChunkedStream : public ArenaItem
{
  public:
    /** Words per chunk (a power of two). */
    static constexpr unsigned kChunkShift = 14;
    static constexpr uint64_t kChunkWords = 1ull << kChunkShift;

    /**
     * Chunk @p idx, generating it first if it is unpublished; sets
     * @p generated (when given) to whether this call generated it.
     * Thread-safe.
     */
    const Word *
    chunk(uint64_t idx, bool *generated = nullptr)
    {
        if (idx < published_.load(std::memory_order_acquire)) {
            if (generated)
                *generated = false;
            return dir_[idx];
        }
        return generateThrough(idx, generated);
    }

    /** Published chunk @p idx (below numChunks() once available()
     *  reached capacity()): a plain read that never generates. */
    const Word *chunkPtr(uint64_t idx) const { return dir_[idx]; }

    /** Words published so far. */
    uint64_t
    available() const
    {
        return std::min(capacity_,
                        published_.load(std::memory_order_acquire)
                            << kChunkShift);
    }

    uint64_t capacity() const { return capacity_; }
    uint64_t numChunks() const
    {
        return (capacity_ + kChunkWords - 1) >> kChunkShift;
    }
    uint64_t chunkLength(uint64_t idx) const
    {
        return std::min(kChunkWords, capacity_ - (idx << kChunkShift));
    }

    uint64_t bytes() const override { return available() * sizeof(Word); }

  protected:
    ChunkedStream(Gen gen, uint64_t capacity)
        : gen_(std::move(gen)), capacity_(capacity),
          dir_(std::make_unique_for_overwrite<const Word *[]>(numChunks()))
    {
    }

    /** Publish every chunk from @p payload, capacity() contiguous
     *  words the caller keeps alive: nothing is ever generated. */
    void
    adopt(const Word *payload)
    {
        for (uint64_t k = 0; k < numChunks(); ++k)
            dir_[k] = payload + (k << kChunkShift);
        published_.store(numChunks(), std::memory_order_release);
    }

    /** The generator, for constructors only (generation owns it). */
    const Gen &generator() const { return gen_; }

  private:
    const Word *generateThrough(uint64_t idx, bool *generated);

    Gen gen_;
    const uint64_t capacity_;
    /** numChunks() slots; those below published_ are set and final. */
    std::unique_ptr<const Word *[]> dir_;
    std::atomic<uint64_t> published_{0};
    std::mutex genMu_; ///< guards gen_, owned_ and new slots
    std::vector<std::unique_ptr<Word[]>> owned_;
};

template <class Word, class Gen>
const Word *
ChunkedStream<Word, Gen>::generateThrough(uint64_t idx, bool *generated)
{
    if (idx >= numChunks())
        throw std::runtime_error("chunk " + std::to_string(idx) +
                                 " is past the stream's " +
                                 std::to_string(capacity_) + " words");
    std::chrono::steady_clock::duration took{};
    {
        std::lock_guard<std::mutex> lock(genMu_);
        uint64_t next = published_.load(std::memory_order_relaxed);
        if (generated)
            *generated = next <= idx;
        if (next > idx)
            return dir_[idx]; // a concurrent reader generated it
        const auto start = std::chrono::steady_clock::now();
        for (; next <= idx; ++next) {
            // Allocate before drawing: a failed allocation must leave
            // the generator at the first unpublished word.
            const uint64_t len = chunkLength(next);
            owned_.push_back(std::make_unique_for_overwrite<Word[]>(len));
            Word *words = owned_.back().get();
            for (uint64_t i = 0; i < len; ++i)
                words[i] = gen_.nextWord();
            dir_[next] = words;
            // Release-publish after the chunk and its slot are
            // written: a reader that observes the new count also
            // observes both.
            published_.store(next + 1, std::memory_order_release);
        }
        took = std::chrono::steady_clock::now() - start;
    }
    grew(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(took)
            .count()));
    return dir_[idx];
}

extern template class ChunkedStream<PackedRecord, SyntheticTrace>;

/**
 * A materialized instruction trace: exactly the first size() records
 * the generating SyntheticTrace produces from a fresh start, in
 * PackedRecord form, generated a chunk at a time by the first reader
 * that needs each chunk (or adopted whole from a mapped arena file).
 * Its length is fixed, so the arena charges it the full size() from
 * install.
 */
class MaterializedTrace final
    : public ChunkedStream<PackedRecord, SyntheticTrace>
{
  public:
    /** Lazy trace of the first @p count records over @p profile. */
    MaterializedTrace(const AppProfile &profile, uint64_t count);

    /**
     * Fully-materialized trace over an external payload of @p count
     * contiguous PackedRecords (an mmap'd arena file): every chunk is
     * published up front, nothing is ever generated, and @p owner is
     * kept alive until the trace dies. The payload bytes were
     * checksum- and fingerprint-verified by the loader
     * (trace/arena_file.cc), so replay through it is byte-identical
     * to live generation by the same contract as the in-memory path.
     */
    MaterializedTrace(const AppProfile &profile, uint64_t count,
                      const PackedRecord *payload,
                      std::shared_ptr<PayloadOwner> owner);

    /**
     * A trace with every chunk generated: the cold path of the
     * arena directory, and a test / microbench convenience for timing
     * or inspecting the whole buffer at once.
     */
    static std::shared_ptr<MaterializedTrace>
    generate(const AppProfile &profile, uint64_t count);

    /** The data base every packed address is an offset from. */
    uint64_t dataBase() const { return dataBase_; }

    /** True when the payload is externally backed (arena file). */
    bool isMapped() const { return owner_ != nullptr; }

    uint64_t size() const { return capacity(); }
    const std::string &name() const { return name_; }

    /** The full size() records, whatever has been generated. */
    uint64_t chargedBytes() const override
    {
        return size() * sizeof(PackedRecord);
    }

  private:
    std::string name_;
    const uint64_t dataBase_;
    std::shared_ptr<PayloadOwner> owner_;
};

/**
 * TraceSource over a MaterializedTrace. nextPacked() is one compare
 * and one 8-byte load from the current chunk; only crossing a
 * 16K-record chunk boundary, and exhaustion, take the out-of-line
 * nextSlow(), which asks the trace for the next chunk (generating it
 * if no reader has yet). No RNG, no phase machinery on the read.
 *
 * The class is final and nextPacked() is defined in-class, so the
 * CoreModel run loop (which caches the concrete pointer, see
 * cpu/core_model.h) inlines the replay read.
 *
 * The source does NOT wrap around: running past the end would
 * silently diverge from live generation, so it throws instead (the
 * arena always materializes exactly the records a run consumes).
 */
class ReplaySource final : public TraceSource
{
  public:
    explicit ReplaySource(std::shared_ptr<MaterializedTrace> trace)
        : trace_(std::move(trace)), dataBase_(trace_->dataBase()),
          size_(trace_->size())
    {
    }

    ReplaySource(const ReplaySource &) = delete;
    ReplaySource &operator=(const ReplaySource &) = delete;

    /**
     * The next record in packed form — the hot entry point: the
     * CoreModel replay loop consumes PackedRecords directly (one
     * register plus dataBase(), flag reads stay bit tests) and never
     * materializes the unpacked struct.
     */
    PackedRecord
    nextPacked()
    {
        if (pos_ < chunkEnd_) [[likely]]
            return chunk_[pos_++ & (MaterializedTrace::kChunkWords - 1)];
        return nextSlow();
    }

    TraceRecord next() override { return nextPacked().unpack(dataBase_); }

    void
    reset() override
    {
        pos_ = 0;
        chunkEnd_ = 0;
        chunk_ = nullptr;
        generated_ = false;
    }

    const std::string &name() const override { return trace_->name(); }

    /** The trace's data base (PackedRecord::addr's argument). */
    uint64_t dataBase() const { return dataBase_; }
    uint64_t size() const { return size_; }
    uint64_t position() const { return pos_; }

    /** True while the chunk being read was generated by this source's
     *  own read (its first touch of the stream), false while it
     *  replays a chunk some earlier read generated. */
    bool recording() const { return generated_; }

  private:
    /** A chunk boundary or exhaustion: throws past size(), else moves
     *  the window to the chunk holding pos_. */
    PackedRecord nextSlow();

    [[noreturn]] void throwExhausted() const;

    std::shared_ptr<MaterializedTrace> trace_;
    const uint64_t dataBase_;
    /** The chunk of the current window (null before the first read). */
    const PackedRecord *chunk_ = nullptr;
    uint64_t size_;
    uint64_t pos_ = 0;
    /** Records readable through chunk_ without another check: the end
     *  of its chunk or size_, whichever is first. */
    uint64_t chunkEnd_ = 0;
    bool generated_ = false;
};

/**
 * Process-wide cache of materialized workloads, shared across
 * SweepRunner tasks.
 *
 * Keys are exact fingerprints (every profile field spelled into the
 * key, doubles by bit pattern — no hash collisions), so an arena hit
 * can only ever return the identical workload. Concurrent misses on
 * the same key generate once: the first task installs a future and
 * materializes outside the lock, later tasks block on the shared
 * future. Every acquire, hit or miss, and every growth of an installed
 * item (ArenaItem::grew, after the chunks are published) evicts
 * least-recently-acquired entries, never the acquired or growing one,
 * while the charged bytes (ArenaItem::chargedBytes: a lazy trace
 * counts its full length from install, a growing uop stream what it
 * holds so far) exceed the byte budget; evicted payloads stay alive
 * for the tasks still holding their shared_ptr and are freed with the
 * last one.
 *
 * Environment knobs (read once, at first use):
 *   MAB_TRACE_ARENA=0        disable (every run generates live)
 *   MAB_TRACE_ARENA_MB=<n>   byte budget in MiB (default 512)
 *   MAB_TRACE_ARENA_DIR=<d>  persist instruction traces as versioned
 *                            on-disk PackedRecord files under <d>
 *                            (created if absent). A miss first tries
 *                            to mmap the workload's file — warm starts
 *                            skip generation entirely, and concurrent
 *                            processes share one copy of every trace
 *                            through the page cache. A miss with
 *                            no (or a corrupt) file generates eagerly,
 *                            then spills via an atomic rename so
 *                            racing writers can never expose a partial
 *                            file. Corrupt files (bad magic/version/
 *                            fingerprint/length/checksum) are rejected
 *                            and regenerated, never replayed.
 */
class TraceArena
{
  public:
    static TraceArena &global();

    bool enabled() const;
    void setEnabled(bool on);

    uint64_t budgetBytes() const;
    void setBudgetBytes(uint64_t bytes);

    /** On-disk arena directory ("" = in-memory only). */
    std::string dir() const;
    void setDir(std::string dir);

    /** Arena counters (the meta.traceArena block). */
    struct Stats
    {
        bool enabled = true;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t entries = 0;
        /** Resident bytes of the ready entries. */
        uint64_t bytes = 0;
        /** What the budget charges them (ArenaItem::chargedBytes). */
        uint64_t chargedBytes = 0;
        uint64_t budgetBytes = 0;
        /** Generation time of every stream the arena installed since
         *  the last clear(), evicted ones and chunks generated after
         *  their eviction included. */
        double genMs = 0.0;
        /** Persistent-arena traffic (MAB_TRACE_ARENA_DIR). */
        std::string dir;
        uint64_t fileHits = 0;   ///< misses served by mmap'ing a file
        uint64_t fileSpills = 0; ///< traces written to the directory
        uint64_t fileRejects = 0; ///< corrupt files fallen back from
    };

    Stats stats() const;

    /** Drop every entry and zero the counters (tests). */
    void clear();

    using Generator = std::function<std::shared_ptr<ArenaItem>()>;

    /**
     * The cached item under @p key, produced via @p gen on a miss.
     * @p gen runs outside the arena lock; concurrent acquirers of the
     * same key share one generation. Exceptions from @p gen propagate
     * to every waiter and the entry is removed.
     */
    std::shared_ptr<ArenaItem> acquire(const std::string &key,
                                       const Generator &gen);

    /** Materialized instruction trace of (@p profile, @p count). */
    std::shared_ptr<MaterializedTrace>
    acquireTrace(const AppProfile &profile, uint64_t count);

  private:
    TraceArena();

    friend class ArenaItem;

    /** While the charged bytes exceed the budget, evict the
     *  least-recently-acquired ready entry other than @p keep; evict
     *  nothing once @p keep has left the arena. */
    void evictOverBudget(const ArenaItem *keep);

    struct Entry
    {
        std::shared_future<std::shared_ptr<ArenaItem>> fut;
        uint64_t lruTick = 0;
    };

    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    bool enabled_ = true;
    uint64_t budgetBytes_ = 0;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    /** Installed items add their generation here (ArenaItem::grew),
     *  from whichever thread generates. */
    std::atomic<uint64_t> genNs_{0};
    /** On-disk arena directory; "" keeps the arena in-memory only. */
    std::string dir_;
    /** File-traffic counters are atomic: they tick inside generators
     *  running outside mu_ (acquire() drops the lock to generate). */
    std::atomic<uint64_t> fileHits_{0};
    std::atomic<uint64_t> fileSpills_{0};
    std::atomic<uint64_t> fileRejects_{0};
};

/** Exact (collision-free) arena key fragment for @p profile. */
std::string profileFingerprint(const AppProfile &profile);

/**
 * The trace source of one sweep run over @p profile consuming exactly
 * @p instructions records: a ReplaySource over the arena's
 * materialized workload when the arena is enabled, else a live
 * SyntheticTrace. This is the one entry point the bench run helpers
 * and the golden-snapshot driver route through.
 */
std::unique_ptr<TraceSource> makeRunSource(const AppProfile &profile,
                                           uint64_t instructions);

} // namespace mab

#endif // MAB_TRACE_REPLAY_H
