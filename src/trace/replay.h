#ifndef MAB_TRACE_REPLAY_H
#define MAB_TRACE_REPLAY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
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
 *  - MaterializedTrace: a chunked buffer of PackedRecord words
 *    (trace/record.h), the generator's own output, recorded as a
 *    side effect of the first run that consumes the workload — there
 *    is no standalone generation pass.
 *  - ReplaySource: a TraceSource whose replay read is one compare and
 *    one load from the buffer (or, on the first run, a live generator
 *    call that also records).
 *  - TraceArena: a process-wide, mutex-guarded cache of materialized
 *    workloads, shared_ptr-shared across sweep tasks, with a byte
 *    budget, LRU eviction and hit/miss/bytes/genMs counters (the
 *    meta.traceArena block of --json reports).
 *
 * Hard invariant: replay is byte-identical to live generation. A
 * materialized trace holds exactly the records the equivalent
 * SyntheticTrace would produce, so every sweep's output is unchanged
 * — to the byte, at any job count — whether the arena is on or off
 * (enforced by tests/test_replay.cc and fuzzed by fuzz/replay.cc).
 */

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
    virtual double genMs() const = 0;
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
 * A materialized instruction trace: exactly the first size() records
 * the generating SyntheticTrace produces from a fresh start, in
 * PackedRecord form.
 *
 * Records are materialized at *record* granularity by whichever
 * consumer holds the recorder role: the first run over a workload
 * claims the role and its ReplaySource generates each record live,
 * inside its own simulation loop, and stores the generator's word
 * unchanged. The recording run pays the whole generator on top of
 * its simulation, which does not hide it: BM_GeneratorNext measures
 * 15-17 ns per record on a shared 4-vCPU Xeon, and pf_single's None
 * column, whose cells record every trace, costs about 1.6x its Stride
 * column (EXPERIMENTS.md "Synthetic-input kernel"). There is never a
 * standalone generation pass. Later runs replay the published
 * records lock-free: the chunk directory is sized once at
 * construction so slots never move, each record is written before the
 * frontier count is release-published, and readers acquire the count.
 *
 * A concurrent run that catches up to the frontier (same workload,
 * --jobs > 1) waits for the recorder to publish more records — it
 * tracks one record behind the recorder's sim loop — and inherits the
 * role if the recorder retires mid-trace.
 */
class MaterializedTrace final : public ArenaItem
{
  public:
    /** Records per chunk (power of two; 128 KiB of PackedRecords). */
    static constexpr unsigned kChunkShift = 14;
    static constexpr uint64_t kChunkRecords = 1ull << kChunkShift;

    /** Lazy trace of the first @p count records over @p profile. */
    MaterializedTrace(const AppProfile &profile, uint64_t count);

    /**
     * Fully-materialized trace over an external payload of @p count
     * contiguous PackedRecords (an mmap'd arena file): every record
     * is published up front, no recorder ever runs, and @p owner is
     * kept alive until the trace dies. The payload bytes were
     * checksum- and fingerprint-verified by the loader
     * (trace/arena_file.cc), so replay through it is byte-identical
     * to live generation by the same contract as the in-memory path.
     */
    MaterializedTrace(const AppProfile &profile, uint64_t count,
                      const PackedRecord *payload,
                      std::shared_ptr<PayloadOwner> owner);

    /**
     * Fully materialized trace (every record generated eagerly):
     * microbench / test convenience for timing or inspecting the
     * whole buffer at once.
     */
    static std::shared_ptr<MaterializedTrace>
    generate(const AppProfile &profile, uint64_t count);

    /** Records published so far (readable without the recorder). */
    uint64_t available() const
    {
        return avail_.load(std::memory_order_acquire);
    }

    /** The data base every packed address is an offset from. */
    uint64_t dataBase() const { return dataBase_; }

    /**
     * Pointer to chunk @p idx. Only records below available() may be
     * read through it; the slot itself never moves once its first
     * record is published.
     */
    const PackedRecord *chunkPtr(uint64_t idx) const
    {
        // Mapped traces serve chunks straight out of the contiguous
        // external payload; the branch sits on the once-per-16K-record
        // refill path, never in the per-record loop.
        if (mapped_)
            return mapped_ + (idx << kChunkShift);
        return chunks_[idx].get();
    }

    /** True when the payload is externally backed (arena file). */
    bool isMapped() const { return mapped_ != nullptr; }

    /**
     * Claim the (single) recorder role. On success the caller — and
     * only the caller, from one thread — advances the trace via
     * recordNext() until it calls releaseRecorder(). The claim
     * acquire-synchronizes with the previous holder's release, so the
     * generator state hands off cleanly mid-trace.
     */
    bool tryBecomeRecorder();
    void releaseRecorder();

    /**
     * True when the active recorder runs on the calling thread. A
     * second source on the recorder's own thread that reads past the
     * frontier can never be satisfied (the recorder only advances
     * between its own next() calls), so waiters use this to throw
     * instead of spinning forever.
     */
    bool recorderIsThisThread() const;

    /**
     * The writable chunk @p idx (recorder only), allocating its slot
     * on first use, uninitialized: each record is written before it
     * is published. Taken once per 16K records by the recording
     * source, which then writes records through the raw pointer.
     */
    PackedRecord *
    recordChunk(uint64_t idx)
    {
        std::unique_ptr<PackedRecord[]> &slot = chunks_[idx];
        if (!slot)
            slot = std::make_unique_for_overwrite<PackedRecord[]>(
                chunkLength(idx));
        return slot.get();
    }

    /**
     * Generate the record at the frontier, store its word into @p slot
     * and publish @p newCount records. Recorder only; defined in-class
     * so recording a record is one direct (devirtualized) generator
     * call and two plain stores.
     */
    PackedRecord
    recordInto(PackedRecord &slot, uint64_t newCount)
    {
        const PackedRecord p = gen_.nextWord();
        slot = p;
        avail_.store(newCount, std::memory_order_release);
        return p;
    }

    uint64_t size() const { return count_; }
    uint64_t numChunks() const
    {
        return (count_ + kChunkRecords - 1) / kChunkRecords;
    }
    uint64_t chunkLength(uint64_t idx) const
    {
        const uint64_t base = idx << kChunkShift;
        return count_ - base < kChunkRecords ? count_ - base
                                             : kChunkRecords;
    }
    const std::string &name() const { return name_; }

    uint64_t bytes() const override;
    /** The full size() records, whatever has been published. */
    uint64_t chargedBytes() const override
    {
        return count_ * sizeof(PackedRecord);
    }
    double genMs() const override;

  private:
    /** Drive recordNext() to the end of the trace (generate()). */
    void materializeAll();

    std::string name_;
    uint64_t count_;

    SyntheticTrace gen_;
    const uint64_t dataBase_;
    /** Directory sized once at construction; slots never move. */
    std::vector<std::unique_ptr<PackedRecord[]>> chunks_;
    /** External contiguous payload (mapped mode), else nullptr. */
    const PackedRecord *mapped_ = nullptr;
    std::shared_ptr<PayloadOwner> owner_;
    std::atomic<uint64_t> avail_{0}; ///< published record count
    std::atomic<bool> recorderActive_{false};
    std::atomic<std::thread::id> recorderThread_{};
    std::atomic<uint64_t> genNs_{0}; ///< standalone (burst) gen only
};

/**
 * TraceSource over a MaterializedTrace. Two modes, decided per run at
 * the materialization frontier:
 *
 *  - replay: nextPacked() is one compare and one 8-byte load; only
 *    crossing a 16K-record chunk boundary or the published frontier
 *    takes the out-of-line nextSlow(). No RNG, no phase machinery.
 *  - recording: this source holds the trace's recorder role; every
 *    record goes through nextSlow(), which generates it live (the
 *    very word a bare SyntheticTrace would hand the run) and
 *    publishes it as a side effect, so the first run over a workload
 *    pays the generator once, inside its own loop, instead of a
 *    standalone generation pass.
 *
 * The class is final and nextPacked() is defined in-class, so the
 * CoreModel run loop (which caches the concrete pointer, see
 * cpu/core_model.h) inlines the replay read; the recording branch
 * stays out of line to keep it small enough to inline.
 *
 * Unlike FileTrace the source does NOT wrap around: running past the
 * end would silently diverge from live generation, so it throws
 * instead (the arena always materializes exactly the records a run
 * consumes).
 */
class ReplaySource final : public TraceSource
{
  public:
    explicit ReplaySource(std::shared_ptr<MaterializedTrace> trace)
        : trace_(std::move(trace)), dataBase_(trace_->dataBase()),
          size_(trace_->size())
    {
    }

    ~ReplaySource() override
    {
        if (recording_)
            trace_->releaseRecorder();
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
            return chunk_[pos_++ & (MaterializedTrace::kChunkRecords - 1)];
        return nextSlow();
    }

    TraceRecord next() override { return nextPacked().unpack(dataBase_); }

    void
    reset() override
    {
        if (recording_) {
            trace_->releaseRecorder();
            recording_ = false;
        }
        pos_ = 0;
        known_ = 0;
        chunkEnd_ = 0;
        chunk_ = nullptr;
        recChunk_ = nullptr;
    }

    const std::string &name() const override { return trace_->name(); }

    /** The trace's data base (PackedRecord::addr's argument). */
    uint64_t dataBase() const { return dataBase_; }
    uint64_t size() const { return size_; }
    uint64_t position() const { return pos_; }
    bool recording() const { return recording_; }

  private:
    /**
     * Every read nextPacked()'s compare does not cover: a chunk
     * boundary, the published frontier, exhaustion, and each record
     * of a recording run.
     */
    PackedRecord nextSlow();

    /**
     * Frontier resolution, at pos_ == known_. Either the run is
     * exhausted (throws), more published records became visible
     * (refreshes known_), or this source is at the true frontier —
     * then it claims the recorder role, or waits for the concurrent
     * recorder to publish past pos_.
     */
    void advance();

    [[noreturn]] void throwExhausted() const;

    std::shared_ptr<MaterializedTrace> trace_;
    const uint64_t dataBase_;
    /** The replay chunk holding pos_ (never used while recording). */
    const PackedRecord *chunk_ = nullptr;
    PackedRecord *recChunk_ = nullptr; ///< current chunk (recording)
    uint64_t size_;
    uint64_t pos_ = 0;
    /** Records readable through chunk_ without another check: the end
     *  of its chunk or known_, whichever is first; 0 while recording,
     *  so every recorded record takes nextSlow(). */
    uint64_t chunkEnd_ = 0;
    /** Records consumable without re-resolving the frontier: the
     *  published count last observed (capped at size_), or size_
     *  while recording. */
    uint64_t known_ = 0;
    bool recording_ = false;
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
 * future. Every acquire, hit or miss, evicts least-recently-acquired
 * entries while the charged bytes (ArenaItem::chargedBytes: a lazy
 * trace counts its full length from install, a growing uop stream
 * what it holds so far) exceed the byte budget; evicted payloads stay
 * alive for the tasks still holding their shared_ptr and are freed
 * with the last one.
 *
 * Environment knobs (read once, at first use):
 *   MAB_TRACE_ARENA=0        disable (every run generates live); the
 *                            bench flag --no-trace-cache does the same
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

    void evictOverBudget(const std::string &keep);

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
