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
 *  - PackedRecord: an 8-byte buffer format for TraceRecord (flags,
 *    PC offset and address offset in one word).
 *  - MaterializedTrace: a chunked PackedRecord buffer recorded as a
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
 * One trace record in one 64-bit word:
 *
 *   bits  0..26  PC - SyntheticTrace::kCodeBase
 *   bits 27..31  isLoad, isStore, isBranch, mispredicted,
 *                dependsOnPrevLoad
 *   bits 32..63  address - data base (memory records; 0 otherwise)
 *
 * The data base is the trace's, not the record's: SyntheticTrace::
 * dataBase(), whose low 32 bits are zero, held once by MaterializedTrace
 * and ReplaySource, so an address decodes as base | (w >> 32). pack()
 * throws on a record outside that domain (SyntheticTrace's profile
 * check keeps every generated record inside it). Every word decodes to
 * some record, so even a hostile payload that passed the arena file's
 * checksum replays without undefined behaviour.
 *
 * The word has no initializer on purpose: chunks are allocated for
 * overwrite and the recorder writes each slot before publishing it.
 */
struct PackedRecord
{
    static constexpr uint64_t kPcMask =
        (1ull << SyntheticTrace::kPcBits) - 1;
    static constexpr uint64_t kLoad = 1ull << 27;
    static constexpr uint64_t kStore = 1ull << 28;
    static constexpr uint64_t kBranch = 1ull << 29;
    static constexpr uint64_t kMispredicted = 1ull << 30;
    static constexpr uint64_t kDependsOnPrevLoad = 1ull << 31;
    static constexpr unsigned kAddrShift = 32;
    static constexpr uint64_t kAddrOffsetMask = (1ull << kAddrShift) - 1;

    uint64_t w;

    static PackedRecord
    pack(const TraceRecord &rec, uint64_t dataBase)
    {
        const uint64_t pcOff = rec.pc - SyntheticTrace::kCodeBase;
        if (pcOff > kPcMask)
            throw std::runtime_error(
                "PackedRecord: pc outside the 2^27-byte code window");
        uint64_t w = pcOff;
        if (rec.isLoad)
            w |= kLoad;
        if (rec.isStore)
            w |= kStore;
        if (rec.isBranch)
            w |= kBranch;
        if (rec.mispredicted)
            w |= kMispredicted;
        if (rec.dependsOnPrevLoad)
            w |= kDependsOnPrevLoad;
        if (rec.isMemory()) {
            if ((rec.addr & ~kAddrOffsetMask) != dataBase)
                throw std::runtime_error(
                    "PackedRecord: address outside the 4 GiB data "
                    "window");
            w |= rec.addr << kAddrShift;
        } else if (rec.addr != 0) {
            throw std::runtime_error(
                "PackedRecord: non-memory record with an address");
        }
        return PackedRecord{w};
    }

    uint64_t pc() const { return SyntheticTrace::kCodeBase + (w & kPcMask); }
    bool isLoad() const { return (w & kLoad) != 0; }
    bool isStore() const { return (w & kStore) != 0; }
    bool isMemory() const { return (w & (kLoad | kStore)) != 0; }
    bool dependsOnPrevLoad() const { return (w & kDependsOnPrevLoad) != 0; }
    bool
    mispredictedBranch() const
    {
        return (w & (kBranch | kMispredicted)) == (kBranch | kMispredicted);
    }

    /** The address of a memory record (meaningless for others). */
    uint64_t addr(uint64_t dataBase) const
    {
        return dataBase | (w >> kAddrShift);
    }

    TraceRecord
    unpack(uint64_t dataBase) const
    {
        TraceRecord rec;
        rec.pc = pc();
        rec.isLoad = isLoad();
        rec.isStore = isStore();
        rec.isBranch = (w & kBranch) != 0;
        rec.mispredicted = (w & kMispredicted) != 0;
        rec.dependsOnPrevLoad = dependsOnPrevLoad();
        rec.addr = isMemory() ? addr(dataBase) : 0;
        return rec;
    }
};

static_assert(sizeof(PackedRecord) == 8,
              "PackedRecord is one word: the arena byte budget, the "
              ".maba v2 payload and the replay loop are sized around it");

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
 * claims the role and its ReplaySource generates each record live —
 * inside its own simulation loop, where the host core overlaps the
 * generator's RNG work with sim cache misses — storing the packed
 * form as a side effect (~one 8-byte store per record). There is
 * never a standalone generation pass. Later runs replay the published
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
     * Generate the record at the frontier, store its packed form into
     * @p slot and publish @p newCount records. Recorder only; defined
     * in-class so recording a record is one direct (devirtualized)
     * generator call, a pack and two plain stores.
     */
    PackedRecord
    recordInto(PackedRecord &slot, uint64_t newCount)
    {
        const PackedRecord p = PackedRecord::pack(gen_.next(), dataBase_);
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
 *    record goes through nextSlow(), which generates it live (exactly
 *    what a bare SyntheticTrace would hand the run) and publishes the
 *    packed form as a side effect, so the first run over a workload
 *    pays one extra 8-byte store per record instead of a standalone
 *    generation pass.
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
    fill(TraceRecord *out, uint64_t n) override
    {
        for (uint64_t i = 0; i < n; ++i)
            out[i] = next();
    }

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
 * future. Entries are evicted least-recently-acquired-first when the
 * byte budget is exceeded; evicted payloads stay alive for the tasks
 * still holding their shared_ptr and are freed with the last one.
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
        uint64_t bytes = 0;
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
