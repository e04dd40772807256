#ifndef MAB_SMT_THREAD_SOURCE_H
#define MAB_SMT_THREAD_SOURCE_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "trace/replay.h"

namespace mab {

/** Micro-op kinds modeled by the SMT pipeline. */
enum class UopKind
{
    IntAlu,
    FpAlu,
    Load,
    Store,
    Branch,
};

/** One decoded micro-op of an SMT thread. */
struct Uop
{
    UopKind kind = UopKind::IntAlu;

    /** Execution latency after issue (loads: memory latency). */
    uint32_t execLatency = 1;

    /** Stores: cycles the SQ entry drains after commit. */
    uint32_t drainLatency = 0;

    /** Mispredicted branch (pre-resolved by the generator). */
    bool mispredicted = false;

    /**
     * Register dependency: this uop consumes the result of the uop
     * @c depDistance positions earlier in the same thread (0 = no
     * dependency). Short distances model low-ILP code.
     */
    uint16_t depDistance = 0;
};

/**
 * Statistical profile of an SMT thread (the stand-in for a SimPointed
 * SPEC17 binary; see DESIGN.md). The parameters control the pressure
 * the thread puts on each pipeline structure — the property the fetch
 * PG policies differentiate on.
 */
struct SmtAppParams
{
    std::string name;

    double loadFrac = 0.25;
    double storeFrac = 0.10;
    double branchFrac = 0.15;
    double fpFrac = 0.10;

    double mispredictRate = 0.01;

    /** P(load misses L1) and P(load goes to DRAM | missed L1). */
    double l1MissRate = 0.05;
    double dramRate = 0.2;

    uint32_t l2Latency = 16;
    uint32_t dramLatency = 300;

    /**
     * Dependency profile: probability that a uop depends on a recent
     * producer, and the mean back-distance when it does. Low mean
     * distance = serial (low-ILP) code.
     */
    double depProb = 0.5;
    int depMeanDistance = 8;

    /** P(store drains slowly, occupying its SQ entry for a long
     *  time) — the lbm-style SQ-exhaustion behaviour (Section 3.3). */
    double storeDrainDramRate = 0.05;
};

/**
 * One generated uop in 16 bits, UopStream's chunk word. A uop carries
 * only the draws that made it; its latencies are constants of its app
 * and come back from the UopDecoder table:
 *
 *   bits  0..3   op class (the enumerators below)
 *   bits  4..9   depDistance (at most 63)
 *   bits 10..15  DRAM spread (kLoadDram only: cycles above dramLatency)
 *
 * Every word decodes: the unused classes 9..15 decode to IntAlu and the
 * spread bits of any other class are ignored. The word has no
 * initializer: chunks are allocated for overwrite and filled before
 * they are published.
 */
struct PackedUop
{
    enum Class : uint16_t
    {
        kIntAlu,
        kFpAlu,
        kLoadL1,
        kLoadL2,
        kLoadDram,
        kStoreL2,
        kStoreDram,
        kBranch,
        kBranchMispredicted,
        kNumClasses,
    };
    static constexpr unsigned kDepShift = 4;
    static constexpr unsigned kSpreadShift = 10;
    static constexpr uint16_t kMaxDepDistance = 63;
    /** DRAM loads take dramLatency plus [0, kDramSpread) cycles. */
    static constexpr uint32_t kDramSpread = 64;

    uint16_t w;
};

static_assert(sizeof(PackedUop) == 2, "PackedUop is 16 bits");

/**
 * The per-stream decode table of PackedUop: one Uop per op class,
 * built from the app's SmtAppParams (loads 4 cycles from L1,
 * l2Latency from L2 and dramLatency plus the word's spread from DRAM;
 * stores execute in 1 cycle and drain for l2Latency or dramLatency;
 * branches and IntAlu take 1 cycle, FpAlu 4).
 */
class UopDecoder
{
  public:
    explicit UopDecoder(const SmtAppParams &params);

    Uop
    decode(PackedUop p) const
    {
        const unsigned cls = p.w & 15u;
        Uop uop = table_[cls];
        uop.depDistance = static_cast<uint16_t>(
            (p.w >> PackedUop::kDepShift) & PackedUop::kMaxDepDistance);
        uop.execLatency += static_cast<uint32_t>(p.w >>
                                                 PackedUop::kSpreadShift) &
            spreadMask(cls);
        return uop;
    }

    /** The uop of op class @p cls (0..15) with no dependency and no
     *  spread: every field decode() takes from the table. */
    const Uop &classUop(unsigned cls) const { return table_[cls]; }

    /** The spread counts only for a DRAM load (a mask, not a branch):
     *  the mask decode() applies to the word's spread bits. */
    static constexpr uint32_t
    spreadMask(unsigned cls)
    {
        return 0u - static_cast<uint32_t>(cls == PackedUop::kLoadDram);
    }

  private:
    std::array<Uop, 16> table_;
};

/**
 * The raw micro-op generator: a pure function of (params, seed,
 * index). Shared by the live ThreadSource path and the materializing
 * UopStream, which both take nextWord() and decode the same word, so
 * replay is byte-identical to live generation by construction. Every
 * draw is an inlined integer compare: the probabilities (and the
 * running sums the op class is picked against) are precomputed
 * Rng::chanceThresholds. The constructor throws std::invalid_argument
 * for a dramLatency whose spread would overflow a uint32_t latency
 * (above UINT32_MAX - 63), so live and replayed runs accept the same
 * params.
 */
class UopGen
{
  public:
    /** Cap of the geometric dependency draw: 1 + cap is the largest
     *  depDistance, PackedUop::kMaxDepDistance. */
    static constexpr uint64_t kDepGeometricCap =
        PackedUop::kMaxDepDistance - 1;

    UopGen(const SmtAppParams &params, uint64_t seed);

    PackedUop nextWord();
    void reset() { rng_.reseed(seed_); }

    const SmtAppParams &params() const { return params_; }

  private:
    SmtAppParams params_;
    uint64_t seed_;
    Rng rng_;
    /** chanceThresholds of uniform() < loadFrac, of the running sums
     *  with storeFrac, branchFrac and fpFrac, and of each Bernoulli
     *  draw; depDistance is the geometric draw with 1 /
     *  depMeanDistance. */
    uint64_t loadT_, storeT_, branchT_, fpT_;
    uint64_t l1MissT_, dramT_, drainDramT_, mispredictT_, depT_,
        depDistanceT_;
};

extern template class ChunkedStream<PackedUop, UopGen>;

/**
 * A lazily-materialized micro-op stream shared across SMT runs (the
 * SMT-side payload of the TraceArena): the ChunkedStream of a UopGen,
 * the same chunk-at-a-time generation as MaterializedTrace. The
 * fig13/table9 sweeps run every mix under three fetch regimes, and
 * each app appears in ~21 mixes with the same per-lane seed — so
 * without sharing, the identical uop stream is regenerated dozens of
 * times.
 *
 * Unlike MaterializedTrace the stream has no fixed length — SMT runs
 * are cycle-bounded, so how many uops a run consumes depends on the
 * pipeline dynamics. The stream simply grows to the high-water mark
 * of its consumers, up to kMaxChunks chunks, and the arena's budget
 * charges what it holds (bytes()).
 */
class UopStream final : public ChunkedStream<PackedUop, UopGen>
{
  public:
    /** Directory capacity: kMaxChunks * kChunkWords uops (~268M). */
    static constexpr uint64_t kMaxChunks = 1ull << 14;

    UopStream(const SmtAppParams &params, uint64_t seed);
};

/** Shared stream of (@p params, @p seed) from the global TraceArena. */
std::shared_ptr<UopStream>
acquireUopStream(const SmtAppParams &params, uint64_t seed);

/** Exact arena key fragment for @p params (doubles by bit pattern). */
std::string smtParamsFingerprint(const SmtAppParams &params);

/**
 * Deterministic source of a thread's micro-op stream. Two modes with
 * byte-identical output:
 *  - live (default): each word comes straight from UopGen;
 *  - replay: attachStream() plugs in a shared UopStream and
 *    nextWord() becomes one compare and one 16-bit load from the
 *    current chunk; only a chunk boundary asks the stream for the next
 *    chunk (generating it if no reader has yet).
 * The SMT pipeline consumes the words themselves through nextWord(),
 * inlined like ReplaySource::nextPacked(); next() decodes the same
 * word through the thread's UopDecoder.
 */
class ThreadSource
{
  public:
    ThreadSource(const SmtAppParams &params, uint64_t seed);

    /** The next uop word. The window [chunk start, chunkEnd_) reads
     *  without another check; a chunk boundary and the live path
     *  (where chunkEnd_ stays 0) take nextWordSlow(). */
    PackedUop
    nextWord()
    {
        if (pos_ < chunkEnd_) [[likely]]
            return chunk_[pos_++ & (UopStream::kChunkWords - 1)];
        return nextWordSlow();
    }

    /** The next uop, decoded. */
    Uop next() { return decoder_.decode(nextWord()); }

    void reset();

    /**
     * Switch to replay mode over @p stream, restarting from uop 0.
     * The stream must have been built from the same (params, seed)
     * pair — acquireUopStream() keys on exactly that.
     */
    void attachStream(std::shared_ptr<UopStream> stream);

    /** True when nextWord() replays a materialized stream. */
    bool replaying() const { return stream_ != nullptr; }

    const SmtAppParams &params() const { return gen_.params(); }
    const std::string &name() const { return gen_.params().name; }

    /** The decode table of this thread's words. */
    const UopDecoder &decoder() const { return decoder_; }

  private:
    /** Live: the generator's next word. Replay: move the window to the
     *  chunk holding pos_ and read from it. */
    PackedUop nextWordSlow();

    UopGen gen_;
    UopDecoder decoder_;

    /** Replay state (unused in live mode). */
    std::shared_ptr<UopStream> stream_;
    /** The chunk of the current window (null before the first read). */
    const PackedUop *chunk_ = nullptr;
    uint64_t pos_ = 0;
    /** Words readable through chunk_ without another check: the end
     *  of its chunk, 0 with no window. */
    uint64_t chunkEnd_ = 0;
};

/** The 22 SPEC17-like SMT app profiles of Section 6.2. */
const std::vector<SmtAppParams> &smtAppCatalog();

/** Look up a catalog app by name. */
const SmtAppParams &smtAppByName(const std::string &name);

/**
 * The 2-thread mixes of the evaluation: all unordered pairs of the
 * catalog, truncated to @p count (226 in Figure 13; the tune set of
 * Table 9 uses 43 mixes drawn from the first 10 apps).
 */
std::vector<std::pair<std::string, std::string>>
smtMixes(size_t count, size_t apps_limit = 0);

} // namespace mab

#endif // MAB_SMT_THREAD_SOURCE_H
