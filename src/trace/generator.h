#ifndef MAB_TRACE_GENERATOR_H
#define MAB_TRACE_GENERATOR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "trace/record.h"

namespace mab {

/** Abstract source of dynamic instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next dynamic instruction. Sources never run dry. */
    virtual TraceRecord next() = 0;

    /** Restart the trace from the beginning. */
    virtual void reset() = 0;

    /** Name of the workload (used in reports). */
    virtual const std::string &name() const = 0;
};

/** Memory access pattern regimes the generators can produce. */
enum class PatternKind
{
    /** Sequential walks over long arrays (streamer-friendly). */
    Streaming,
    /** Constant per-PC strides larger than one line (stride-friendly). */
    Strided,
    /** Dependent pointer chasing (no prefetcher helps). */
    PointerChase,
    /** Recurring footprints inside 2KB regions (Bingo-friendly). */
    SpatialRegion,
    /** Uniform random over the footprint (nothing helps). */
    Random,
};

/** Name of a pattern kind (for reports and tests). */
std::string toString(PatternKind kind);

/**
 * One phase of a synthetic application: a stationary mix of an access
 * pattern and instruction types. Phase boundaries model the
 * coarse-grained program phases whose detection motivates DUCB.
 */
struct PatternPhase
{
    PatternKind kind = PatternKind::Streaming;

    /** Fraction of instructions that access memory. */
    double memFraction = 0.3;

    /** Fraction of memory instructions that are stores. */
    double storeFraction = 0.2;

    /** Fraction of instructions that are branches. */
    double branchFraction = 0.15;

    /** Branch misprediction rate. */
    double mispredictRate = 0.01;

    /** Bytes touched by the phase (decides which level it fits in). */
    uint64_t footprintBytes = 64ull << 20;

    /** Stride in bytes for PatternKind::Strided. */
    int64_t strideBytes = 256;

    /** Concurrent streams / strided PCs. */
    int numStreams = 4;

    /**
     * Memory accesses landing in each line before the pattern moves
     * on (intra-line spatial locality). Sequential code touches a
     * 64B line many times (8B elements), pointer chases touch it
     * once or twice; this parameter sets the L1-filtered miss rate
     * the L2 prefetcher actually sees.
     */
    int accessesPerLine = 4;

    /**
     * PointerChase only: fraction of chain advances whose address
     * depends on the previous load. Real pointer-heavy code (mcf)
     * interleaves several independent traversals, so only part of
     * the chain serializes.
     */
    double chaseSerialFrac = 0.1;

    /** Dynamic instructions in this phase. */
    uint64_t lengthInstrs = 1'000'000;
};

/** A named synthetic application: an ordered list of phases. */
struct AppProfile
{
    std::string name;
    std::vector<PatternPhase> phases;

    /** Loop back to the first phase when the last one ends. */
    bool loopPhases = true;

    /** Base RNG seed; every run of the app is identical. */
    uint64_t seed = 1;
};

/**
 * Synthetic trace generator. Expands an AppProfile into a deterministic
 * dynamic instruction stream that exercises the configured access
 * pattern regimes (the stand-in for the DPC-3 / CRC-2 / Pythia trace
 * collections, see DESIGN.md).
 *
 * nextWord() builds each record directly as the 8-byte PackedRecord
 * of trace/record.h, the word the trace arena stores unchanged; next()
 * decodes that same word, so live and replayed runs take one path.
 * Every draw is an inlined integer compare on the RNG output: each
 * probability is a precomputed Rng::chanceThreshold and each
 * footprint bound a precomputed Rng::Bound, set up per phase.
 *
 * Every record stays inside one domain, the one PackedRecord is laid
 * out for:
 *  - the PC lies in [kCodeBase, kCodeBase + 2^kPcBits): phase i owns
 *    the 64 KiB window at kCodeBase + (i << kPhasePcShift), and its
 *    stream PCs sit kStreamPcStride bytes apart inside that window;
 *  - a memory record's address lies in [dataBase(), dataBase() +
 *    4 GiB), and dataBase()'s low 32 bits are zero;
 *  - a non-memory record's address is 0.
 * The constructor rejects (std::invalid_argument) every profile that
 * would leave the domain or crash the generator: no phases, more than
 * kMaxPhases phases, more than kMaxStreams streams, a footprint below
 * one line (below one 2 KiB region for SpatialRegion) or above
 * kMaxFootprintBytes. Live and replayed runs both construct a
 * SyntheticTrace, so they accept exactly the same profiles.
 */
class SyntheticTrace final : public TraceSource
{
  public:
    static constexpr uint64_t kCodeBase = PackedRecord::kCodeBase;
    static constexpr unsigned kPcBits = PackedRecord::kPcBits;
    static constexpr unsigned kPhasePcShift = 16;
    static constexpr uint64_t kStreamPcStride = 24;
    static constexpr size_t kMaxPhases = size_t{1}
        << (kPcBits - kPhasePcShift);
    static constexpr int kMaxStreams = static_cast<int>(
        ((1ull << kPhasePcShift) - 1) / kStreamPcStride + 1);
    static constexpr uint64_t kMaxFootprintBytes =
        (1ull << 32) - kLineBytes;

    explicit SyntheticTrace(AppProfile profile);

    /** The next record, decoded from nextWord(). */
    TraceRecord next() override;

    /** The next record as its PackedRecord word (addresses relative
     *  to dataBase()). */
    PackedRecord nextWord();

    void reset() override;
    const std::string &name() const override { return profile_.name; }

    const AppProfile &profile() const { return profile_; }

    /** Index of the phase the generator is currently in. */
    size_t currentPhase() const { return phaseIdx_; }

    /** Base of the app's data segment (low 32 bits zero); every
     *  memory address lies less than 4 GiB above it. */
    uint64_t dataBase() const { return appBase_; }

  private:
    /** Per-stream pattern cursor state. */
    struct Stream
    {
        uint64_t pcOffset = 0; ///< PC - kCodeBase
        uint64_t cursor = 0;
        uint64_t remaining = 0;
    };

    /** The current phase's draws in integer form (enterPhase). */
    struct PhaseDraws
    {
        explicit PhaseDraws(const PatternPhase &ph);

        uint64_t branch;     ///< r < branchFraction
        uint64_t branchOrMem; ///< r < branchFraction + memFraction
        uint64_t mispredict;
        uint64_t store;
        uint64_t chaseSerial;
        Rng::Bound lines;   ///< footprintBytes / kLineBytes
        Rng::Bound regions; ///< footprintBytes / 2048 (SpatialRegion)
        Rng::Bound bytes;   ///< footprintBytes
    };

    void enterPhase(size_t idx);
    /** The next memory address, as an offset from dataBase(). */
    uint64_t nextAddress(bool &depends_on_prev);

    AppProfile profile_;
    Rng rng_;
    size_t phaseIdx_ = 0;
    uint64_t instrInPhase_ = 0;
    uint64_t appBase_ = 0;
    /** PC offset of the current phase's code window. */
    uint64_t phasePc_ = 0;
    PhaseDraws draws_;

    std::vector<Stream> streams_;
    size_t rrStream_ = 0;
    uint64_t chaseCursor_ = 0;

    /** Intra-line repeat state (accessesPerLine); the line is an
     *  offset from dataBase(). */
    uint64_t repeatLine_ = 0;
    int repeatLeft_ = 0;
    bool lastPickWasStream_ = false;
    size_t lastStream_ = 0;

    /** Footprint bitmap for SpatialRegion phases (32 lines / 2KB). */
    uint32_t regionFootprint_ = 0;
    uint64_t regionBase_ = 0;
    int regionPos_ = 0;
};

/**
 * Concatenate a trace with phase-shifted variants of itself, modeling
 * the paper's rule for extending short traces to 1B instructions
 * (Section 6.2): the extension replays phases of the same program in a
 * different order to create highly-dynamic scenarios.
 */
std::unique_ptr<TraceSource> makePhaseShuffledTrace(const AppProfile &app,
                                                    uint64_t shuffle_seed);

} // namespace mab

#endif // MAB_TRACE_GENERATOR_H
