#include "trace/generator.h"

#include <algorithm>
#include <stdexcept>

namespace mab {

namespace {

/** Stateless 64-bit mix used for pointer-chase successor addresses. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

/**
 * Reject a profile the generator cannot run or whose records would
 * leave the domain of SyntheticTrace (see generator.h). Each message
 * names the offending field and its value.
 */
const AppProfile &
checkedProfile(const AppProfile &app)
{
    const auto fail = [&app](const std::string &what) {
        throw std::invalid_argument("AppProfile '" + app.name + "': " +
                                    what);
    };
    if (app.phases.empty())
        fail("phases is empty; an app needs at least one phase");
    if (app.phases.size() > SyntheticTrace::kMaxPhases)
        fail("phases has " + std::to_string(app.phases.size()) +
             " entries, above the " +
             std::to_string(SyntheticTrace::kMaxPhases) +
             " that fit the packed PC");
    for (size_t i = 0; i < app.phases.size(); ++i) {
        const PatternPhase &ph = app.phases[i];
        const std::string at = "phase " + std::to_string(i) + " ";
        if (ph.footprintBytes < kLineBytes)
            fail(at + "footprintBytes " +
                 std::to_string(ph.footprintBytes) +
                 " is below one 64-byte line");
        if (ph.kind == PatternKind::SpatialRegion &&
            ph.footprintBytes < 2048)
            fail(at + "footprintBytes " +
                 std::to_string(ph.footprintBytes) +
                 " is below one 2048-byte spatial region");
        if (ph.footprintBytes > SyntheticTrace::kMaxFootprintBytes)
            fail(at + "footprintBytes " +
                 std::to_string(ph.footprintBytes) + " is above " +
                 std::to_string(SyntheticTrace::kMaxFootprintBytes) +
                 " (4 GiB - 64), the packed address range");
        if (ph.numStreams > SyntheticTrace::kMaxStreams)
            fail(at + "numStreams " + std::to_string(ph.numStreams) +
                 " is above " +
                 std::to_string(SyntheticTrace::kMaxStreams) +
                 ", the stream PCs that fit one phase's PC window");
    }
    return app;
}

} // namespace

std::string
toString(PatternKind kind)
{
    switch (kind) {
      case PatternKind::Streaming: return "streaming";
      case PatternKind::Strided: return "strided";
      case PatternKind::PointerChase: return "pointer-chase";
      case PatternKind::SpatialRegion: return "spatial-region";
      case PatternKind::Random: return "random";
    }
    return "?";
}

SyntheticTrace::PhaseDraws::PhaseDraws(const PatternPhase &ph)
    : branch(Rng::chanceThreshold(ph.branchFraction)),
      branchOrMem(
          Rng::chanceThreshold(ph.branchFraction + ph.memFraction)),
      mispredict(Rng::chanceThreshold(ph.mispredictRate)),
      store(Rng::chanceThreshold(ph.storeFraction)),
      chaseSerial(Rng::chanceThreshold(ph.chaseSerialFrac)),
      lines(ph.footprintBytes / kLineBytes),
      // At least 1: only SpatialRegion phases, whose footprint the
      // profile check keeps at one region or more, draw from it.
      regions(std::max<uint64_t>(ph.footprintBytes / 2048, 1)),
      bytes(ph.footprintBytes)
{
}

SyntheticTrace::SyntheticTrace(AppProfile profile)
    : profile_(std::move(profile)), rng_(profile_.seed),
      draws_(checkedProfile(profile_).phases.front())
{
    // Give every app a distinct, stable data segment so that traces of
    // different apps never alias in a shared cache.
    appBase_ = (mix64(profile_.seed ^ 0xA5A5A5A5ull) & 0x3FFFull) << 32;
    enterPhase(0);
}

void
SyntheticTrace::reset()
{
    rng_.reseed(profile_.seed);
    enterPhase(0);
}

void
SyntheticTrace::enterPhase(size_t idx)
{
    phaseIdx_ = idx;
    instrInPhase_ = 0;
    const PatternPhase &ph = profile_.phases[idx];
    draws_ = PhaseDraws(ph);

    phasePc_ = idx << kPhasePcShift;
    const int n = std::max(ph.numStreams, 1);
    streams_.assign(n, Stream{});
    for (int i = 0; i < n; ++i) {
        streams_[i].pcOffset =
            phasePc_ + static_cast<uint64_t>(i) * kStreamPcStride;
        streams_[i].cursor = rng_.below(draws_.lines) * kLineBytes;
        streams_[i].remaining = 0;
    }
    rrStream_ = 0;
    chaseCursor_ = rng_.below(draws_.lines) * kLineBytes;

    // Stable per-phase footprint with 12-20 of 32 lines present.
    regionFootprint_ = 0;
    const int bits = 12 + static_cast<int>(rng_.below(9));
    while (__builtin_popcount(regionFootprint_) < bits)
        regionFootprint_ |= 1u << rng_.below(32);
    regionBase_ = 0;
    regionPos_ = 32; // force a new region on first access
    repeatLine_ = 0;
    repeatLeft_ = 0;
    lastStream_ = 0;
}

uint64_t
SyntheticTrace::nextAddress(bool &depends_on_prev)
{
    const PatternPhase &ph = profile_.phases[phaseIdx_];
    depends_on_prev = false;

    // Intra-line spatial locality: revisit the current line for
    // accessesPerLine accesses before the pattern advances. Repeat
    // accesses land on different elements within the same 64B line.
    if (repeatLeft_ > 0) {
        --repeatLeft_;
        return repeatLine_ + rng_.below(kLineBytes / 8) * 8;
    }

    uint64_t offset = 0;
    switch (ph.kind) {
      case PatternKind::Streaming: {
        lastStream_ = rrStream_;
        Stream &s = streams_[rrStream_];
        rrStream_ = (rrStream_ + 1) % streams_.size();
        if (s.remaining == 0) {
            s.cursor = rng_.below(draws_.lines) * kLineBytes;
            // 32KB-128KB runs: streaming kernels sweep long arrays,
            // so deep prefetch lookahead rarely overshoots.
            s.remaining = 512 + rng_.below(1536);
        }
        // (cursor + 64) % footprint: the cursor is below the
        // footprint, which is at least one line.
        s.cursor += kLineBytes;
        if (s.cursor >= ph.footprintBytes)
            s.cursor -= ph.footprintBytes;
        --s.remaining;
        offset = s.cursor;
        break;
      }
      case PatternKind::Strided: {
        lastStream_ = rrStream_;
        Stream &s = streams_[rrStream_];
        rrStream_ = (rrStream_ + 1) % streams_.size();
        if (s.remaining == 0) {
            s.cursor = rng_.below(draws_.lines) * kLineBytes;
            s.remaining = 128 + rng_.below(384); // long strided walks
        }
        // Unsigned, so a stride near the int64 range wraps instead of
        // overflowing; the sum mod 2^64 is the signed one's bits.
        s.cursor = draws_.bytes.reduce(
            s.cursor + static_cast<uint64_t>(ph.strideBytes));
        --s.remaining;
        offset = s.cursor;
        break;
      }
      case PatternKind::PointerChase: {
        offset = chaseCursor_;
        // Fresh random successor every advance: iterating a fixed
        // hash function would trap the walk in a ~sqrt(N) cycle that
        // fits in cache and fakes locality the pattern must not have.
        chaseCursor_ = rng_.below(draws_.lines) * kLineBytes;
        depends_on_prev = rng_.chance(draws_.chaseSerial);
        break;
      }
      case PatternKind::SpatialRegion: {
        // 2KB regions, 32 lines; visit the lines set in the footprint.
        for (;;) {
            if (regionPos_ >= 32) {
                regionBase_ = rng_.below(draws_.regions) * 2048;
                regionPos_ = 0;
            }
            const int line = regionPos_++;
            if (regionFootprint_ & (1u << line)) {
                offset = regionBase_ +
                    static_cast<uint64_t>(line) * kLineBytes;
                break;
            }
        }
        break;
      }
      case PatternKind::Random:
        offset = rng_.below(draws_.lines) * kLineBytes;
        break;
    }

    repeatLine_ = lineAddr(offset);
    repeatLeft_ = ph.accessesPerLine - 1;
    return offset;
}

PackedRecord
SyntheticTrace::nextWord()
{
    const PatternPhase &ph = profile_.phases[phaseIdx_];
    uint64_t w = 0;

    // One 53-bit draw against both cumulative fractions: the integer
    // form of uniform() < branchFraction (+ memFraction).
    const uint64_t r = rng_.next64() >> 11;
    if (r < draws_.branch) {
        w = (phasePc_ + 0x8000 + rng_.below(16) * 8) | PackedRecord::kBranch;
        if (rng_.chance(draws_.mispredict))
            w |= PackedRecord::kMispredicted;
    } else if (r < draws_.branchOrMem) {
        bool depends = false;
        w = nextAddress(depends) << PackedRecord::kAddrShift;
        if (depends)
            w |= PackedRecord::kDependsOnPrevLoad;
        w |= rng_.chance(draws_.store) ? PackedRecord::kStore
                                       : PackedRecord::kLoad;
        // The PC of a memory op is the PC of the stream that issued it;
        // pointer chases and randoms use a phase-stable load PC.
        switch (ph.kind) {
          case PatternKind::Streaming:
          case PatternKind::Strided:
            w |= streams_[lastStream_].pcOffset;
            break;
          default:
            w |= phasePc_ + 0x4000;
            break;
        }
    } else {
        w = phasePc_ + 0xC000 + rng_.below(32) * 4;
    }

    ++instrInPhase_;
    if (instrInPhase_ >= ph.lengthInstrs) {
        size_t next_phase = phaseIdx_ + 1;
        if (next_phase >= profile_.phases.size())
            next_phase = profile_.loopPhases ? 0 : phaseIdx_;
        if (next_phase != phaseIdx_) {
            enterPhase(next_phase);
        } else {
            instrInPhase_ = 0;
        }
    }
    return PackedRecord{w};
}

TraceRecord
SyntheticTrace::next()
{
    return nextWord().unpack(appBase_);
}

std::unique_ptr<TraceSource>
makePhaseShuffledTrace(const AppProfile &app, uint64_t shuffle_seed)
{
    AppProfile shuffled = app;
    shuffled.name = app.name + "_dyn";
    shuffled.seed = app.seed ^ (shuffle_seed * 0x9E3779B97F4A7C15ull);

    // Replay the phases twice, in a seed-determined order, with half
    // the length: the same program content but more phase changes.
    std::vector<PatternPhase> phases;
    Rng rng(shuffled.seed);
    for (int rep = 0; rep < 2; ++rep) {
        std::vector<PatternPhase> block = app.phases;
        for (size_t i = block.size(); i > 1; --i)
            std::swap(block[i - 1], block[rng.below(i)]);
        for (auto &ph : block) {
            ph.lengthInstrs = std::max<uint64_t>(ph.lengthInstrs / 2, 1);
            phases.push_back(ph);
        }
    }
    shuffled.phases = std::move(phases);
    return std::make_unique<SyntheticTrace>(std::move(shuffled));
}

} // namespace mab
