#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "fuzz/domains.h"
#include "fuzz/shrink.h"
#include "sim/rng.h"
#include "smt/thread_source.h"
#include "trace/generator.h"

namespace mab::fuzz {

namespace {

// ---------------------------------------------------------------------
// Reference models: the double-valued generators the integer draws
// replaced, kept as they were (the Rng draws out of line, every
// probability a uniform() compare, every bound two divides).

/** Rng as it was before its draws moved inline. */
class ReferenceRng
{
  public:
    explicit ReferenceRng(uint64_t seed) { reseed(seed); }

    void reseed(uint64_t seed);
    uint64_t next64();
    double uniform();
    uint64_t below(uint64_t bound);
    bool bernoulli(double p) { return uniform() < p; }
    uint64_t geometric(double p, uint64_t cap);

  private:
    uint64_t s_[4];
};

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

void
ReferenceRng::reseed(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
    // xoshiro must not be seeded with the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9E3779B97F4A7C15ull;
}

uint64_t
ReferenceRng::next64()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
ReferenceRng::uniform()
{
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

uint64_t
ReferenceRng::below(uint64_t bound)
{
    // Rejection sampling: draw until the value falls inside the largest
    // multiple of bound that fits in 64 bits.
    const uint64_t threshold = -bound % bound;
    for (;;) {
        const uint64_t r = next64();
        if (r >= threshold)
            return r % bound;
    }
}

uint64_t
ReferenceRng::geometric(double p, uint64_t cap)
{
    if (p >= 1.0)
        return 0;
    uint64_t n = 0;
    while (n < cap && !bernoulli(p))
        ++n;
    return n;
}

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

/** SyntheticTrace as it was: next(), nextAddress() and enterPhase()
 *  over the reference Rng, producing unpacked TraceRecords. */
class ReferenceTrace
{
  public:
    static constexpr uint64_t kCodeBase = SyntheticTrace::kCodeBase;
    static constexpr unsigned kPhasePcShift = SyntheticTrace::kPhasePcShift;
    static constexpr uint64_t kStreamPcStride =
        SyntheticTrace::kStreamPcStride;

    explicit ReferenceTrace(AppProfile profile)
        : profile_(std::move(profile)), rng_(profile_.seed)
    {
        appBase_ = (mix64(profile_.seed ^ 0xA5A5A5A5ull) & 0x3FFFull) << 32;
        enterPhase(0);
    }

    void
    reset()
    {
        rng_.reseed(profile_.seed);
        enterPhase(0);
    }

    TraceRecord next();

  private:
    struct Stream
    {
        uint64_t pc = 0;
        uint64_t cursor = 0;
        uint64_t remaining = 0;
    };

    void enterPhase(size_t idx);
    uint64_t nextAddress(bool &depends_on_prev);

    AppProfile profile_;
    ReferenceRng rng_;
    size_t phaseIdx_ = 0;
    uint64_t instrInPhase_ = 0;
    uint64_t appBase_ = 0;
    std::vector<Stream> streams_;
    size_t rrStream_ = 0;
    uint64_t chaseCursor_ = 0;
    uint64_t repeatLine_ = 0;
    int repeatLeft_ = 0;
    size_t lastStream_ = 0;
    uint32_t regionFootprint_ = 0;
    uint64_t regionBase_ = 0;
    int regionPos_ = 0;
};

void
ReferenceTrace::enterPhase(size_t idx)
{
    phaseIdx_ = idx;
    instrInPhase_ = 0;
    const PatternPhase &ph = profile_.phases[idx];

    const uint64_t pc_base = kCodeBase + (idx << kPhasePcShift);
    const int n = std::max(ph.numStreams, 1);
    streams_.assign(n, Stream{});
    for (int i = 0; i < n; ++i) {
        streams_[i].pc =
            pc_base + static_cast<uint64_t>(i) * kStreamPcStride;
        streams_[i].cursor = rng_.below(ph.footprintBytes / kLineBytes) *
            kLineBytes;
        streams_[i].remaining = 0;
    }
    rrStream_ = 0;
    chaseCursor_ = rng_.below(ph.footprintBytes / kLineBytes) * kLineBytes;

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
ReferenceTrace::nextAddress(bool &depends_on_prev)
{
    const PatternPhase &ph = profile_.phases[phaseIdx_];
    depends_on_prev = false;

    if (repeatLeft_ > 0) {
        --repeatLeft_;
        return repeatLine_ + rng_.below(kLineBytes / 8) * 8;
    }

    const uint64_t footprint_lines = ph.footprintBytes / kLineBytes;
    uint64_t addr = appBase_;

    switch (ph.kind) {
      case PatternKind::Streaming: {
        lastStream_ = rrStream_;
        Stream &s = streams_[rrStream_];
        rrStream_ = (rrStream_ + 1) % streams_.size();
        if (s.remaining == 0) {
            s.cursor = rng_.below(footprint_lines) * kLineBytes;
            s.remaining = 512 + rng_.below(1536);
        }
        s.cursor = (s.cursor + kLineBytes) % ph.footprintBytes;
        --s.remaining;
        addr = appBase_ + s.cursor;
        break;
      }
      case PatternKind::Strided: {
        lastStream_ = rrStream_;
        Stream &s = streams_[rrStream_];
        rrStream_ = (rrStream_ + 1) % streams_.size();
        if (s.remaining == 0) {
            s.cursor = rng_.below(footprint_lines) * kLineBytes;
            s.remaining = 128 + rng_.below(384);
        }
        s.cursor = static_cast<uint64_t>(
            static_cast<int64_t>(s.cursor) + ph.strideBytes) %
            ph.footprintBytes;
        --s.remaining;
        addr = appBase_ + s.cursor;
        break;
      }
      case PatternKind::PointerChase: {
        addr = appBase_ + chaseCursor_;
        chaseCursor_ = rng_.below(footprint_lines) * kLineBytes;
        depends_on_prev = rng_.bernoulli(ph.chaseSerialFrac);
        break;
      }
      case PatternKind::SpatialRegion: {
        for (;;) {
            if (regionPos_ >= 32) {
                regionBase_ = (rng_.below(ph.footprintBytes / 2048)) *
                    2048;
                regionPos_ = 0;
            }
            const int line = regionPos_++;
            if (regionFootprint_ & (1u << line)) {
                addr = appBase_ + regionBase_ +
                    static_cast<uint64_t>(line) * kLineBytes;
                break;
            }
        }
        break;
      }
      case PatternKind::Random:
        addr = appBase_ + rng_.below(footprint_lines) * kLineBytes;
        break;
    }

    repeatLine_ = lineAddr(addr);
    repeatLeft_ = ph.accessesPerLine - 1;
    return addr;
}

TraceRecord
ReferenceTrace::next()
{
    const PatternPhase &ph = profile_.phases[phaseIdx_];
    TraceRecord rec;

    const double r = rng_.uniform();
    if (r < ph.branchFraction) {
        rec.pc = kCodeBase + (phaseIdx_ << kPhasePcShift) + 0x8000 +
            rng_.below(16) * 8;
        rec.isBranch = true;
        rec.mispredicted = rng_.bernoulli(ph.mispredictRate);
    } else if (r < ph.branchFraction + ph.memFraction) {
        bool depends = false;
        const uint64_t addr = nextAddress(depends);
        rec.addr = addr;
        rec.dependsOnPrevLoad = depends;
        if (rng_.bernoulli(ph.storeFraction)) {
            rec.isStore = true;
        } else {
            rec.isLoad = true;
        }
        switch (ph.kind) {
          case PatternKind::Streaming:
          case PatternKind::Strided:
            rec.pc = streams_[lastStream_].pc;
            break;
          default:
            rec.pc = kCodeBase + (phaseIdx_ << kPhasePcShift) + 0x4000;
            break;
        }
    } else {
        rec.pc = kCodeBase + (phaseIdx_ << kPhasePcShift) + 0xC000 +
            rng_.below(32) * 4;
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
    return rec;
}

/** UopGen::next() as it was: one full Uop per call. */
class ReferenceUopGen
{
  public:
    ReferenceUopGen(const SmtAppParams &params, uint64_t seed)
        : params_(params), rng_(seed)
    {
    }

    Uop next();

  private:
    SmtAppParams params_;
    ReferenceRng rng_;
};

Uop
ReferenceUopGen::next()
{
    constexpr uint32_t kDramSpread = 64;
    Uop uop;
    const double r = rng_.uniform();
    double acc = params_.loadFrac;
    if (r < acc) {
        uop.kind = UopKind::Load;
        if (rng_.bernoulli(params_.l1MissRate)) {
            if (rng_.bernoulli(params_.dramRate)) {
                uop.execLatency = params_.dramLatency +
                    static_cast<uint32_t>(rng_.below(kDramSpread));
            } else {
                uop.execLatency = params_.l2Latency;
            }
        } else {
            uop.execLatency = 4;
        }
    } else if (r < (acc += params_.storeFrac)) {
        uop.kind = UopKind::Store;
        uop.execLatency = 1;
        uop.drainLatency =
            rng_.bernoulli(params_.storeDrainDramRate)
                ? params_.dramLatency
                : params_.l2Latency;
    } else if (r < (acc += params_.branchFrac)) {
        uop.kind = UopKind::Branch;
        uop.execLatency = 1;
        uop.mispredicted = rng_.bernoulli(params_.mispredictRate);
    } else if (r < (acc += params_.fpFrac)) {
        uop.kind = UopKind::FpAlu;
        uop.execLatency = 4;
    } else {
        uop.kind = UopKind::IntAlu;
        uop.execLatency = 1;
    }

    if (rng_.bernoulli(params_.depProb)) {
        const uint64_t d = 1 +
            rng_.geometric(1.0 / params_.depMeanDistance, 62);
        uop.depDistance = static_cast<uint16_t>(d);
    }
    return uop;
}

// ---------------------------------------------------------------------
// Cases

/** Planted faults for --self-test, each in the integer form of a draw
 *  that the domain feeds the production primitives. */
enum class GenerateMutation
{
    None,
    /** chanceThreshold rounds p * 2^53 down instead of up. */
    ThresholdFloor,
    /** Rng::Bound keeps only the high 64 bits of its reciprocal. */
    ReciprocalHighHalf,
    /** The dependency-distance geometric is capped at 61, not 62. */
    GeometricCap61,
};

const char *
toString(GenerateMutation m)
{
    switch (m) {
      case GenerateMutation::None: return "None";
      case GenerateMutation::ThresholdFloor: return "ThresholdFloor";
      case GenerateMutation::ReciprocalHighHalf:
        return "ReciprocalHighHalf";
      case GenerateMutation::GeometricCap61: return "GeometricCap61";
    }
    return "?";
}

/**
 * A generator case: a random profile, random SMT app params, and how
 * many records, uops and twin-stream draws per primitive to compare.
 */
struct GenerateCase
{
    AppProfile app;
    SmtAppParams uops;
    uint64_t uopSeed = 1;
    uint64_t records = 1;
    uint64_t uopCount = 1;
    uint64_t draws = 1;
};

/** A probability: mostly from [0, 1), else an edge of the threshold
 *  rule (0, 1, the smallest denormal, 2^-53, 1 - 2^-53). */
double
genProb(Rng &rng, double hi)
{
    static const double kEdges[] = {
        0.0, 1.0, std::numeric_limits<double>::denorm_min(), 0x1.0p-53,
        1.0 - 0x1.0p-53};
    if (rng.below(4) == 0)
        return kEdges[rng.below(std::size(kEdges))];
    return rng.uniform(0.0, hi);
}

GenerateCase
genGenerateCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 160));
    GenerateCase c;
    c.app.name = "fuzz-gen";
    c.app.seed = rng.next64();
    c.app.loopPhases = rng.bernoulli(0.7);
    const int phases = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < phases; ++i) {
        PatternPhase ph;
        ph.kind = static_cast<PatternKind>(rng.below(5));
        ph.memFraction = genProb(rng, 0.7);
        ph.storeFraction = genProb(rng, 1.0);
        ph.branchFraction = genProb(rng, 0.4);
        ph.mispredictRate = genProb(rng, 0.2);
        ph.chaseSerialFrac = genProb(rng, 1.0);
        // Line counts are mostly not powers of two, so the footprint
        // bounds take the reciprocal path; a few sit at the largest
        // footprint, or between whole lines.
        uint64_t lines = 32 + rng.below(1 << 20);
        if (rng.below(16) == 0)
            lines = SyntheticTrace::kMaxFootprintBytes / kLineBytes;
        ph.footprintBytes = lines * kLineBytes;
        if (rng.below(4) == 0 &&
            ph.footprintBytes < SyntheticTrace::kMaxFootprintBytes)
            ph.footprintBytes += 1 + rng.below(kLineBytes - 1);
        ph.strideBytes = rng.bernoulli(0.5) ? 64 * rng.range(-64, 64)
                                            : rng.range(-5000, 5000);
        ph.numStreams = 1 + static_cast<int>(rng.below(8));
        ph.accessesPerLine = 1 + static_cast<int>(rng.below(8));
        ph.lengthInstrs = 1 + rng.below(4000);
        c.app.phases.push_back(ph);
    }

    SmtAppParams &p = c.uops;
    p.name = "fuzz-uops";
    p.loadFrac = genProb(rng, 0.5);
    p.storeFrac = genProb(rng, 0.4);
    p.branchFrac = genProb(rng, 0.4);
    p.fpFrac = genProb(rng, 0.4);
    p.mispredictRate = genProb(rng, 0.5);
    p.l1MissRate = genProb(rng, 1.0);
    p.dramRate = genProb(rng, 1.0);
    p.depProb = genProb(rng, 1.0);
    p.storeDrainDramRate = genProb(rng, 1.0);
    p.depMeanDistance = 1 + static_cast<int>(rng.below(200));
    constexpr uint32_t kMaxDram =
        std::numeric_limits<uint32_t>::max() - (PackedUop::kDramSpread - 1);
    p.l2Latency = rng.bernoulli(0.25)
        ? std::numeric_limits<uint32_t>::max() -
            static_cast<uint32_t>(rng.below(4))
        : 1 + static_cast<uint32_t>(rng.below(1 << 20));
    p.dramLatency = rng.bernoulli(0.25)
        ? kMaxDram - static_cast<uint32_t>(rng.below(4))
        : static_cast<uint32_t>(rng.below(1ull << 32) % (kMaxDram + 1ull));
    c.uopSeed = rng.next64();

    c.records = 500 + rng.below(12'000);
    c.uopCount = 500 + rng.below(12'000);
    c.draws = 64 + rng.below(1'000);
    return c;
}

std::string
formatGenerateCase(const GenerateCase &c)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "generate case: records=" << c.records << " uops=" << c.uopCount
       << " draws=" << c.draws << " app{seed=" << c.app.seed
       << " loop=" << c.app.loopPhases;
    for (const PatternPhase &ph : c.app.phases) {
        os << " [" << toString(ph.kind) << " mem=" << ph.memFraction
           << " st=" << ph.storeFraction << " br=" << ph.branchFraction
           << " mp=" << ph.mispredictRate << " chase=" << ph.chaseSerialFrac
           << " fp=" << ph.footprintBytes << " stride=" << ph.strideBytes
           << " streams=" << ph.numStreams << " apl=" << ph.accessesPerLine
           << " len=" << ph.lengthInstrs << ']';
    }
    const SmtAppParams &p = c.uops;
    os << "} uops{seed=" << c.uopSeed << " ld=" << p.loadFrac
       << " st=" << p.storeFrac << " br=" << p.branchFrac
       << " fp=" << p.fpFrac << " mp=" << p.mispredictRate
       << " l1m=" << p.l1MissRate << " dram=" << p.dramRate
       << " l2lat=" << p.l2Latency << " dramlat=" << p.dramLatency
       << " dep=" << p.depProb << '/' << p.depMeanDistance
       << " drain=" << p.storeDrainDramRate << '}';
    return os.str();
}

// ---------------------------------------------------------------------
// Draw-level diff: each probability and bound the case feeds the
// generators, through the production primitives (mutated when a
// fault is planted) and the reference draws on twin streams.

uint64_t
threshold(double p, GenerateMutation m)
{
    if (m == GenerateMutation::ThresholdFloor && p > 0.0 && p < 1.0)
        return static_cast<uint64_t>(std::floor(p * 0x1.0p53));
    return Rng::chanceThreshold(p);
}

Rng::Bound
bound(uint64_t n, GenerateMutation m)
{
    Rng::Bound b(n);
    if (m == GenerateMutation::ReciprocalHighHalf)
        b.recip = b.recip >> 64 << 64;
    return b;
}

std::string
hex(double p)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", p);
    return buf;
}

std::string
diffChance(double p, uint64_t draws, uint64_t seed, GenerateMutation m)
{
    const uint64_t t = threshold(p, m);
    for (const uint64_t k : {t - 1, t}) {
        if (k >= Rng::kChanceOne)
            continue;
        if ((k < t) != (static_cast<double>(k) * 0x1.0p-53 < p))
            return "chanceThreshold(" + hex(p) + ") = " + std::to_string(t) +
                " misjudges draw " + std::to_string(k);
    }
    Rng a(seed);
    ReferenceRng b(seed);
    for (uint64_t i = 0; i < draws; ++i) {
        if (a.chance(t) != b.bernoulli(p))
            return "chance(chanceThreshold(" + hex(p) + ")) differs from " +
                "bernoulli at draw " + std::to_string(i);
    }
    return "";
}

std::string
diffBelow(uint64_t n, uint64_t draws, uint64_t seed, GenerateMutation m)
{
    const Rng::Bound b = bound(n, m);
    const uint64_t all = ~uint64_t{0};
    for (const uint64_t x : {uint64_t{0}, n - 1, n, 2 * n - 1, b.threshold,
                             all, all - n}) {
        if (b.reduce(x) != x % n)
            return "Bound(" + std::to_string(n) + ").reduce(" +
                std::to_string(x) + ") = " + std::to_string(b.reduce(x)) +
                ", not " + std::to_string(x % n);
    }
    Rng a(seed);
    ReferenceRng r(seed);
    for (uint64_t i = 0; i < draws; ++i) {
        if (a.below(b) != r.below(n))
            return "below(Bound(" + std::to_string(n) +
                ")) differs from below at draw " + std::to_string(i);
    }
    return "";
}

std::string
diffGeometric(int meanDistance, uint64_t draws, uint64_t seed,
              GenerateMutation m)
{
    const double p = 1.0 / meanDistance;
    const uint64_t cap = m == GenerateMutation::GeometricCap61
        ? 61
        : UopGen::kDepGeometricCap;
    const uint64_t t = threshold(p, m);
    Rng a(seed);
    ReferenceRng b(seed);
    for (uint64_t i = 0; i < draws; ++i) {
        const uint64_t x = a.geometricChance(t, cap);
        const uint64_t y = b.geometric(p, 62);
        if (x != y)
            return "geometricChance for depMeanDistance " +
                std::to_string(meanDistance) + " gives " +
                std::to_string(x) + ", the reference " + std::to_string(y) +
                " at draw " + std::to_string(i);
    }
    return "";
}

std::string
diffDraws(const GenerateCase &c, GenerateMutation m)
{
    std::vector<double> probs;
    std::vector<uint64_t> bounds = {9, 16, 32, 8, 64, 384, 1536};
    for (const PatternPhase &ph : c.app.phases) {
        probs.insert(probs.end(),
                     {ph.branchFraction, ph.branchFraction + ph.memFraction,
                      ph.mispredictRate, ph.storeFraction,
                      ph.chaseSerialFrac});
        bounds.push_back(ph.footprintBytes / kLineBytes);
        bounds.push_back(ph.footprintBytes);
        if (ph.footprintBytes >= 2048)
            bounds.push_back(ph.footprintBytes / 2048);
    }
    const SmtAppParams &p = c.uops;
    double acc = p.loadFrac;
    probs.push_back(acc);
    probs.push_back(acc += p.storeFrac);
    probs.push_back(acc += p.branchFrac);
    probs.push_back(acc += p.fpFrac);
    probs.insert(probs.end(),
                 {p.l1MissRate, p.dramRate, p.storeDrainDramRate,
                  p.mispredictRate, p.depProb, 1.0 / p.depMeanDistance});

    uint64_t seed = c.app.seed;
    for (const double q : probs) {
        std::string err = diffChance(q, c.draws, seed++, m);
        if (!err.empty())
            return err;
    }
    for (const uint64_t n : bounds) {
        std::string err = diffBelow(n, c.draws, seed++, m);
        if (!err.empty())
            return err;
    }
    return diffGeometric(p.depMeanDistance, c.draws, seed, m);
}

// ---------------------------------------------------------------------
// Stream-level diff: the production generators against the reference
// models, record by record and uop by uop.

std::string
diffRecord(const TraceRecord &want, const TraceRecord &got, uint64_t i,
           const char *phase)
{
    const char *field = want.pc != got.pc       ? "pc"
        : want.addr != got.addr                 ? "addr"
        : want.isLoad != got.isLoad             ? "isLoad"
        : want.isStore != got.isStore           ? "isStore"
        : want.isBranch != got.isBranch         ? "isBranch"
        : want.mispredicted != got.mispredicted ? "mispredicted"
        : want.dependsOnPrevLoad != got.dependsOnPrevLoad
        ? "dependsOnPrevLoad"
        : nullptr;
    if (field == nullptr)
        return "";
    return std::string(phase) + " record " + std::to_string(i) + ": " +
        field + " differs from the reference generator";
}

/** The words nextWord() builds, decoded, then after reset() the
 *  records next() decodes, against the reference generator. */
std::string
diffTrace(const GenerateCase &c)
{
    SyntheticTrace gen(c.app);
    ReferenceTrace ref(c.app);
    for (uint64_t i = 0; i < c.records; ++i) {
        std::string err = diffRecord(
            ref.next(), gen.nextWord().unpack(gen.dataBase()), i, "fresh");
        if (!err.empty())
            return err;
    }
    gen.reset();
    ref.reset();
    for (uint64_t i = 0; i < c.records; ++i) {
        std::string err = diffRecord(ref.next(), gen.next(), i, "post-reset");
        if (!err.empty())
            return err;
    }
    return "";
}

std::string
diffUops(const GenerateCase &c)
{
    ReferenceUopGen ref(c.uops, c.uopSeed);
    ThreadSource live(c.uops, c.uopSeed);
    ThreadSource replay(c.uops, c.uopSeed);
    replay.attachStream(std::make_shared<UopStream>(c.uops, c.uopSeed));
    for (uint64_t i = 0; i < c.uopCount; ++i) {
        const Uop want = ref.next();
        for (const Uop &got : {live.next(), replay.next()}) {
            const char *field =
                want.kind != got.kind                 ? "kind"
                : want.execLatency != got.execLatency ? "execLatency"
                : want.drainLatency != got.drainLatency
                ? "drainLatency"
                : want.mispredicted != got.mispredicted ? "mispredicted"
                : want.depDistance != got.depDistance   ? "depDistance"
                                                        : nullptr;
            if (field != nullptr)
                return "uop " + std::to_string(i) + ": " + field +
                    " differs from the reference generator";
        }
    }
    return "";
}

std::string
diffGenerateCase(const GenerateCase &c, GenerateMutation m)
{
    std::string err = diffDraws(c, m);
    if (err.empty())
        err = diffTrace(c);
    if (err.empty())
        err = diffUops(c);
    return err;
}

/** Shrink a failing case: halve the record, uop and draw counts, then
 *  keep only the first or the last phase and default the uop params. */
GenerateCase
shrinkGenerateCase(const GenerateCase &c, GenerateMutation m)
{
    return shrinkCase(
        c,
        [m](const GenerateCase &t) {
            return !diffGenerateCase(t, m).empty();
        },
        {[](GenerateCase &t) { return halveAbove(t.records, 1); },
         [](GenerateCase &t) { return halveAbove(t.uopCount, 1); },
         [](GenerateCase &t) { return halveAbove(t.draws, 1); }},
        {[](GenerateCase &t) { t.app.phases.resize(1); },
         [](GenerateCase &t) {
             t.app.phases.erase(t.app.phases.begin(),
                                t.app.phases.end() - 1);
         },
         [](GenerateCase &t) {
             SmtAppParams p;
             p.name = t.uops.name;
             t.uops = p;
         }});
}

} // namespace

std::string
checkGenerate(uint64_t seed, bool shrink)
{
    const GenerateCase c = genGenerateCase(seed);
    std::string err = diffGenerateCase(c, GenerateMutation::None);
    if (err.empty())
        return err;
    err += " (" + formatGenerateCase(c) + ")";
    if (shrink)
        err += "\nminimized: " +
            formatGenerateCase(
                shrinkGenerateCase(c, GenerateMutation::None));
    return err;
}

std::string
describeGenerate(uint64_t seed)
{
    return formatGenerateCase(genGenerateCase(seed));
}

bool
selfTestGenerate(uint64_t seedBase, uint64_t lane, std::string &log)
{
    constexpr int kMaxSeeds = 100;
    // Every planted fault is in one draw, so the shrunk case keeps no
    // record or uop and only the draws up to the first divergence.
    constexpr uint64_t kMaxShrunkDraws = 256;
    bool ok = true;
    char line[200];
    for (const GenerateMutation m :
         {GenerateMutation::ThresholdFloor,
          GenerateMutation::ReciprocalHighHalf,
          GenerateMutation::GeometricCap61}) {
        bool caught = false;
        for (int i = 0; i < kMaxSeeds && !caught; ++i) {
            const GenerateCase c =
                genGenerateCase(subSeed(iterationSeed(seedBase, i), lane));
            if (diffGenerateCase(c, m).empty())
                continue;
            caught = true;
            const GenerateCase min = shrinkGenerateCase(c, m);
            std::snprintf(
                line, sizeof line,
                "mutant %-28s caught at seed #%d, shrunk %zu -> %zu "
                "phases, %llu -> %llu records, %llu -> %llu draws\n",
                toString(m), i, c.app.phases.size(), min.app.phases.size(),
                static_cast<unsigned long long>(c.records),
                static_cast<unsigned long long>(min.records),
                static_cast<unsigned long long>(c.draws),
                static_cast<unsigned long long>(min.draws));
            log += line;
            if (min.records > 1 || min.uopCount > 1 ||
                min.draws > kMaxShrunkDraws) {
                std::snprintf(line, sizeof line,
                              "  ERROR: shrunk repro keeps more than one "
                              "record or uop, or over %llu draws\n",
                              static_cast<unsigned long long>(
                                  kMaxShrunkDraws));
                log += line;
                ok = false;
            }
        }
        if (!caught) {
            std::snprintf(line, sizeof line,
                          "mutant %-28s NOT caught in %d seeds\n",
                          toString(m), kMaxSeeds);
            log += line;
            ok = false;
        }
    }
    return ok;
}

} // namespace mab::fuzz
