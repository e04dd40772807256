#include "smt/thread_source.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace mab {

namespace {

/** Reject a dramLatency whose DRAM spread would overflow a uint32_t
 *  latency: the only latency limit left, since the 16-bit uop word
 *  stores no latency. */
const SmtAppParams &
checkedParams(const SmtAppParams &params)
{
    constexpr uint32_t kMaxDram = std::numeric_limits<uint32_t>::max() -
        (PackedUop::kDramSpread - 1);
    if (params.dramLatency > kMaxDram)
        throw std::invalid_argument(
            "SmtAppParams '" + params.name + "': dramLatency " +
            std::to_string(params.dramLatency) + " is above " +
            std::to_string(kMaxDram) +
            ", where the 63 cycles of DRAM spread overflow a uint32_t");
    return params;
}

} // namespace

UopDecoder::UopDecoder(const SmtAppParams &params)
{
    const auto make = [](UopKind kind, uint32_t exec, uint32_t drain,
                         bool mispredicted) {
        Uop uop;
        uop.kind = kind;
        uop.execLatency = exec;
        uop.drainLatency = drain;
        uop.mispredicted = mispredicted;
        return uop;
    };
    table_.fill(make(UopKind::IntAlu, 1, 0, false));
    table_[PackedUop::kFpAlu] = make(UopKind::FpAlu, 4, 0, false);
    table_[PackedUop::kLoadL1] = make(UopKind::Load, 4, 0, false);
    table_[PackedUop::kLoadL2] =
        make(UopKind::Load, params.l2Latency, 0, false);
    table_[PackedUop::kLoadDram] =
        make(UopKind::Load, params.dramLatency, 0, false);
    table_[PackedUop::kStoreL2] =
        make(UopKind::Store, 1, params.l2Latency, false);
    table_[PackedUop::kStoreDram] =
        make(UopKind::Store, 1, params.dramLatency, false);
    table_[PackedUop::kBranch] = make(UopKind::Branch, 1, 0, false);
    table_[PackedUop::kBranchMispredicted] =
        make(UopKind::Branch, 1, 0, true);
}

UopGen::UopGen(const SmtAppParams &params, uint64_t seed)
    : params_(checkedParams(params)), seed_(seed), rng_(seed),
      // One uniform() picks the op class against running sums of the
      // class fractions; each sum is formed left to right in double,
      // the roundings of a running `acc +=`.
      loadT_(Rng::chanceThreshold(params.loadFrac)),
      storeT_(Rng::chanceThreshold(params.loadFrac + params.storeFrac)),
      branchT_(Rng::chanceThreshold(params.loadFrac + params.storeFrac +
                                    params.branchFrac)),
      fpT_(Rng::chanceThreshold(params.loadFrac + params.storeFrac +
                                params.branchFrac + params.fpFrac)),
      l1MissT_(Rng::chanceThreshold(params.l1MissRate)),
      dramT_(Rng::chanceThreshold(params.dramRate)),
      drainDramT_(Rng::chanceThreshold(params.storeDrainDramRate)),
      mispredictT_(Rng::chanceThreshold(params.mispredictRate)),
      depT_(Rng::chanceThreshold(params.depProb)),
      depDistanceT_(Rng::chanceThreshold(1.0 / params.depMeanDistance))
{
}

PackedUop
UopGen::nextWord()
{
    uint16_t w = PackedUop::kIntAlu; // past every class fraction
    const uint64_t r = rng_.next64() >> 11; // uniform() as 53 bits
    if (r < loadT_) {
        if (rng_.chance(l1MissT_)) {
            if (rng_.chance(dramT_)) {
                // Spread DRAM latencies to model bank/queue variance.
                w = static_cast<uint16_t>(
                    PackedUop::kLoadDram |
                    rng_.below(PackedUop::kDramSpread)
                        << PackedUop::kSpreadShift);
            } else {
                w = PackedUop::kLoadL2;
            }
        } else {
            w = PackedUop::kLoadL1;
        }
    } else if (r < storeT_) {
        w = rng_.chance(drainDramT_) ? PackedUop::kStoreDram
                                     : PackedUop::kStoreL2;
    } else if (r < branchT_) {
        w = rng_.chance(mispredictT_) ? PackedUop::kBranchMispredicted
                                      : PackedUop::kBranch;
    } else if (r < fpT_) {
        w = PackedUop::kFpAlu;
    }

    if (rng_.chance(depT_)) {
        const uint64_t d =
            1 + rng_.geometricChance(depDistanceT_, kDepGeometricCap);
        w = static_cast<uint16_t>(w | d << PackedUop::kDepShift);
    }
    return PackedUop{w};
}

template class ChunkedStream<PackedUop, UopGen>;

UopStream::UopStream(const SmtAppParams &params, uint64_t seed)
    : ChunkedStream(UopGen(params, seed), kMaxChunks * kChunkWords)
{
}

std::string
smtParamsFingerprint(const SmtAppParams &p)
{
    std::string key = p.name;
    key += '|';
    const auto bits = [&key](double v) {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          std::bit_cast<uint64_t>(v)));
        key += buf;
        key += ',';
    };
    bits(p.loadFrac);
    bits(p.storeFrac);
    bits(p.branchFrac);
    bits(p.fpFrac);
    bits(p.mispredictRate);
    bits(p.l1MissRate);
    bits(p.dramRate);
    bits(p.depProb);
    bits(p.storeDrainDramRate);
    key += std::to_string(p.l2Latency);
    key += ',';
    key += std::to_string(p.dramLatency);
    key += ',';
    key += std::to_string(p.depMeanDistance);
    return key;
}

std::shared_ptr<UopStream>
acquireUopStream(const SmtAppParams &params, uint64_t seed)
{
    std::string key = "uops:";
    key += smtParamsFingerprint(params);
    key += '#';
    key += std::to_string(seed);
    auto item = TraceArena::global().acquire(key, [&] {
        return std::make_shared<UopStream>(params, seed);
    });
    return std::static_pointer_cast<UopStream>(item);
}

ThreadSource::ThreadSource(const SmtAppParams &params, uint64_t seed)
    : gen_(params, seed), decoder_(gen_.params())
{
}

void
ThreadSource::attachStream(std::shared_ptr<UopStream> stream)
{
    stream_ = std::move(stream);
    chunk_ = nullptr;
    pos_ = 0;
    chunkEnd_ = 0;
}

void
ThreadSource::reset()
{
    chunk_ = nullptr;
    pos_ = 0;
    chunkEnd_ = 0;
    if (!stream_)
        gen_.reset();
}

PackedUop
ThreadSource::nextWordSlow()
{
    if (!stream_)
        return gen_.nextWord();
    const uint64_t idx = pos_ >> UopStream::kChunkShift;
    chunk_ = stream_->chunk(idx);
    chunkEnd_ = (idx << UopStream::kChunkShift) + stream_->chunkLength(idx);
    return chunk_[pos_++ & (UopStream::kChunkWords - 1)];
}

namespace {

SmtAppParams
makeApp(const std::string &name, double load, double store,
        double branch, double fp, double mpred, double l1miss,
        double dram, double dep_prob, int dep_dist,
        double store_drain = 0.05)
{
    SmtAppParams p;
    p.name = name;
    p.loadFrac = load;
    p.storeFrac = store;
    p.branchFrac = branch;
    p.fpFrac = fp;
    p.mispredictRate = mpred;
    p.l1MissRate = l1miss;
    p.dramRate = dram;
    p.depProb = dep_prob;
    p.depMeanDistance = dep_dist;
    p.storeDrainDramRate = store_drain;
    return p;
}

} // namespace

const std::vector<SmtAppParams> &
smtAppCatalog()
{
    // 22 SPEC17-like profiles. The first 10 form the tune set.
    // Parameters qualitatively track the well-known behaviour of each
    // application: lbm = store/DRAM heavy (SQ pressure), mcf =
    // pointer-chasing low ILP, exchange2 = branchy compute, etc.
    static const std::vector<SmtAppParams> catalog = {
        makeApp("gcc", 0.26, 0.12, 0.20, 0.02, 0.020, 0.06, 0.25,
                0.55, 6),
        // lbm: read streams mostly covered by hardware prefetching,
        // write streams miss and drain slowly — it aggressively
        // consumes SQ entries (Section 3.3 / SecSMT observation).
        makeApp("lbm", 0.24, 0.26, 0.04, 0.16, 0.002, 0.06, 0.50,
                0.35, 14, 0.70),
        makeApp("mcf", 0.32, 0.08, 0.18, 0.00, 0.035, 0.16, 0.60,
                0.70, 3),
        makeApp("cactuBSSN", 0.28, 0.12, 0.03, 0.25, 0.002, 0.10,
                0.45, 0.45, 14),
        makeApp("perlbench", 0.26, 0.12, 0.18, 0.01, 0.015, 0.03,
                0.15, 0.55, 6),
        makeApp("bwaves", 0.30, 0.10, 0.04, 0.24, 0.003, 0.12, 0.55,
                0.40, 16),
        makeApp("namd", 0.24, 0.10, 0.04, 0.30, 0.003, 0.03, 0.15,
                0.40, 18),
        makeApp("parest", 0.27, 0.10, 0.06, 0.22, 0.005, 0.06, 0.30,
                0.45, 12),
        makeApp("povray", 0.22, 0.09, 0.12, 0.20, 0.010, 0.01, 0.05,
                0.50, 10),
        makeApp("wrf", 0.26, 0.11, 0.05, 0.24, 0.004, 0.08, 0.40,
                0.45, 14),
        makeApp("blender", 0.24, 0.10, 0.10, 0.16, 0.010, 0.04, 0.20,
                0.50, 10),
        makeApp("cam4", 0.25, 0.11, 0.07, 0.22, 0.006, 0.07, 0.35,
                0.45, 12),
        makeApp("imagick", 0.23, 0.10, 0.05, 0.26, 0.003, 0.02, 0.10,
                0.35, 20),
        makeApp("nab", 0.24, 0.09, 0.07, 0.24, 0.005, 0.04, 0.20,
                0.45, 14),
        makeApp("fotonik3d", 0.28, 0.16, 0.03, 0.22, 0.002, 0.08,
                0.55, 0.40, 16, 0.45),
        makeApp("roms", 0.28, 0.11, 0.05, 0.23, 0.004, 0.10, 0.45,
                0.40, 14),
        makeApp("x264", 0.24, 0.10, 0.08, 0.14, 0.008, 0.03, 0.15,
                0.50, 10),
        makeApp("deepsjeng", 0.24, 0.10, 0.16, 0.00, 0.025, 0.03,
                0.15, 0.60, 5),
        makeApp("leela", 0.24, 0.09, 0.16, 0.01, 0.030, 0.02, 0.10,
                0.60, 5),
        makeApp("exchange2", 0.18, 0.10, 0.22, 0.00, 0.012, 0.01,
                0.05, 0.55, 6),
        makeApp("xz", 0.27, 0.10, 0.14, 0.00, 0.020, 0.08, 0.40,
                0.60, 5),
        makeApp("xalancbmk", 0.28, 0.09, 0.18, 0.00, 0.020, 0.05,
                0.20, 0.60, 5),
    };
    return catalog;
}

const SmtAppParams &
smtAppByName(const std::string &name)
{
    for (const auto &app : smtAppCatalog()) {
        if (app.name == name)
            return app;
    }
    throw std::out_of_range("unknown SMT app: " + name);
}

std::vector<std::pair<std::string, std::string>>
smtMixes(size_t count, size_t apps_limit)
{
    const auto &catalog = smtAppCatalog();
    const size_t n = apps_limit == 0
        ? catalog.size()
        : std::min(apps_limit, catalog.size());
    std::vector<std::pair<std::string, std::string>> mixes;
    for (size_t i = 0; i < n && mixes.size() < count; ++i) {
        for (size_t j = i + 1; j < n && mixes.size() < count; ++j)
            mixes.emplace_back(catalog[i].name, catalog[j].name);
    }
    return mixes;
}

} // namespace mab
