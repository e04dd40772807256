#include "sim/fuzz.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <sstream>

#include "core/swucb.h"
#include "core/ucb.h"
#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "prefetch/bingo.h"
#include "prefetch/ipcp.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
#include "prefetch/stride.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "trace/record.h"
#include "trace/replay.h"

namespace mab::fuzz {

uint64_t
subSeed(uint64_t seed, uint64_t lane)
{
    // splitmix64 over the (seed, lane) pair.
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (lane + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Cache differential
// ---------------------------------------------------------------------

const char *
toString(CacheOp::Kind kind)
{
    switch (kind) {
      case CacheOp::Kind::Lookup: return "lookup";
      case CacheOp::Kind::DemandFill: return "demandFill";
      case CacheOp::Kind::PrefetchFill: return "prefetchFill";
      case CacheOp::Kind::Invalidate: return "invalidate";
      case CacheOp::Kind::Contains: return "contains";
      case CacheOp::Kind::Clear: return "clear";
    }
    return "?";
}

std::string
formatCacheCase(const CacheCase &c)
{
    std::ostringstream os;
    os << "cache case: sizeBytes=" << c.config.sizeBytes
       << " ways=" << c.config.ways
       << " sets=" << c.config.sizeBytes / (kLineBytes * c.config.ways)
       << " ops=" << c.ops.size() << "\n";
    for (size_t i = 0; i < c.ops.size(); ++i) {
        const CacheOp &op = c.ops[i];
        os << "  [" << i << "] " << toString(op.kind) << " line=0x"
           << std::hex << op.line << std::dec << " cycle=" << op.cycle
           << "\n";
    }
    return os.str();
}

ReferenceCache::ReferenceCache(const CacheConfig &config)
    : config_(config)
{
    const uint64_t sets =
        config_.sizeBytes / (kLineBytes * config_.ways);
    sets_.assign(sets, std::vector<Line>(config_.ways));
}

uint64_t
ReferenceCache::setIndex(uint64_t line) const
{
    return (line / kLineBytes) & (sets_.size() - 1);
}

ReferenceCache::Line *
ReferenceCache::probe(uint64_t line)
{
    // Pass 1 of the textbook probe: scan the whole set for the tag.
    std::vector<Line> &set = sets_[setIndex(line)];
    for (Line &l : set) {
        if (l.valid && l.tag == line)
            return &l;
    }
    return nullptr;
}

const ReferenceCache::Line *
ReferenceCache::probe(uint64_t line) const
{
    return const_cast<ReferenceCache *>(this)->probe(line);
}

Cache::LookupResult
ReferenceCache::lookupDemand(uint64_t line, uint64_t cycle)
{
    Cache::LookupResult res;
    Line *l = probe(line);
    if (!l) {
        ++misses_;
        return res;
    }
    ++hits_;
    res.hit = true;
    res.readyCycle = l->readyCycle;
    res.inflight = l->readyCycle > cycle;
    if (l->prefetched && !l->used)
        res.prefetchFirstUse = true;
    l->used = true;
    l->lastUse = ++tick_;
    return res;
}

bool
ReferenceCache::contains(uint64_t line) const
{
    return probe(line) != nullptr;
}

Cache::EvictInfo
ReferenceCache::fill(uint64_t line, uint64_t readyCycle, bool prefetch)
{
    Cache::EvictInfo info;
    if (Line *present = probe(line)) {
        if (!prefetch)
            present->prefetched = false;
        return info;
    }

    std::vector<Line> &set = sets_[setIndex(line)];

    // Pass 2: first invalid way, in way order.
    Line *victim = nullptr;
    for (Line &l : set) {
        if (!l.valid) {
            victim = &l;
            break;
        }
    }
    // Pass 3: LRU among the valid lines (lowest lastUse; lastUse
    // values are unique, one per touch).
    if (!victim) {
        victim = &set[0];
        for (Line &l : set) {
            if (l.lastUse < victim->lastUse)
                victim = &l;
        }
    }

    if (victim->valid) {
        info.evictedValid = true;
        info.evictedLine = victim->tag;
        info.evictedUnusedPrefetch =
            victim->prefetched && !victim->used;
    }
    victim->tag = line;
    victim->valid = true;
    victim->readyCycle = readyCycle;
    victim->prefetched = prefetch;
    victim->used = false;
    victim->lastUse = ++tick_;
    return info;
}

void
ReferenceCache::invalidate(uint64_t line)
{
    if (Line *l = probe(line))
        l->valid = false;
}

void
ReferenceCache::clear()
{
    for (auto &set : sets_)
        std::fill(set.begin(), set.end(), Line{});
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
}

uint64_t
ReferenceCache::occupancy() const
{
    uint64_t count = 0;
    for (const auto &set : sets_) {
        for (const Line &l : set)
            count += l.valid;
    }
    return count;
}

std::string
ReferenceCache::checkInvariants() const
{
    const uint64_t capacity = sets_.size() * config_.ways;
    if (occupancy() > capacity)
        return "occupancy exceeds capacity";
    for (size_t s = 0; s < sets_.size(); ++s) {
        for (size_t a = 0; a < sets_[s].size(); ++a) {
            const Line &l = sets_[s][a];
            if (!l.valid)
                continue;
            if (setIndex(l.tag) != s)
                return "valid tag stored in the wrong set";
            for (size_t b = a + 1; b < sets_[s].size(); ++b) {
                if (sets_[s][b].valid && sets_[s][b].tag == l.tag)
                    return "duplicate valid tag within a set";
            }
        }
    }
    return "";
}

CacheModelFactory
optimizedCacheFactory()
{
    return [](const CacheConfig &cfg) {
        return std::make_unique<OptimizedCacheModel>(cfg);
    };
}

const char *
toString(CacheMutation m)
{
    switch (m) {
      case CacheMutation::DropRecencyUpdate:
        return "DropRecencyUpdate";
      case CacheMutation::KeepPrefetchTagOnDemandFill:
        return "KeepPrefetchTagOnDemandFill";
      case CacheMutation::EvictMostRecent: return "EvictMostRecent";
      case CacheMutation::IgnoreInvalidWays:
        return "IgnoreInvalidWays";
      case CacheMutation::ForgetInflightCycle:
        return "ForgetInflightCycle";
      case CacheMutation::RankSkewOnHit: return "RankSkewOnHit";
      case CacheMutation::PackedFlagAliasing:
        return "PackedFlagAliasing";
      case CacheMutation::SetIndexMaskOffByOne:
        return "SetIndexMaskOffByOne";
    }
    return "?";
}

std::vector<CacheMutation>
allCacheMutations()
{
    return {CacheMutation::DropRecencyUpdate,
            CacheMutation::KeepPrefetchTagOnDemandFill,
            CacheMutation::EvictMostRecent,
            CacheMutation::IgnoreInvalidWays,
            CacheMutation::ForgetInflightCycle,
            CacheMutation::RankSkewOnHit,
            CacheMutation::PackedFlagAliasing,
            CacheMutation::SetIndexMaskOffByOne};
}

namespace {

/**
 * An independent full cache model with one planted semantic fault.
 * Used only by the harness self-tests: diffCacheCase(case,
 * mutantCacheFactory(m)) must flag every mutation, proving that the
 * differential loop would notice the same class of bug in the real
 * single-pass probe.
 */
class MutantCache final : public CacheModel
{
  public:
    MutantCache(const CacheConfig &config, CacheMutation mutation)
        : mutation_(mutation), config_(config)
    {
        const uint64_t sets =
            config_.sizeBytes / (kLineBytes * config_.ways);
        sets_.assign(sets, std::vector<Line>(config_.ways));
    }

    Cache::LookupResult
    lookupDemand(uint64_t line, uint64_t cycle) override
    {
        Cache::LookupResult res;
        Line *l = probe(line);
        if (!l) {
            ++misses_;
            return res;
        }
        ++hits_;
        res.hit = true;
        if (mutation_ == CacheMutation::ForgetInflightCycle) {
            res.readyCycle = cycle; // bug: drops the fill latency
            res.inflight = false;
        } else {
            res.readyCycle = l->readyCycle;
            res.inflight = l->readyCycle > cycle;
        }
        if (l->prefetched && !l->used)
            res.prefetchFirstUse = true;
        l->used = true;
        if (mutation_ != CacheMutation::DropRecencyUpdate)
            l->lastUse = ++tick_;
        if (mutation_ == CacheMutation::RankSkewOnHit) {
            // Bug: the promotion also touches lane 0, as if the
            // stamp write landed one slot past its own way.
            sets_[setIndex(line)][0].lastUse = tick_;
        }
        return res;
    }

    bool contains(uint64_t line) const override
    {
        return const_cast<MutantCache *>(this)->probe(line) != nullptr;
    }

    Cache::EvictInfo
    fill(uint64_t line, uint64_t readyCycle, bool prefetch) override
    {
        Cache::EvictInfo info;
        if (Line *present = probe(line)) {
            const bool promote =
                mutation_ != CacheMutation::KeepPrefetchTagOnDemandFill;
            if (!prefetch && promote)
                present->prefetched = false;
            return info;
        }
        std::vector<Line> &set = sets_[setIndex(line)];
        Line *victim = nullptr;
        if (mutation_ == CacheMutation::IgnoreInvalidWays) {
            victim = &set[0]; // bug: never reuses invalidated ways
        } else {
            for (Line &l : set) {
                if (!l.valid) {
                    victim = &l;
                    break;
                }
            }
            if (!victim) {
                victim = &set[0];
                for (Line &l : set) {
                    const bool better =
                        mutation_ == CacheMutation::EvictMostRecent
                        ? l.lastUse > victim->lastUse
                        : l.lastUse < victim->lastUse;
                    if (better)
                        victim = &l;
                }
            }
        }
        if (victim->valid) {
            info.evictedValid = true;
            info.evictedLine = victim->tag;
            info.evictedUnusedPrefetch =
                victim->prefetched && !victim->used;
        }
        victim->tag = line;
        victim->valid = true;
        victim->readyCycle = readyCycle;
        victim->prefetched = prefetch;
        // Bug: the packed meta byte's used bit rides along with the
        // prefetched bit, so a prefetched line is born "used" and the
        // taxonomy (prefetchFirstUse / evictedUnusedPrefetch) dies.
        victim->used =
            prefetch && mutation_ == CacheMutation::PackedFlagAliasing;
        victim->lastUse = ++tick_;
        return info;
    }

    void invalidate(uint64_t line) override
    {
        if (Line *l = probe(line))
            l->valid = false;
    }

    void clear() override
    {
        for (auto &set : sets_)
            std::fill(set.begin(), set.end(), Line{});
        tick_ = 0;
        hits_ = 0;
        misses_ = 0;
    }

    uint64_t demandHits() const override { return hits_; }
    uint64_t demandMisses() const override { return misses_; }

    uint64_t occupancy() const override
    {
        uint64_t count = 0;
        for (const auto &set : sets_) {
            for (const Line &l : set)
                count += l.valid;
        }
        return count;
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t readyCycle = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool prefetched = false;
        bool used = false;
    };

    uint64_t setIndex(uint64_t line) const
    {
        if (mutation_ == CacheMutation::SetIndexMaskOffByOne &&
            sets_.size() >= 2) {
            // Bug: the mask is one short of the set count, collapsing
            // or aliasing sets (a no-op only in the 1-set geometry).
            return (line / kLineBytes) & (sets_.size() - 2);
        }
        return (line / kLineBytes) & (sets_.size() - 1);
    }

    Line *probe(uint64_t line)
    {
        for (Line &l : sets_[setIndex(line)]) {
            if (l.valid && l.tag == line)
                return &l;
        }
        return nullptr;
    }

    CacheMutation mutation_;
    CacheConfig config_;
    std::vector<std::vector<Line>> sets_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace

CacheModelFactory
mutantCacheFactory(CacheMutation m)
{
    return [m](const CacheConfig &cfg) {
        return std::make_unique<MutantCache>(cfg, m);
    };
}

CacheCase
genCacheCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 1));
    CacheCase c;
    // Degenerate geometries (1 way, 1 set, one-line caches) are part
    // of the distribution on purpose: the fused fill probe has
    // boundary behavior there. One case in eight goes wide
    // (16..kMaxWays ways) to exercise stamp-clock renormalization
    // with sets nearly filling the 8-bit stamp domain.
    c.config.name = "fuzz";
    if (rng.below(8) == 0) {
        c.config.ways =
            16 + static_cast<int>(rng.below(Cache::kMaxWays - 15));
    } else {
        c.config.ways = 1 + static_cast<int>(rng.below(8));
    }
    const uint64_t sets = 1ull << rng.below(6); // 1..32 sets
    c.config.sizeBytes = kLineBytes * c.config.ways * sets;
    c.config.hitLatency = 1 + rng.below(8);

    const uint64_t capacity = sets * c.config.ways;
    // A pool a little larger than the cache forces evictions and
    // set conflicts without making every op a compulsory miss.
    const uint64_t pool_lines =
        std::max<uint64_t>(2, capacity / 2 + rng.below(2 * capacity));

    const size_t nops = 50 + rng.below(1000);
    c.ops.reserve(nops);
    uint64_t cycle = 0;
    for (size_t i = 0; i < nops; ++i) {
        cycle += rng.below(8);
        CacheOp op;
        op.line = rng.below(pool_lines) * kLineBytes;
        const uint64_t kind = rng.below(100);
        if (kind < 40) {
            op.kind = CacheOp::Kind::Lookup;
            op.cycle = cycle;
        } else if (kind < 65) {
            op.kind = CacheOp::Kind::DemandFill;
            op.cycle = cycle + rng.below(400); // fill ready cycle
        } else if (kind < 80) {
            op.kind = CacheOp::Kind::PrefetchFill;
            op.cycle = cycle + rng.below(400);
        } else if (kind < 88) {
            op.kind = CacheOp::Kind::Invalidate;
        } else if (kind < 98) {
            op.kind = CacheOp::Kind::Contains;
            op.cycle = cycle;
        } else {
            op.kind = CacheOp::Kind::Clear;
        }
        c.ops.push_back(op);
    }
    return c;
}

namespace {

std::string
describeCacheOp(size_t index, const CacheOp &op)
{
    std::ostringstream os;
    os << "op #" << index << " (" << toString(op.kind) << " line=0x"
       << std::hex << op.line << std::dec << " cycle=" << op.cycle
       << ")";
    return os.str();
}

} // namespace

std::string
diffCacheCase(const CacheCase &c, const CacheModelFactory &impl)
{
    std::unique_ptr<CacheModel> dut = impl(c.config);
    ReferenceCache ref(c.config);

    for (size_t i = 0; i < c.ops.size(); ++i) {
        const CacheOp &op = c.ops[i];
        switch (op.kind) {
          case CacheOp::Kind::Lookup: {
            const auto a = dut->lookupDemand(op.line, op.cycle);
            const auto b = ref.lookupDemand(op.line, op.cycle);
            if (a.hit != b.hit)
                return describeCacheOp(i, op) + ": hit impl=" +
                    std::to_string(a.hit) + " ref=" +
                    std::to_string(b.hit);
            if (a.hit && a.readyCycle != b.readyCycle)
                return describeCacheOp(i, op) + ": readyCycle impl=" +
                    std::to_string(a.readyCycle) + " ref=" +
                    std::to_string(b.readyCycle);
            if (a.inflight != b.inflight)
                return describeCacheOp(i, op) + ": inflight impl=" +
                    std::to_string(a.inflight) + " ref=" +
                    std::to_string(b.inflight);
            if (a.prefetchFirstUse != b.prefetchFirstUse)
                return describeCacheOp(i, op) +
                    ": prefetchFirstUse impl=" +
                    std::to_string(a.prefetchFirstUse) + " ref=" +
                    std::to_string(b.prefetchFirstUse);
            break;
          }
          case CacheOp::Kind::DemandFill:
          case CacheOp::Kind::PrefetchFill: {
            const bool prefetch =
                op.kind == CacheOp::Kind::PrefetchFill;
            const auto a = dut->fill(op.line, op.cycle, prefetch);
            const auto b = ref.fill(op.line, op.cycle, prefetch);
            if (a.evictedValid != b.evictedValid)
                return describeCacheOp(i, op) +
                    ": evictedValid impl=" +
                    std::to_string(a.evictedValid) + " ref=" +
                    std::to_string(b.evictedValid);
            if (a.evictedValid && a.evictedLine != b.evictedLine) {
                std::ostringstream os;
                os << describeCacheOp(i, op) << ": evictedLine impl=0x"
                   << std::hex << a.evictedLine << " ref=0x"
                   << b.evictedLine << std::dec;
                return os.str();
            }
            if (a.evictedUnusedPrefetch != b.evictedUnusedPrefetch)
                return describeCacheOp(i, op) +
                    ": evictedUnusedPrefetch impl=" +
                    std::to_string(a.evictedUnusedPrefetch) +
                    " ref=" + std::to_string(b.evictedUnusedPrefetch);
            break;
          }
          case CacheOp::Kind::Invalidate:
            dut->invalidate(op.line);
            ref.invalidate(op.line);
            break;
          case CacheOp::Kind::Contains: {
            const bool a = dut->contains(op.line);
            const bool b = ref.contains(op.line);
            if (a != b)
                return describeCacheOp(i, op) + ": contains impl=" +
                    std::to_string(a) + " ref=" + std::to_string(b);
            break;
          }
          case CacheOp::Kind::Clear:
            dut->clear();
            ref.clear();
            break;
        }

        if (dut->demandHits() != ref.demandHits() ||
            dut->demandMisses() != ref.demandMisses())
            return describeCacheOp(i, op) + ": stats impl=" +
                std::to_string(dut->demandHits()) + "/" +
                std::to_string(dut->demandMisses()) + " ref=" +
                std::to_string(ref.demandHits()) + "/" +
                std::to_string(ref.demandMisses());
        if (dut->occupancy() != ref.occupancy())
            return describeCacheOp(i, op) + ": occupancy impl=" +
                std::to_string(dut->occupancy()) + " ref=" +
                std::to_string(ref.occupancy());
        const std::string inv = ref.checkInvariants();
        if (!inv.empty())
            return describeCacheOp(i, op) +
                ": reference invariant violated: " + inv;
    }
    return "";
}

std::string
diffCacheCase(const CacheCase &c)
{
    return diffCacheCase(c, optimizedCacheFactory());
}

CacheCase
shrinkCacheCase(const CacheCase &c, const CacheModelFactory &impl)
{
    CacheCase cur = c;
    if (diffCacheCase(cur, impl).empty())
        return cur; // not a failing case; nothing to shrink

    const auto fails = [&](const CacheCase &t) {
        return !diffCacheCase(t, impl).empty();
    };

    // ddmin-style chunk removal: halving granularity, greedy keep.
    size_t chunk = std::max<size_t>(1, cur.ops.size() / 2);
    while (true) {
        for (size_t start = 0; start < cur.ops.size();) {
            CacheCase trial = cur;
            const size_t end =
                std::min(start + chunk, trial.ops.size());
            trial.ops.erase(trial.ops.begin() + start,
                            trial.ops.begin() + end);
            if (!trial.ops.empty() && fails(trial))
                cur = trial; // keep the removal, retry same offset
            else
                start += chunk;
        }
        if (chunk == 1)
            break;
        chunk = std::max<size_t>(1, chunk / 2);
    }

    // Config-dimension reduction: fewer ways, then fewer sets (the
    // op lines re-map; the failure must survive under the reduced
    // geometry to be adopted).
    const uint64_t sets =
        cur.config.sizeBytes / (kLineBytes * cur.config.ways);
    std::vector<std::pair<int, uint64_t>> dims = {
        {1, sets}, {cur.config.ways, 1}, {1, 1}};
    for (const auto &[ways, nsets] : dims) {
        CacheCase trial = cur;
        trial.config.ways = ways;
        trial.config.sizeBytes = kLineBytes * ways * nsets;
        if (fails(trial))
            cur = trial;
    }
    return cur;
}

// ---------------------------------------------------------------------
// Bandit differential
// ---------------------------------------------------------------------

std::string
formatBanditCase(const BanditCase &c)
{
    std::ostringstream os;
    os << "bandit case: algo=" << mab::toString(c.algo)
       << " arms=" << c.mab.numArms << " gamma=" << c.mab.gamma
       << " c=" << c.mab.c << " eps=" << c.mab.epsilon
       << " norm=" << c.mab.normalizeRewards
       << " rrRestart=" << c.mab.rrRestartProb
       << " window=" << c.window << " steps=" << c.steps
       << " policySeed=" << c.mab.seed << " rewardSeed="
       << c.rewardSeed;
    return os.str();
}

BanditCase
genBanditCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 16));
    BanditCase c;
    const uint64_t pick = rng.below(100);
    if (pick < 40)
        c.algo = MabAlgorithm::Ducb;
    else if (pick < 65)
        c.algo = MabAlgorithm::SwUcb;
    else if (pick < 85)
        c.algo = MabAlgorithm::Ucb;
    else
        c.algo = MabAlgorithm::EpsilonGreedy;

    c.mab.numArms = 2 + static_cast<int>(rng.below(10));
    c.mab.gamma = 0.9 + rng.uniform() * 0.099;
    c.mab.c = rng.uniform(0.01, 0.5);
    c.mab.epsilon = rng.uniform(0.0, 0.3);
    c.mab.normalizeRewards = rng.bernoulli(0.5);
    c.mab.rrRestartProb =
        rng.bernoulli(0.25) ? rng.uniform(0.0, 0.04) : 0.0;
    c.mab.seed = subSeed(seed, 17);
    // Small windows so eviction actually triggers within the run.
    c.window = c.mab.numArms + static_cast<int>(rng.below(60));
    c.steps = 60 + static_cast<int>(rng.below(260));
    c.rewardSeed = subSeed(seed, 18);
    return c;
}

std::unique_ptr<MabPolicy>
makeCasePolicy(const BanditCase &c)
{
    if (c.algo == MabAlgorithm::SwUcb)
        return std::make_unique<SwUcb>(c.mab, c.window);
    return makePolicy(c.algo, c.mab);
}

namespace {

/** Relative/absolute closeness for double-vs-long-double shadows. */
bool
close(double a, long double b, double tol = 1e-6)
{
    const long double diff = fabsl(static_cast<long double>(a) - b);
    const long double scale = std::max<long double>(
        {1.0L, fabsl(static_cast<long double>(a)), fabsl(b)});
    return diff <= tol * scale;
}

std::string
stepMsg(int step, const std::string &what)
{
    return "step " + std::to_string(step) + ": " + what;
}

} // namespace

std::string
diffBanditPolicy(MabPolicy &policy, const BanditCase &c)
{
    const int M = c.mab.numArms;
    Rng rew(c.rewardSeed);
    // Per-arm reward means with one abrupt phase change halfway — the
    // regime DUCB's discounting exists for.
    std::vector<double> mu(M), mu_late(M);
    for (int i = 0; i < M; ++i)
        mu[i] = rew.uniform(0.2, 1.8);
    for (int i = 0; i < M; ++i)
        mu_late[i] = rew.uniform(0.2, 1.8);

    const bool ucb_family =
        dynamic_cast<const Ucb *>(&policy) != nullptr;
    const bool is_ducb = c.algo == MabAlgorithm::Ducb;
    const bool is_sw = c.algo == MabAlgorithm::SwUcb;
    const long double gamma = c.mab.gamma;

    // Shadow state, all long double, updated by the long-form rules.
    std::vector<long double> r(M, 0.0L), n(M, 0.0L);
    long double n_total = 0.0L;
    long double r_avg = 1.0L;
    int seeded = 0;

    struct SwSample
    {
        int arm;
        long double reward;
        bool hasReward;
    };
    std::deque<SwSample> window;
    const auto windowSum = [&](int arm) {
        // Long-form: rescan the whole window instead of maintaining
        // the incremental sum the implementation keeps.
        long double sum = 0.0L;
        for (const SwSample &s : window) {
            if (s.arm == arm && s.hasReward)
                sum += s.reward;
        }
        return sum;
    };

    std::vector<int> sel_history; // post-seeding updSels, in order

    for (int step = 0; step < c.steps; ++step) {
        const bool rr_before = policy.inRoundRobin();
        std::vector<double> pre_scores;
        if (ucb_family && !rr_before)
            pre_scores = policy.selectionScores();

        const ArmId arm = policy.selectArm();
        if (arm < 0 || arm >= M)
            return stepMsg(step, "selected arm out of range");
        const bool rr_after = policy.inRoundRobin();

        if (ucb_family && !rr_before && !rr_after) {
            // Deterministic selection rule: the arm must maximize the
            // scores as they stood before the selection (first-max
            // tie break, matching Ucb::nextArm).
            ArmId best = 0;
            for (ArmId i = 1; i < M; ++i) {
                if (pre_scores[i] > pre_scores[best])
                    best = i;
            }
            if (arm != best)
                return stepMsg(step,
                               "selected arm " + std::to_string(arm) +
                                   " but argmax(scores) is " +
                                   std::to_string(best));
        }

        const bool seeding =
            policy.steps() < static_cast<uint64_t>(M);

        // Long-form updSels (selection-count update at select time).
        if (!seeding) {
            if (is_ducb) {
                for (long double &ni : n)
                    ni *= gamma;
                n_total = n_total * gamma + 1.0L;
                n[arm] += 1.0L;
                sel_history.push_back(arm);
            } else if (is_sw) {
                window.push_back({arm, 0.0L, false});
                n[arm] += 1.0L;
                n_total += 1.0L;
                while (static_cast<int>(window.size()) > c.window) {
                    const SwSample old = window.front();
                    window.pop_front();
                    if (old.hasReward) {
                        n[old.arm] -= 1.0L;
                        n_total -= 1.0L;
                        if (n[old.arm] > 0.5L)
                            r[old.arm] =
                                windowSum(old.arm) / n[old.arm];
                    }
                }
            } else {
                n[arm] += 1.0L;
                n_total += 1.0L;
            }
        }

        const double reward =
            (step < c.steps / 2 ? mu[arm] : mu_late[arm]) +
            rew.uniform(-0.2, 0.2);
        policy.observeReward(reward);

        // Long-form updRew (value update at observe time).
        if (seeding) {
            r[arm] = reward;
            n[arm] = 1.0L;
            n_total += 1.0L;
            if (++seeded == M && c.mab.normalizeRewards) {
                long double sum = 0.0L;
                for (const long double &ri : r)
                    sum += ri;
                r_avg = sum / M;
                if (r_avg <= 1e-12L) {
                    r_avg = 1.0L;
                } else {
                    for (long double &ri : r)
                        ri /= r_avg;
                }
            }
        } else {
            const long double rs = c.mab.normalizeRewards
                ? static_cast<long double>(reward) / r_avg
                : static_cast<long double>(reward);
            if (is_sw) {
                for (auto it = window.rbegin(); it != window.rend();
                     ++it) {
                    if (it->arm == arm && !it->hasReward) {
                        it->hasReward = true;
                        it->reward = rs;
                        break;
                    }
                }
                if (n[arm] > 0.5L)
                    r[arm] = windowSum(arm) / n[arm];
            } else if (n[arm] <= 0.0L) {
                r[arm] = rs;
                n[arm] = 1.0L;
            } else {
                r[arm] += (rs - r[arm]) / n[arm];
            }
        }

        // ---- compare implementation state against the shadow ----
        const std::vector<double> &ir = policy.armRewards();
        const std::vector<double> &in = policy.armCounts();
        for (int i = 0; i < M; ++i) {
            if (!std::isfinite(ir[i]) || !std::isfinite(in[i]))
                return stepMsg(step, "non-finite policy state");
            if (!close(ir[i], r[i]))
                return stepMsg(
                    step, "r[" + std::to_string(i) + "] impl=" +
                        std::to_string(ir[i]) + " ref=" +
                        std::to_string(static_cast<double>(r[i])));
            if (!close(in[i], n[i]))
                return stepMsg(
                    step, "n[" + std::to_string(i) + "] impl=" +
                        std::to_string(in[i]) + " ref=" +
                        std::to_string(static_cast<double>(n[i])));
        }
        if (!close(policy.totalCount(), n_total))
            return stepMsg(
                step,
                "nTotal impl=" + std::to_string(policy.totalCount()) +
                    " ref=" +
                    std::to_string(static_cast<double>(n_total)));
        if (seeded == M && !close(policy.rewardNormalizer(), r_avg))
            return stepMsg(
                step, "rAvg impl=" +
                    std::to_string(policy.rewardNormalizer()) +
                    " ref=" +
                    std::to_string(static_cast<double>(r_avg)));

        // Discounted-count identity: n_total tracks sum(n_i) under
        // every update rule (property check, not just differential).
        long double impl_sum = 0.0L;
        for (int i = 0; i < M; ++i)
            impl_sum += static_cast<long double>(in[i]);
        if (!close(policy.totalCount(), impl_sum, 1e-6))
            return stepMsg(step,
                           "count identity broken: nTotal=" +
                               std::to_string(policy.totalCount()) +
                               " sum(n_i)=" +
                               std::to_string(
                                   static_cast<double>(impl_sum)));

        // Selection scores recomputed long-form from the shadow.
        const std::vector<double> scores = policy.selectionScores();
        for (int i = 0; i < M; ++i) {
            long double expect;
            if (ucb_family) {
                const long double log_total =
                    logl(std::max<long double>(n_total, 1.0L));
                const long double ni =
                    std::max<long double>(n[i], 1e-9L);
                expect = r[i] + static_cast<long double>(c.mab.c) *
                        sqrtl(log_total / ni);
            } else {
                expect = r[i];
            }
            if (!close(scores[i], expect, 1e-5))
                return stepMsg(
                    step, "score[" + std::to_string(i) + "] impl=" +
                        std::to_string(scores[i]) + " ref=" +
                        std::to_string(static_cast<double>(expect)));
        }

        // DUCB closed form: counts recomputed as explicit sums of
        // gamma powers over the full selection history, completely
        // independent of the incremental recurrence.
        const bool checkpoint =
            step % 32 == 31 || step == c.steps - 1;
        if (is_ducb && checkpoint && seeded == M) {
            const size_t P = sel_history.size();
            std::vector<long double> cf(
                M, powl(gamma, static_cast<long double>(P)));
            for (size_t k = 0; k < P; ++k)
                cf[sel_history[k]] +=
                    powl(gamma, static_cast<long double>(P - 1 - k));
            for (int i = 0; i < M; ++i) {
                if (!close(in[i], cf[i], 1e-5))
                    return stepMsg(
                        step,
                        "closed-form n[" + std::to_string(i) +
                            "] impl=" + std::to_string(in[i]) +
                            " ref=" +
                            std::to_string(
                                static_cast<double>(cf[i])));
            }
        }
    }
    return "";
}

std::string
diffBanditCase(const BanditCase &c)
{
    std::unique_ptr<MabPolicy> policy = makeCasePolicy(c);
    return diffBanditPolicy(*policy, c);
}

BanditCase
shrinkBanditCase(const BanditCase &c)
{
    BanditCase cur = c;
    const auto fails = [](const BanditCase &t) {
        return !diffBanditCase(t).empty();
    };
    if (!fails(cur))
        return cur;
    while (cur.steps > 8) {
        BanditCase trial = cur;
        trial.steps /= 2;
        if (!fails(trial))
            break;
        cur = trial;
    }
    for (const auto &knob :
         {std::function<void(BanditCase &)>(
              [](BanditCase &t) { t.mab.normalizeRewards = false; }),
          std::function<void(BanditCase &)>(
              [](BanditCase &t) { t.mab.rrRestartProb = 0.0; })}) {
        BanditCase trial = cur;
        knob(trial);
        if (fails(trial))
            cur = trial;
    }
    return cur;
}

// ---------------------------------------------------------------------
// End-to-end property checks
// ---------------------------------------------------------------------

namespace {

std::unique_ptr<Prefetcher>
makeSimPrefetcher(const std::string &name, uint64_t seed)
{
    if (name == "None")
        return std::make_unique<NullPrefetcher>();
    if (name == "Stride")
        return std::make_unique<StridePrefetcher>(64, 1);
    if (name == "Bingo")
        return std::make_unique<BingoPrefetcher>();
    if (name == "MLOP")
        return std::make_unique<MlopPrefetcher>();
    if (name == "IPCP")
        return std::make_unique<IpcpPrefetcher>();
    if (name == "Pythia") {
        PythiaConfig cfg;
        cfg.seed = seed * 31 + 7;
        return std::make_unique<PythiaPrefetcher>(cfg);
    }
    // "Bandit" / "Bandit:<algo>" — short bandit steps so the agent
    // takes many decisions within a short fuzz run.
    BanditPrefetchConfig cfg;
    cfg.mab.seed = seed;
    cfg.hw.stepUnits = 50;
    cfg.mab.c = 0.2;
    cfg.mab.gamma = 0.99;
    if (name.rfind("Bandit:", 0) == 0) {
        const std::string algo = name.substr(7);
        if (algo == "eGreedy")
            cfg.algorithm = MabAlgorithm::EpsilonGreedy;
        else if (algo == "UCB")
            cfg.algorithm = MabAlgorithm::Ucb;
        else if (algo == "Thompson")
            cfg.algorithm = MabAlgorithm::Thompson;
        else if (algo == "SW-UCB")
            cfg.algorithm = MabAlgorithm::SwUcb;
    }
    return std::make_unique<BanditPrefetchController>(cfg);
}

CacheConfig
genCacheGeometry(Rng &rng, const char *name, int min_sets_log,
                 int max_sets_log, int max_ways, uint64_t latency)
{
    CacheConfig cfg;
    cfg.name = name;
    cfg.ways = 1 + static_cast<int>(rng.below(max_ways));
    const uint64_t sets = 1ull
        << (min_sets_log +
            rng.below(static_cast<uint64_t>(max_sets_log -
                                            min_sets_log + 1)));
    cfg.sizeBytes = kLineBytes * cfg.ways * sets;
    cfg.hitLatency = latency;
    return cfg;
}

} // namespace

std::string
formatSimCase(const SimCase &c)
{
    std::ostringstream os;
    os << "sim case: pf=" << c.prefetcher
       << " instr=" << c.instructions << " phases=" << c.app.phases.size()
       << " seed=" << c.app.seed << " l1=" << c.hier.l1.sizeBytes << "B/"
       << c.hier.l1.ways << "w l2=" << c.hier.l2.sizeBytes << "B/"
       << c.hier.l2.ways << "w llc=" << c.hier.llc.sizeBytes << "B/"
       << c.hier.llc.ways << "w mshr=" << c.hier.mshrEntries
       << " pfq=" << c.hier.prefetchQueueMax
       << " dramMtps=" << c.dram.mtps;
    for (const PatternPhase &p : c.app.phases)
        os << " [" << mab::toString(p.kind)
           << " mem=" << p.memFraction << " fp=" << p.footprintBytes
           << "]";
    return os.str();
}

SimCase
genSimCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 32));
    SimCase c;

    c.app.name = "fuzz";
    c.app.seed = subSeed(seed, 33);
    c.app.loopPhases = true;
    const int phases = 1 + static_cast<int>(rng.below(3));
    for (int p = 0; p < phases; ++p) {
        PatternPhase ph;
        ph.kind = static_cast<PatternKind>(rng.below(5));
        ph.memFraction = rng.uniform(0.05, 0.6);
        ph.storeFraction = rng.uniform(0.0, 0.5);
        ph.branchFraction = rng.uniform(0.0, 0.3);
        ph.mispredictRate = rng.uniform(0.0, 0.05);
        ph.footprintBytes = 1ull << (12 + rng.below(10));
        ph.strideBytes = static_cast<int64_t>(kLineBytes)
            << rng.below(4);
        ph.numStreams = 1 + static_cast<int>(rng.below(8));
        ph.accessesPerLine = 1 + static_cast<int>(rng.below(8));
        ph.chaseSerialFrac = rng.uniform(0.0, 0.5);
        ph.lengthInstrs = 400 + rng.below(1200);
        c.app.phases.push_back(ph);
    }

    c.hier.l1 = genCacheGeometry(rng, "L1", 2, 6, 4, 2);
    c.hier.l2 = genCacheGeometry(rng, "L2", 4, 8, 8, 10);
    c.hier.llc = genCacheGeometry(rng, "LLC", 6, 10, 16, 30);
    c.hier.mshrEntries = 1 + static_cast<int>(rng.below(32));
    c.hier.prefetchQueueMax = 1 + static_cast<int>(rng.below(64));

    static const double kMtps[] = {150.0, 600.0, 2400.0, 9600.0};
    c.dram.mtps = kMtps[rng.below(4)];
    c.dram.baseLatencyCycles = 100 + rng.below(400);

    static const char *kPfs[] = {
        "None", "None", "Stride", "Bingo", "MLOP", "IPCP",
        "Pythia", "Bandit", "Bandit:eGreedy", "Bandit:UCB",
        "Bandit:Thompson"};
    c.prefetcher = kPfs[rng.below(sizeof(kPfs) / sizeof(kPfs[0]))];
    c.instructions = 1500 + rng.below(2500);
    return c;
}

std::string
checkSimProperties(const SimCase &c)
{
    AppProfile app = c.app;
    SyntheticTrace trace(app);
    std::unique_ptr<Prefetcher> pf =
        makeSimPrefetcher(c.prefetcher, app.seed);
    const CoreConfig core_cfg;
    CoreModel core(core_cfg, c.hier, trace, pf.get(), nullptr,
                   c.dram);
    core.run(c.instructions);

    const auto fail = [&](const std::string &what) {
        return "property violated: " + what + " (" +
            formatSimCase(c) + ")";
    };

    if (core.instructions() < c.instructions)
        return fail("run stopped short of the instruction budget");
    if (core.cycles() == 0)
        return fail("zero cycles after a nonempty run");
    const double ipc = core.ipc();
    if (!std::isfinite(ipc) || ipc <= 0.0)
        return fail("IPC not in (0, commitWidth]: ipc=" +
                    std::to_string(ipc));
    if (ipc > core.config().commitWidth * (1.0 + 1e-9))
        return fail("IPC exceeds the commit width: ipc=" +
                    std::to_string(ipc));

    CacheHierarchy &h = core.hierarchy();
    const Cache &l1 = h.l1();
    const Cache &l2 = h.l2();
    const Cache &llc = h.llc();

    // Counter conservation: every demand access probes the L1; each
    // level's lookups are exactly the previous level's misses.
    const uint64_t total = h.hitsAt(HitLevel::L1) +
        h.hitsAt(HitLevel::L2) + h.hitsAt(HitLevel::Llc) +
        h.hitsAt(HitLevel::Dram);
    if (total != l1.demandHits + l1.demandMisses)
        return fail("per-level hit counters do not sum to L1 lookups");
    if (h.hitsAt(HitLevel::L1) != l1.demandHits)
        return fail("L1 hit counter mismatch");
    if (h.l2DemandAccesses() != l1.demandMisses)
        return fail("L2 demand accesses != L1 misses");
    if (l2.demandHits + l2.demandMisses != h.l2DemandAccesses())
        return fail("L2 lookups != L2 demand accesses");
    if (llc.demandHits + llc.demandMisses != l2.demandMisses)
        return fail("LLC lookups != L2 misses");
    if (h.llcDemandMisses() != llc.demandMisses)
        return fail("LLC demand-miss counter mismatch");
    if (h.hitsAt(HitLevel::Dram) != h.llcDemandMisses())
        return fail("DRAM-level hits != LLC demand misses");

    // Prefetch taxonomy: each issued prefetch is classified at most
    // once as timely/late (first demand use) or wrong (evicted
    // untouched).
    const PrefetchStats &ps = h.prefetchStats();
    if (ps.timely + ps.late + ps.wrong > ps.issued)
        return fail("prefetch taxonomy exceeds issued count");

    // Bounded structures never exceed their configured capacities.
    if (h.mshrOccupancy().peak >
        static_cast<uint64_t>(c.hier.mshrEntries))
        return fail("MSHR occupancy exceeded capacity");
    if (h.prefetchQueueOccupancy().peak >
        static_cast<uint64_t>(c.hier.prefetchQueueMax))
        return fail("prefetch queue occupancy exceeded capacity");

    const auto checkCap = [&](const Cache &cache, const char *name)
        -> std::string {
        const uint64_t cap =
            cache.numSets() * cache.config().ways;
        if (cache.occupancy() > cap)
            return fail(std::string(name) +
                        " occupancy exceeds capacity");
        return "";
    };
    for (const auto &[cache, name] :
         {std::pair<const Cache *, const char *>{&l1, "L1"},
          {&l2, "L2"},
          {&llc, "LLC"}}) {
        const std::string err = checkCap(*cache, name);
        if (!err.empty())
            return err;
    }
    return "";
}

SimCase
shrinkSimCase(const SimCase &c)
{
    SimCase cur = c;
    const auto fails = [](const SimCase &t) {
        return !checkSimProperties(t).empty();
    };
    if (!fails(cur))
        return cur;
    while (cur.instructions > 200) {
        SimCase trial = cur;
        trial.instructions /= 2;
        if (!fails(trial))
            break;
        cur = trial;
    }
    const auto tryKnob = [&](auto &&mutate) {
        SimCase trial = cur;
        mutate(trial);
        if (fails(trial))
            cur = trial;
    };
    tryKnob([](SimCase &t) { t.prefetcher = "None"; });
    tryKnob([](SimCase &t) { t.hier = HierarchyConfig{}; });
    tryKnob([](SimCase &t) { t.dram = DramConfig{}; });
    tryKnob([](SimCase &t) {
        if (t.app.phases.size() > 1)
            t.app.phases.resize(1);
    });
    return cur;
}

// ---------------------------------------------------------------------
// Live-vs-replay trace oracle
// ---------------------------------------------------------------------

namespace {

std::string
diffRecordStreams(SyntheticTrace &live, ReplaySource &replay,
                  uint64_t count, const char *phase)
{
    for (uint64_t i = 0; i < count; ++i) {
        const TraceRecord a = live.next();
        const TraceRecord b = replay.next();
        const auto field = [&](const char *name) {
            return std::string(phase) + " record " +
                std::to_string(i) + ": " + name +
                " differs between live generation and replay";
        };
        if (a.pc != b.pc)
            return field("pc");
        if (a.addr != b.addr)
            return field("addr");
        if (a.isLoad != b.isLoad)
            return field("isLoad");
        if (a.isStore != b.isStore)
            return field("isStore");
        if (a.isBranch != b.isBranch)
            return field("isBranch");
        if (a.mispredicted != b.mispredicted)
            return field("mispredicted");
        if (a.dependsOnPrevLoad != b.dependsOnPrevLoad)
            return field("dependsOnPrevLoad");
    }
    return "";
}

/** Names of the coreCounters() entries (divergence reports). */
const char *const kCoreCounterNames[] = {
    "instructions",   "cycles",           "ipc",
    "l1Hits",         "l2Hits",           "llcHits",
    "dramHits",       "l2DemandAccesses", "llcDemandMisses",
    "prefetchIssued", "prefetchTimely",   "prefetchLate",
    "prefetchWrong"};

/** Exported-counter fingerprint of a finished CoreModel run (every
 *  counter the bench helpers report). */
std::vector<uint64_t>
coreCounters(const CoreModel &core)
{
    const CacheHierarchy &h = core.hierarchy();
    const PrefetchStats &ps = h.prefetchStats();
    uint64_t ipc_bits = 0;
    const double ipc = core.ipc();
    std::memcpy(&ipc_bits, &ipc, sizeof(ipc_bits));
    return {core.instructions(),
            core.cycles(),
            ipc_bits,
            h.hitsAt(HitLevel::L1),
            h.hitsAt(HitLevel::L2),
            h.hitsAt(HitLevel::Llc),
            h.hitsAt(HitLevel::Dram),
            h.l2DemandAccesses(),
            h.llcDemandMisses(),
            ps.issued,
            ps.timely,
            ps.late,
            ps.wrong};
}

/** coreCounters() of one run of @p c over @p trace. */
std::vector<uint64_t>
simCounters(const SimCase &c, TraceSource &trace)
{
    std::unique_ptr<Prefetcher> pf =
        makeSimPrefetcher(c.prefetcher, c.app.seed);
    CoreModel core(CoreConfig{}, c.hier, trace, pf.get(), nullptr,
                   c.dram);
    core.run(c.instructions);
    return coreCounters(core);
}

} // namespace

std::string
checkReplayEquivalence(uint64_t seed)
{
    const SimCase c = genSimCase(subSeed(seed, 64));

    // Record-level: every field of every record, then again from the
    // top after reset() on both sides (a reseeded generator must
    // equal a rewound replay).
    const uint64_t n = c.instructions;
    const auto mat = std::make_shared<MaterializedTrace>(c.app, n);
    {
        SyntheticTrace live(c.app);
        ReplaySource replay(mat);
        std::string err = diffRecordStreams(live, replay, n, "fresh");
        if (!err.empty())
            return err + " (" + formatSimCase(c) + ")";
        live.reset();
        replay.reset();
        err = diffRecordStreams(live, replay, n, "post-reset");
        if (!err.empty())
            return err + " (" + formatSimCase(c) + ")";
    }

    // End-to-end: the same case simulated over the live generator and
    // over the replayed materialization must export identical
    // counters, bit for bit.
    SyntheticTrace live(c.app);
    const std::vector<uint64_t> a = simCounters(c, live);
    ReplaySource replay(mat);
    const std::vector<uint64_t> b = simCounters(c, replay);
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i])
            return std::string("counter ") + kCoreCounterNames[i] +
                " differs between the live-generator run and the "
                "replay run (" +
                formatSimCase(c) + ")";
    }
    return "";
}

// ---------------------------------------------------------------------
// Drifting-generator oracle
// ---------------------------------------------------------------------

std::string
formatDriftCase(const DriftCase &c)
{
    static const char *const kinds[] = {"phase-shift", "cyclic",
                                        "adversarial"};
    std::ostringstream os;
    os << "drift case: kind=" << kinds[c.kind % 3]
       << " instr=" << c.instructions
       << " segments=" << c.drift.schedule.size()
       << " phases=" << c.drift.app.phases.size()
       << " seed=" << c.drift.app.seed << " pf=" << c.prefetcher
       << " env{arms=" << c.env.numArms << " steps=" << c.env.steps
       << " period=" << c.env.periodSteps << " seed=" << c.env.seed
       << " recovery=" << c.env.recoveryWindow
       << "} policy=" << c.policy.label;
    return os.str();
}

DriftCase
genDriftCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 120));
    DriftCase c;
    c.kind = static_cast<int>(rng.below(3));
    // Contrasting bases with randomized patterns/footprints come from
    // the sim-case generator, so drifting streams inherit its variety
    // (degenerate geometries, every pattern kind).
    const AppProfile a = genSimCase(subSeed(seed, 121)).app;
    const AppProfile b = genSimCase(subSeed(seed, 122)).app;
    const uint64_t total = 1500 + rng.below(2000);
    const uint64_t period = 200 + rng.below(600);
    const uint64_t drift_seed = subSeed(seed, 123) | 1;
    switch (c.kind) {
      case 0: {
        std::vector<uint64_t> shifts;
        const size_t segments = 2 + rng.below(4);
        for (size_t i = 0; i < segments; ++i)
            shifts.push_back(250 + rng.below(900));
        c.drift = makePhaseShiftProfile("fuzz_drift_shift", {a, b},
                                        shifts, drift_seed);
        break;
      }
      case 1:
        c.drift = makeCyclicProfile("fuzz_drift_cyclic", a, b, period,
                                    total, drift_seed);
        break;
      default:
        c.drift = makeAdversarialProfile("fuzz_drift_adv", a, b,
                                         period, total, drift_seed);
        break;
    }
    c.instructions =
        std::min<uint64_t>(c.drift.totalInstrs(),
                           1200 + rng.below(1800));
    // The machine comes from an independent sim-case draw.
    const SimCase donor = genSimCase(subSeed(seed, 130));
    c.hier = donor.hier;
    c.dram = donor.dram;
    c.prefetcher = donor.prefetcher;
    // Drifting-bandit rollout: random horizon, shift period, policy.
    c.env.numArms = 3 + static_cast<int>(rng.below(3));
    c.env.steps = 400 + rng.below(1200);
    c.env.periodSteps = 60 + rng.below(300);
    c.env.seed = subSeed(seed, 140);
    c.env.recoveryWindow = 4 + static_cast<int>(rng.below(6));
    const std::vector<DriftPolicySpec> pool = driftPolicyGrid();
    c.policy = pool[rng.below(pool.size())];
    return c;
}

std::string
diffDriftCase(const DriftCase &c)
{
    // Schedule structure: contiguous, non-empty segments covering the
    // generated phase list exactly, with driftSegmentAt agreeing at
    // both edges of every segment.
    const std::vector<DriftSegment> &sched = c.drift.schedule;
    if (sched.empty())
        return "drift schedule is empty (" + formatDriftCase(c) + ")";
    uint64_t phase_sum = 0;
    for (const PatternPhase &ph : c.drift.app.phases)
        phase_sum += ph.lengthInstrs;
    uint64_t at = 0;
    for (size_t i = 0; i < sched.size(); ++i) {
        if (sched[i].startInstr != at || sched[i].lengthInstrs == 0)
            return "drift schedule segment " + std::to_string(i) +
                " is not contiguous (" + formatDriftCase(c) + ")";
        if (driftSegmentAt(sched, at) != i ||
            driftSegmentAt(sched, at + sched[i].lengthInstrs - 1) != i)
            return "driftSegmentAt disagrees with segment " +
                std::to_string(i) + " boundaries (" +
                formatDriftCase(c) + ")";
        at += sched[i].lengthInstrs;
    }
    if (at != c.drift.totalInstrs() || at != phase_sum)
        return "drift schedule does not cover the profile (" +
            formatDriftCase(c) + ")";

    // Replay equivalence of the drifting stream: record-for-record
    // (fresh and post-reset), then end-to-end counters of one cell
    // run over live generation vs materialized replay — the arena-on
    // vs arena-off delivery paths.
    const uint64_t n = c.instructions;
    const auto mat =
        std::make_shared<MaterializedTrace>(c.drift.app, n);
    {
        SyntheticTrace live(c.drift.app);
        ReplaySource replay(mat);
        std::string err =
            diffRecordStreams(live, replay, n, "drift fresh");
        if (!err.empty())
            return err + " (" + formatDriftCase(c) + ")";
        live.reset();
        replay.reset();
        err = diffRecordStreams(live, replay, n, "drift post-reset");
        if (!err.empty())
            return err + " (" + formatDriftCase(c) + ")";
    }
    {
        SimCase sc;
        sc.app = c.drift.app;
        sc.hier = c.hier;
        sc.dram = c.dram;
        sc.prefetcher = c.prefetcher;
        sc.instructions = n;
        SyntheticTrace live(c.drift.app);
        const std::vector<uint64_t> want = simCounters(sc, live);
        ReplaySource replay(mat);
        const std::vector<uint64_t> got = simCounters(sc, replay);
        for (size_t i = 0; i < want.size(); ++i) {
            if (want[i] != got[i])
                return std::string("drift counter ") +
                    kCoreCounterNames[i] +
                    " differs between live and replay delivery (" +
                    formatDriftCase(c) + ")";
        }
    }

    // Regret conservation at the per-phase oracle: phases partition
    // the rollout (exact step counts, expected phase count) and the
    // per-phase regrets sum to the cumulative total.
    const std::unique_ptr<MabPolicy> policy =
        makeDriftPolicy(c.policy, c.env.numArms, c.env.seed | 1);
    const PhasedRegretTracker tracker =
        runDriftingBandit(*policy, c.env);
    double phase_regret = 0.0;
    uint64_t phase_steps = 0;
    for (const PhasedRegretTracker::PhaseStats &ph :
         tracker.phases()) {
        phase_regret += ph.regret;
        phase_steps += ph.steps;
    }
    if (phase_steps != tracker.steps() ||
        tracker.steps() != c.env.steps)
        return "per-phase step counts do not partition the rollout "
               "(" +
            formatDriftCase(c) + ")";
    const uint64_t want_phases =
        (c.env.steps + c.env.periodSteps - 1) / c.env.periodSteps;
    if (tracker.numPhases() != want_phases)
        return "phase count " + std::to_string(tracker.numPhases()) +
            " != expected " + std::to_string(want_phases) + " (" +
            formatDriftCase(c) + ")";
    const double tol =
        1e-9 * (1.0 + std::abs(tracker.cumulative()));
    if (std::abs(phase_regret - tracker.cumulative()) > tol)
        return "per-phase regret does not sum to cumulative (" +
            formatDriftCase(c) + ")";
    return "";
}

DriftCase
shrinkDriftCase(const DriftCase &c)
{
    DriftCase cur = c;
    const auto fails = [](const DriftCase &t) {
        return !diffDriftCase(t).empty();
    };
    if (!fails(cur))
        return cur;
    while (cur.instructions > 256) {
        DriftCase trial = cur;
        trial.instructions /= 2;
        if (!fails(trial))
            break;
        cur = trial;
    }
    while (cur.env.steps > 64) {
        DriftCase trial = cur;
        trial.env.steps /= 2;
        if (!fails(trial))
            break;
        cur = trial;
    }
    const auto tryKnob = [&](auto &&mutate) {
        DriftCase trial = cur;
        mutate(trial);
        if (fails(trial))
            cur = trial;
    };
    tryKnob([](DriftCase &t) { t.prefetcher = "None"; });
    tryKnob([](DriftCase &t) { t.hier = HierarchyConfig{}; });
    tryKnob([](DriftCase &t) { t.dram = DramConfig{}; });
    return cur;
}

std::string
checkDriftEquivalence(uint64_t seed)
{
    return diffDriftCase(genDriftCase(subSeed(seed, 5)));
}

// ---------------------------------------------------------------------
// SMT fast-forward oracle
// ---------------------------------------------------------------------

std::string
formatSmtCase(const SmtCase &c)
{
    std::ostringstream os;
    os << "smt case: cycles=" << c.cycles << " epoch=" << c.epoch
       << " policy=" << c.policy.name() << " widths{fetch="
       << c.config.fetchWidth << " decode=" << c.config.decodeWidth
       << " commit=" << c.config.commitWidth << "} sizes{iq="
       << c.config.iqSize << " rob=" << c.config.robSize
       << " lq=" << c.config.lqSize << " sq=" << c.config.sqSize
       << " irf=" << c.config.irfSize << " frf=" << c.config.frfSize
       << " fq=" << c.config.fetchQueueSize
       << "} penalty=" << c.config.mispredictPenalty << " shares{";
    for (const auto &s : c.shares)
        os << ' ' << s[0] << '/' << s[1];
    os << " }";
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        const SmtAppParams &p = c.apps[t];
        os << " t" << t << "{seed=" << c.seeds[t] << " ld=" << p.loadFrac
           << " st=" << p.storeFrac << " br=" << p.branchFrac
           << " fp=" << p.fpFrac << " mp=" << p.mispredictRate
           << " l1m=" << p.l1MissRate << " dram=" << p.dramRate
           << " l2lat=" << p.l2Latency << " dramlat=" << p.dramLatency
           << " dep=" << p.depProb << '/' << p.depMeanDistance
           << " drain=" << p.storeDrainDramRate << '}';
    }
    return os.str();
}

SmtCase
genSmtCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 150));
    SmtCase c;
    // Sizes skew small (down to 1) so full structures, stalls and
    // gating are common.
    const auto size = [&rng](int hi) {
        return rng.bernoulli(0.15)
            ? 1 + static_cast<int>(rng.below(4))
            : 1 + static_cast<int>(rng.below(static_cast<uint64_t>(hi)));
    };
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        SmtAppParams &p = c.apps[t];
        p.name = "fuzz_smt" + std::to_string(t);
        // Random kind mix covering up to all of the uops.
        const double w[4] = {rng.uniform(), rng.uniform(), rng.uniform(),
                             rng.uniform()};
        const double scale =
            rng.uniform(0.3, 1.0) / (w[0] + w[1] + w[2] + w[3] + 1e-9);
        p.loadFrac = w[0] * scale;
        p.storeFrac = w[1] * scale;
        p.branchFrac = w[2] * scale;
        p.fpFrac = w[3] * scale;
        p.mispredictRate = rng.uniform(0.0, 0.15);
        p.l1MissRate = rng.uniform();
        p.dramRate = rng.uniform();
        p.l2Latency = 1 + static_cast<uint32_t>(rng.below(40));
        // 1 in 8 threads gets DRAM latencies whose dependence chains
        // run past the calendar horizon.
        p.dramLatency = rng.bernoulli(0.125)
            ? 2000 + static_cast<uint32_t>(rng.below(3000))
            : 20 + static_cast<uint32_t>(rng.below(600));
        p.depProb = rng.uniform();
        p.depMeanDistance = 1 + static_cast<int>(rng.below(30));
        p.storeDrainDramRate = rng.uniform();
        c.seeds[t] = subSeed(seed, 151 + static_cast<uint64_t>(t));
    }
    c.config.fetchWidth = 1 + static_cast<int>(rng.below(8));
    c.config.decodeWidth = 1 + static_cast<int>(rng.below(8));
    c.config.commitWidth = 1 + static_cast<int>(rng.below(10));
    c.config.iqSize = size(128);
    c.config.robSize = size(320);
    c.config.lqSize = size(96);
    c.config.sqSize = size(64);
    c.config.irfSize = size(200);
    c.config.frfSize = size(200);
    c.config.fetchQueueSize = size(32);
    c.config.mispredictPenalty = rng.below(30);
    const std::vector<PgPolicy> policies = allPgPolicies();
    c.policy = policies[rng.below(policies.size())];
    c.cycles = 2000 + rng.below(18000);
    c.epoch = 50 + rng.below(3000);
    const size_t n_shares = 1 + rng.below(6);
    for (size_t i = 0; i < n_shares; ++i) {
        const double s0 = rng.uniform();
        c.shares.push_back({s0, rng.bernoulli(0.8) ? 1.0 - s0
                                                   : rng.uniform()});
    }
    return c;
}

namespace {

/** First difference between two pipelines' observable state. */
std::string
diffSmtState(const SmtPipeline &a, const SmtPipeline &b)
{
    std::ostringstream os;
    const auto cmp = [&os](const char *what, int t, uint64_t x,
                           uint64_t y) {
        if (x != y && os.tellp() == 0) {
            os << what;
            if (t >= 0)
                os << " (thread " << t << ")";
            os << ": stepped " << x << " vs free-running " << y;
        }
    };
    cmp("cycles", -1, a.cycles(), b.cycles());
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        cmp("committed", t, a.committed(t), b.committed(t));
        cmp("fetched", t, a.fetched(t), b.fetched(t));
        cmp("iqUsed", t, a.iqUsed(t), b.iqUsed(t));
        cmp("robUsed", t, a.robUsed(t), b.robUsed(t));
        cmp("lqUsed", t, a.lqUsed(t), b.lqUsed(t));
        cmp("sqUsed", t, a.sqUsed(t), b.sqUsed(t));
        cmp("irfUsed", t, a.irfUsed(t), b.irfUsed(t));
        cmp("frfUsed", t, a.frfUsed(t), b.frfUsed(t));
        cmp("branchesInRob", t, a.branchesInRob(t), b.branchesInRob(t));
    }
    const RenameStats &x = a.renameStats();
    const RenameStats &y = b.renameStats();
    cmp("rename.stallRob", -1, x.stallRob, y.stallRob);
    cmp("rename.stallIq", -1, x.stallIq, y.stallIq);
    cmp("rename.stallLq", -1, x.stallLq, y.stallLq);
    cmp("rename.stallSq", -1, x.stallSq, y.stallSq);
    cmp("rename.stallRf", -1, x.stallRf, y.stallRf);
    cmp("rename.stalled", -1, x.stalled, y.stalled);
    cmp("rename.idle", -1, x.idle, y.idle);
    cmp("rename.running", -1, x.running, y.running);
    cmp("rename.cycles", -1, x.cycles, y.cycles);
    return os.str();
}

} // namespace

std::string
diffSmtCase(const SmtCase &c)
{
    ThreadSource a0(c.apps[0], c.seeds[0]), a1(c.apps[1], c.seeds[1]);
    ThreadSource b0(c.apps[0], c.seeds[0]), b1(c.apps[1], c.seeds[1]);
    SmtPipeline stepped(c.config, {&a0, &a1});
    SmtPipeline free_run(c.config, {&b0, &b1});
    stepped.setPolicy(c.policy);
    free_run.setPolicy(c.policy);
    const uint64_t epoch = std::max<uint64_t>(c.epoch, 1);
    uint64_t edge = 0;
    for (uint64_t k = 0; edge < c.cycles; ++k) {
        edge = std::min(edge + epoch, c.cycles);
        while (stepped.cycles() < edge)
            stepped.advance(1);
        while (free_run.cycles() < edge) {
            const uint64_t limit = edge - free_run.cycles();
            const uint64_t n = free_run.advance(limit);
            if (n == 0 || n > limit)
                return "advance(" + std::to_string(limit) +
                    ") moved " + std::to_string(n) + " cycles at cycle " +
                    std::to_string(free_run.cycles()) + " (" +
                    formatSmtCase(c) + ")";
        }
        const std::string err = diffSmtState(stepped, free_run);
        if (!err.empty())
            return "at edge " + std::to_string(edge) + ": " + err + " (" +
                formatSmtCase(c) + ")";
        if (!c.shares.empty()) {
            const auto &s = c.shares[k % c.shares.size()];
            stepped.setShares(s);
            free_run.setShares(s);
        }
    }
    return "";
}

SmtCase
shrinkSmtCase(const SmtCase &c)
{
    SmtCase cur = c;
    const auto fails = [](const SmtCase &t) {
        return !diffSmtCase(t).empty();
    };
    if (!fails(cur))
        return cur;
    while (cur.cycles > 64) {
        SmtCase trial = cur;
        trial.cycles /= 2;
        if (!fails(trial))
            break;
        cur = trial;
    }
    const auto tryKnob = [&](auto &&mutate) {
        SmtCase trial = cur;
        mutate(trial);
        if (fails(trial))
            cur = trial;
    };
    tryKnob([](SmtCase &t) { t.config = SmtConfig{}; });
    tryKnob([](SmtCase &t) { t.policy = icountPolicy(); });
    tryKnob([](SmtCase &t) { t.shares.clear(); });
    tryKnob([](SmtCase &t) { t.epoch = t.cycles; });
    for (int i = 0; i < SmtConfig::kThreads; ++i) {
        tryKnob([i](SmtCase &t) {
            SmtAppParams p;
            p.name = t.apps[i].name;
            t.apps[i] = p;
        });
    }
    return cur;
}

// ---------------------------------------------------------------------
// Serial-vs-parallel sweep oracle
// ---------------------------------------------------------------------

namespace {

uint64_t
doubleBits(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Pure, deterministic task: fingerprint of a reference-cache run
 *  plus a short bandit rollout, both derived from @p task_seed. */
uint64_t
sweepTaskFingerprint(uint64_t task_seed)
{
    uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    const auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };

    CacheCase cc = genCacheCase(task_seed);
    ReferenceCache ref(cc.config);
    for (const CacheOp &op : cc.ops) {
        switch (op.kind) {
          case CacheOp::Kind::Lookup: {
            const auto r = ref.lookupDemand(op.line, op.cycle);
            mix(r.hit ? r.readyCycle + 1 : 0);
            break;
          }
          case CacheOp::Kind::DemandFill:
          case CacheOp::Kind::PrefetchFill: {
            const auto e =
                ref.fill(op.line, op.cycle,
                         op.kind == CacheOp::Kind::PrefetchFill);
            mix(e.evictedValid ? e.evictedLine + 1 : 0);
            break;
          }
          case CacheOp::Kind::Invalidate:
            ref.invalidate(op.line);
            break;
          case CacheOp::Kind::Contains:
            mix(ref.contains(op.line));
            break;
          case CacheOp::Kind::Clear:
            ref.clear();
            break;
        }
    }
    mix(ref.demandHits());
    mix(ref.demandMisses());
    mix(ref.occupancy());

    BanditCase bc = genBanditCase(task_seed);
    bc.steps = std::min(bc.steps, 60);
    std::unique_ptr<MabPolicy> policy = makeCasePolicy(bc);
    Rng rew(bc.rewardSeed);
    for (int s = 0; s < bc.steps; ++s) {
        const ArmId arm = policy->selectArm();
        policy->observeReward(rew.uniform(0.0, 2.0) +
                              0.1 * static_cast<double>(arm));
    }
    mix(doubleBits(policy->totalCount()));
    for (double v : policy->armRewards())
        mix(doubleBits(v));
    return h;
}

} // namespace

std::string
checkSweepEquivalence(uint64_t seed)
{
    Rng rng(subSeed(seed, 48));
    const size_t n = 6 + rng.below(8);
    std::vector<uint64_t> task_seeds(n);
    for (size_t i = 0; i < n; ++i)
        task_seeds[i] = subSeed(seed, 100 + i);

    const auto fn = [&](size_t i) {
        return sweepTaskFingerprint(task_seeds[i]);
    };
    SweepRunner serial(1);
    const std::vector<uint64_t> a = serial.runAll<uint64_t>(n, fn);
    SweepRunner pool(4);
    const std::vector<uint64_t> b = pool.runAll<uint64_t>(n, fn);
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return "sweep task " + std::to_string(i) +
                " differs between jobs=1 and jobs=4 (seed " +
                std::to_string(task_seeds[i]) + ")";
    }
    return "";
}

// ---------------------------------------------------------------------
// Top-level harness
// ---------------------------------------------------------------------

void
FuzzReport::merge(const FuzzReport &other)
{
    iterations += other.iterations;
    cacheCases += other.cacheCases;
    banditCases += other.banditCases;
    simCases += other.simCases;
    replayCases += other.replayCases;
    driftCases += other.driftCases;
    smtCases += other.smtCases;
    sweepCases += other.sweepCases;
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
}

uint64_t
iterationSeed(uint64_t seedBase, uint64_t index)
{
    return subSeed(seedBase, index);
}

void
runFuzzIteration(uint64_t caseSeed, FuzzReport &report, bool shrink)
{
    runFuzzIteration(caseSeed, report, shrink, std::string());
}

void
runFuzzIteration(uint64_t caseSeed, FuzzReport &report, bool shrink,
                 const std::string &domain)
{
    ++report.iterations;
    const std::string repro = "bench_fuzz --replay " +
        std::to_string(caseSeed) + " --shrink";
    // Empty domain = every oracle (the default campaign); otherwise
    // only the named one runs, so CI can give a slow domain its own
    // time-capped leg.
    const auto enabled = [&domain](const char *name) {
        return domain.empty() || domain == name;
    };

    if (enabled("cache")) {
        ++report.cacheCases;
        const CacheCase cc = genCacheCase(subSeed(caseSeed, 1));
        std::string err = diffCacheCase(cc);
        if (!err.empty()) {
            if (shrink) {
                const CacheCase min =
                    shrinkCacheCase(cc, optimizedCacheFactory());
                err += "\nminimized to " +
                    std::to_string(min.ops.size()) + " ops:\n" +
                    formatCacheCase(min);
            }
            report.failures.push_back(
                {caseSeed, "cache", err, repro});
        }
    }
    if (enabled("bandit")) {
        ++report.banditCases;
        const BanditCase bc = genBanditCase(subSeed(caseSeed, 2));
        std::string err = diffBanditCase(bc);
        if (!err.empty()) {
            if (shrink) {
                const BanditCase min = shrinkBanditCase(bc);
                err += "\nminimized: " + formatBanditCase(min);
            }
            report.failures.push_back(
                {caseSeed, "bandit", err, repro});
        }
    }
    if (enabled("sim")) {
        ++report.simCases;
        const SimCase sc = genSimCase(subSeed(caseSeed, 3));
        std::string err = checkSimProperties(sc);
        if (!err.empty()) {
            if (shrink) {
                const SimCase min = shrinkSimCase(sc);
                err += "\nminimized: " + formatSimCase(min);
            }
            report.failures.push_back({caseSeed, "sim", err, repro});
        }
    }
    if (enabled("replay")) {
        ++report.replayCases;
        const std::string err = checkReplayEquivalence(caseSeed);
        if (!err.empty())
            report.failures.push_back(
                {caseSeed, "replay", err, repro});
    }
    if (enabled("drift")) {
        ++report.driftCases;
        const DriftCase dc = genDriftCase(subSeed(caseSeed, 5));
        std::string err = diffDriftCase(dc);
        if (!err.empty()) {
            if (shrink) {
                const DriftCase min = shrinkDriftCase(dc);
                err += "\nminimized: " + formatDriftCase(min);
            }
            report.failures.push_back(
                {caseSeed, "drift", err, repro});
        }
    }
    if (enabled("smt")) {
        ++report.smtCases;
        const SmtCase sc = genSmtCase(subSeed(caseSeed, 6));
        std::string err = diffSmtCase(sc);
        if (!err.empty()) {
            if (shrink) {
                const SmtCase min = shrinkSmtCase(sc);
                err += "\nminimized: " + formatSmtCase(min);
            }
            report.failures.push_back({caseSeed, "smt", err, repro});
        }
    }
    // The sweep oracle spawns threads; run it on a deterministic
    // subset of case seeds (~1 in 8) so long fuzz campaigns stay
    // dominated by the cheap checks. A focused --domain sweep run
    // skips the subsampling.
    if (enabled("sweep") &&
        (domain == "sweep" || (caseSeed & 7) == 0)) {
        ++report.sweepCases;
        const std::string err = checkSweepEquivalence(caseSeed);
        if (!err.empty())
            report.failures.push_back(
                {caseSeed, "sweep", err, repro});
    }
}

FuzzReport
runFuzz(const FuzzOptions &opt)
{
    FuzzReport total;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    const int jobs = std::max(1, opt.jobs);
    const uint64_t batch =
        jobs <= 1 ? 16 : static_cast<uint64_t>(jobs) * 8;
    SweepRunner runner(jobs);
    uint64_t index = 0;
    while (true) {
        uint64_t count = batch;
        if (opt.maxSeconds > 0.0) {
            if (elapsed() >= opt.maxSeconds)
                break;
        } else {
            if (index >= opt.iters)
                break;
            count = std::min(batch, opt.iters - index);
        }
        const std::vector<FuzzReport> reports =
            runner.runAll<FuzzReport>(count, [&](size_t k) {
                FuzzReport r;
                runFuzzIteration(
                    iterationSeed(opt.seedBase, index + k), r,
                    opt.shrink, opt.domain);
                return r;
            });
        for (const FuzzReport &r : reports)
            total.merge(r);
        index += count;
        if (!total.ok() && opt.stopOnFailure)
            break;
    }
    return total;
}

} // namespace mab::fuzz
