#include <algorithm>
#include <cstdio>
#include <sstream>

#include "fuzz/domains.h"
#include "sim/rng.h"

namespace mab::fuzz {

namespace {

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

} // namespace

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

namespace {

/** The implementation under test: wraps mab::Cache unchanged. */
class OptimizedCacheModel final : public CacheModel
{
  public:
    explicit OptimizedCacheModel(const CacheConfig &config)
        : cache_(config)
    {
    }

    Cache::LookupResult
    lookupDemand(uint64_t line, uint64_t cycle) override
    {
        return cache_.lookupDemand(line, cycle);
    }

    bool contains(uint64_t line) const override
    {
        return cache_.contains(line);
    }

    Cache::EvictInfo
    fill(uint64_t line, uint64_t readyCycle, bool prefetch) override
    {
        return cache_.fill(line, readyCycle, prefetch);
    }

    void invalidate(uint64_t line) override
    {
        cache_.invalidate(line);
    }

    void clear() override { cache_.clear(); }

    uint64_t demandHits() const override { return cache_.demandHits; }
    uint64_t demandMisses() const override
    {
        return cache_.demandMisses;
    }
    uint64_t occupancy() const override { return cache_.occupancy(); }

  private:
    Cache cache_;
};

} // namespace

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
    // of the distribution on purpose: the fill path (a probe, then an
    // insert) has boundary behavior there. One case in eight goes wide
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

std::string
checkCache(uint64_t seed, bool shrink)
{
    const CacheCase c = genCacheCase(seed);
    std::string err = diffCacheCase(c);
    if (!err.empty() && shrink) {
        const CacheCase min = shrinkCacheCase(c, optimizedCacheFactory());
        err += "\nminimized to " + std::to_string(min.ops.size()) +
            " ops:\n" + formatCacheCase(min);
    }
    return err;
}

std::string
describeCache(uint64_t seed)
{
    return formatCacheCase(genCacheCase(seed));
}

/**
 * Every planted cache mutation must be caught by the differential loop
 * within a bounded number of case seeds, and the shrinker must reduce
 * the witness to a short repro: the standing proof that a real
 * regression in the single-pass fill probe would be noticed.
 */
bool
selfTestCache(uint64_t seedBase, uint64_t lane, std::string &log)
{
    constexpr int kMaxSeeds = 50;
    constexpr size_t kMaxShrunkOps = 20;
    bool ok = true;
    char line[160];
    for (const CacheMutation m : allCacheMutations()) {
        const CacheModelFactory mutant = mutantCacheFactory(m);
        bool caught = false;
        for (int i = 0; i < kMaxSeeds && !caught; ++i) {
            const CacheCase c =
                genCacheCase(subSeed(iterationSeed(seedBase, i), lane));
            if (diffCacheCase(c, mutant).empty())
                continue;
            caught = true;
            const CacheCase min = shrinkCacheCase(c, mutant);
            std::snprintf(line, sizeof line,
                          "mutant %-28s caught at seed #%d, "
                          "shrunk %zu -> %zu ops\n",
                          toString(m), i, c.ops.size(), min.ops.size());
            log += line;
            if (min.ops.size() > kMaxShrunkOps) {
                std::snprintf(line, sizeof line,
                              "  ERROR: shrunk repro exceeds %zu ops\n",
                              kMaxShrunkOps);
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
