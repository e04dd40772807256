#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "fuzz/domains.h"
#include "fuzz/shrink.h"
#include "prefetch/bingo.h"
#include "prefetch/ensemble.h"
#include "prefetch/ipcp.h"
#include "prefetch/nextline.h"
#include "prefetch/pythia.h"
#include "prefetch/stream.h"
#include "prefetch/stride.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab::fuzz {

namespace {

/** Deliberate faults of the reference models, for the self-test. */
enum class PrefetchMutation
{
    None,
    /** Stream extends the highest-index tracker in the window, not
     *  the lowest. */
    StreamHighestMatch,
    /** Stride evicts its most recently used PC, not the LRU one. */
    StrideEvictsMru,
    /** Pythia credits a line to every decision that predicts it, not
     *  to the first one in flight. */
    PythiaCreditsDuplicates,
};

const char *
toString(PrefetchMutation m)
{
    switch (m) {
      case PrefetchMutation::None: return "None";
      case PrefetchMutation::StreamHighestMatch: return "StreamHighestMatch";
      case PrefetchMutation::StrideEvictsMru: return "StrideEvictsMru";
      case PrefetchMutation::PythiaCreditsDuplicates:
        return "PythiaCreditsDuplicates";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Reference models: the full-table scan implementations that the
// indexed prefetchers of src/prefetch replaced, kept verbatim apart
// from the mutation hooks. Deliberately slow and obvious; never
// optimize these classes.

namespace ref {

class StreamPrefetcher final : public Prefetcher
{
  public:
    StreamPrefetcher(int num_trackers, PrefetchMutation m)
        : trackers_(num_trackers),
          highestMatch_(m == PrefetchMutation::StreamHighestMatch)
    {
    }

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Stream"; }
    uint64_t storageBytes() const override { return 0; }
    void reset() override;

    void setDegree(int degree) { degree_ = degree; }

  private:
    static constexpr int64_t kMatchWindow = 4;
    static constexpr int kTrainThreshold = 2;

    struct Tracker
    {
        uint64_t lastLine = 0;
        int direction = 0;  // +1 / -1; 0 = untrained
        int confidence = 0; // confirmations in the same direction
        uint64_t lastUse = 0;
        bool valid = false;
    };

    int degree_ = 4;
    std::vector<Tracker> trackers_;
    uint64_t useTick_ = 0;
    bool highestMatch_;
};

void
StreamPrefetcher::reset()
{
    for (auto &t : trackers_)
        t = Tracker{};
    useTick_ = 0;
}

void
StreamPrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    Tracker *match = nullptr;
    Tracker *victim = &trackers_[0];
    for (auto &t : trackers_) {
        if (!t.valid) {
            victim = &t;
            continue;
        }
        const int64_t delta = line - static_cast<int64_t>(t.lastLine);
        if (delta != 0 && std::llabs(delta) <= kMatchWindow) {
            match = &t;
            if (highestMatch_)
                continue;
            break;
        }
        if (victim->valid && t.lastUse < victim->lastUse)
            victim = &t;
    }

    if (match) {
        const int64_t delta =
            line - static_cast<int64_t>(match->lastLine);
        const int dir = delta > 0 ? 1 : -1;
        if (match->direction == dir) {
            ++match->confidence;
        } else {
            match->direction = dir;
            match->confidence = 1;
        }
        match->lastLine = static_cast<uint64_t>(line);
        match->lastUse = ++useTick_;

        if (degree_ > 0 && match->confidence >= kTrainThreshold) {
            for (int i = 1; i <= degree_; ++i) {
                const int64_t target = line + static_cast<int64_t>(i) *
                    match->direction;
                if (target > 0)
                    out.push_back(static_cast<uint64_t>(target) *
                                  kLineBytes);
            }
        }
        return;
    }

    // Allocate a fresh tracker for a potential new stream.
    victim->valid = true;
    victim->lastLine = static_cast<uint64_t>(line);
    victim->direction = 0;
    victim->confidence = 0;
    victim->lastUse = ++useTick_;
}

class StridePrefetcher final : public Prefetcher
{
  public:
    StridePrefetcher(int num_trackers, int degree, PrefetchMutation m)
        : degree_(degree), table_(num_trackers),
          evictMru_(m == PrefetchMutation::StrideEvictsMru)
    {
    }

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Stride"; }
    uint64_t storageBytes() const override { return 0; }
    void reset() override;

    void setDegree(int degree) { degree_ = degree; }

  private:
    static constexpr int kConfidenceMax = 3;
    static constexpr int kPrefetchThreshold = 2;

    struct Entry
    {
        uint64_t pcTag = 0;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confidence = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    int degree_;
    std::vector<Entry> table_;
    uint64_t useTick_ = 0;
    bool evictMru_;
};

void
StridePrefetcher::reset()
{
    for (auto &e : table_)
        e = Entry{};
    useTick_ = 0;
}

void
StridePrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    Entry *match = nullptr;
    Entry *victim = &table_[0];
    for (auto &e : table_) {
        if (e.valid && e.pcTag == access.pc) {
            match = &e;
            break;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid &&
                   (evictMru_ ? e.lastUse > victim->lastUse
                              : e.lastUse < victim->lastUse)) {
            victim = &e;
        }
    }

    if (!match) {
        victim->valid = true;
        victim->pcTag = access.pc;
        victim->lastAddr = access.addr;
        victim->stride = 0;
        victim->confidence = 0;
        victim->lastUse = ++useTick_;
        return;
    }

    const int64_t delta = static_cast<int64_t>(access.addr) -
        static_cast<int64_t>(match->lastAddr);
    if (delta != 0 && delta == match->stride) {
        if (match->confidence < kConfidenceMax)
            ++match->confidence;
    } else {
        match->stride = delta;
        match->confidence = delta != 0 ? 1 : 0;
    }
    match->lastAddr = access.addr;
    match->lastUse = ++useTick_;

    if (degree_ > 0 && match->confidence >= kPrefetchThreshold &&
        match->stride != 0) {
        for (int i = 1; i <= degree_; ++i) {
            const int64_t target = static_cast<int64_t>(access.addr) +
                match->stride * i;
            if (target > 0)
                out.push_back(static_cast<uint64_t>(target));
        }
    }
}

class IpcpPrefetcher final : public Prefetcher
{
  public:
    IpcpPrefetcher(int table_entries, int cs_degree, int gs_degree)
        : csDegree_(cs_degree), gsDegree_(gs_degree),
          table_(table_entries)
    {
    }

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "IPCP"; }
    uint64_t storageBytes() const override { return 0; }
    void reset() override;

  private:
    static constexpr int kCsThreshold = 2;
    static constexpr int kGsThreshold = 3;
    static constexpr int kConfMax = 4;

    struct IpEntry
    {
        uint64_t pcTag = 0;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confidence = 0;
        int streamHits = 0; // participation in the global stream
        uint64_t lastUse = 0;
        bool valid = false;
    };

    IpEntry *lookup(uint64_t pc);

    int csDegree_;
    int gsDegree_;
    std::vector<IpEntry> table_;
    uint64_t useTick_ = 0;

    // Global stream detector state.
    int64_t lastLine_ = 0;
    int globalDir_ = 0;
    int globalConf_ = 0;
};

void
IpcpPrefetcher::reset()
{
    for (auto &e : table_)
        e = IpEntry{};
    useTick_ = 0;
    lastLine_ = 0;
    globalDir_ = 0;
    globalConf_ = 0;
}

IpcpPrefetcher::IpEntry *
IpcpPrefetcher::lookup(uint64_t pc)
{
    IpEntry *victim = &table_[0];
    for (auto &e : table_) {
        if (e.valid && e.pcTag == pc)
            return &e;
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    *victim = IpEntry{};
    victim->valid = true;
    victim->pcTag = pc;
    return victim;
}

void
IpcpPrefetcher::onAccess(const PrefetchAccess &access,
                         std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    // Update the global stream detector.
    const int64_t gdelta = line - lastLine_;
    if (gdelta != 0 && std::llabs(gdelta) <= 2) {
        const int dir = gdelta > 0 ? 1 : -1;
        if (dir == globalDir_) {
            if (globalConf_ < kConfMax)
                ++globalConf_;
        } else {
            globalDir_ = dir;
            globalConf_ = 1;
        }
    }
    lastLine_ = line;

    IpEntry *e = lookup(access.pc);
    const bool fresh = e->lastAddr == 0;
    const int64_t delta = static_cast<int64_t>(access.addr) -
        static_cast<int64_t>(e->lastAddr);
    if (!fresh) {
        if (delta != 0 && delta == e->stride) {
            if (e->confidence < kConfMax)
                ++e->confidence;
        } else {
            e->stride = delta;
            e->confidence = delta != 0 ? 1 : 0;
        }
        if (globalConf_ >= kGsThreshold && std::llabs(delta) <= 2 * 64) {
            if (e->streamHits < kConfMax)
                ++e->streamHits;
        } else if (e->streamHits > 0) {
            --e->streamHits;
        }
    }
    e->lastAddr = access.addr;
    e->lastUse = ++useTick_;

    // Class CS: constant-stride IP.
    if (e->confidence >= kCsThreshold && e->stride != 0) {
        for (int i = 1; i <= csDegree_; ++i) {
            const int64_t target = static_cast<int64_t>(access.addr) +
                e->stride * i;
            if (target > 0)
                out.push_back(static_cast<uint64_t>(target));
        }
        return;
    }

    // Class GS: IP rides the global stream.
    if (e->streamHits >= kGsThreshold - 1 &&
        globalConf_ >= kGsThreshold) {
        for (int i = 1; i <= gsDegree_; ++i) {
            const int64_t target = line +
                static_cast<int64_t>(i) * globalDir_;
            if (target > 0)
                out.push_back(static_cast<uint64_t>(target) *
                              kLineBytes);
        }
    }
}

class BingoPrefetcher final : public Prefetcher
{
  public:
    BingoPrefetcher(uint64_t region_bytes, int accumulation_entries,
                    int history_entries);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Bingo"; }
    uint64_t storageBytes() const override { return 0; }
    void reset() override;

  private:
    struct Accumulation
    {
        uint64_t regionBase = 0;
        uint64_t triggerPc = 0;
        int triggerOffset = 0;
        uint64_t footprint = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    struct History
    {
        uint64_t key = 0;
        uint64_t footprint = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    static uint64_t
    hashMix(uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDull;
        x ^= x >> 29;
        return x;
    }

    uint64_t keyLong(uint64_t pc, int offset) const;
    uint64_t keyShort(uint64_t pc) const;
    void storeHistory(uint64_t key, uint64_t footprint);
    const History *findHistory(uint64_t key) const;
    void closeGeneration(Accumulation &acc);

    uint64_t regionBytes_;
    int linesPerRegion_;
    std::vector<Accumulation> accTable_;
    std::vector<History> histTable_;
    uint64_t useTick_ = 0;
};

BingoPrefetcher::BingoPrefetcher(uint64_t region_bytes,
                                 int accumulation_entries,
                                 int history_entries)
    : regionBytes_(region_bytes),
      linesPerRegion_(static_cast<int>(region_bytes / kLineBytes)),
      accTable_(accumulation_entries), histTable_(history_entries)
{
    assert(linesPerRegion_ > 0 && linesPerRegion_ <= 64);
}

void
BingoPrefetcher::reset()
{
    for (auto &a : accTable_)
        a = Accumulation{};
    for (auto &h : histTable_)
        h = History{};
    useTick_ = 0;
}

uint64_t
BingoPrefetcher::keyLong(uint64_t pc, int offset) const
{
    return hashMix(pc * 131 + static_cast<uint64_t>(offset) + 1);
}

uint64_t
BingoPrefetcher::keyShort(uint64_t pc) const
{
    return hashMix(pc * 31 + 0xBEEF);
}

const BingoPrefetcher::History *
BingoPrefetcher::findHistory(uint64_t key) const
{
    // 4-way set-associative lookup.
    const size_t sets = histTable_.size() / 4;
    const size_t set = key % sets;
    for (int w = 0; w < 4; ++w) {
        const History &h = histTable_[set * 4 + w];
        if (h.valid && h.key == key)
            return &h;
    }
    return nullptr;
}

void
BingoPrefetcher::storeHistory(uint64_t key, uint64_t footprint)
{
    const size_t sets = histTable_.size() / 4;
    const size_t set = key % sets;
    History *victim = &histTable_[set * 4];
    for (int w = 0; w < 4; ++w) {
        History &h = histTable_[set * 4 + w];
        if (h.valid && h.key == key) {
            h.footprint = footprint;
            h.lastUse = ++useTick_;
            return;
        }
        if (!h.valid) {
            victim = &h;
        } else if (victim->valid && h.lastUse < victim->lastUse) {
            victim = &h;
        }
    }
    victim->valid = true;
    victim->key = key;
    victim->footprint = footprint;
    victim->lastUse = ++useTick_;
}

void
BingoPrefetcher::closeGeneration(Accumulation &acc)
{
    if (!acc.valid)
        return;
    // Record under both the precise (PC + offset) and the fallback
    // (PC-only) events, as in Bingo's multi-lookup.
    storeHistory(keyLong(acc.triggerPc, acc.triggerOffset),
                 acc.footprint);
    storeHistory(keyShort(acc.triggerPc), acc.footprint);
    acc.valid = false;
}

void
BingoPrefetcher::onAccess(const PrefetchAccess &access,
                          std::vector<uint64_t> &out)
{
    const uint64_t region = access.addr / regionBytes_;
    const uint64_t region_base = region * regionBytes_;
    const int offset = static_cast<int>(
        (access.addr - region_base) / kLineBytes);

    // Already accumulating this region? Keep pulling in the not yet
    // accessed lines of the recorded footprint: this recovers
    // prefetches dropped on full queues and tracks the region as the
    // program walks it (duplicates are filtered at the L2).
    for (auto &acc : accTable_) {
        if (acc.valid && acc.regionBase == region_base) {
            acc.footprint |= 1ull << offset;
            acc.lastUse = ++useTick_;
            const History *h =
                findHistory(keyLong(acc.triggerPc, acc.triggerOffset));
            if (!h)
                h = findHistory(keyShort(acc.triggerPc));
            if (h) {
                const uint64_t remaining =
                    h->footprint & ~acc.footprint;
                for (int line_i = 0; line_i < linesPerRegion_;
                     ++line_i) {
                    if (remaining & (1ull << line_i))
                        out.push_back(
                            region_base +
                            static_cast<uint64_t>(line_i) *
                                kLineBytes);
                }
            }
            return;
        }
    }

    // Trigger access of a new generation: look up the history and
    // prefetch the recorded footprint.
    const History *hist = findHistory(keyLong(access.pc, offset));
    if (!hist)
        hist = findHistory(keyShort(access.pc));
    if (hist) {
        for (int line = 0; line < linesPerRegion_; ++line) {
            if (line == offset)
                continue;
            if (hist->footprint & (1ull << line))
                out.push_back(region_base +
                              static_cast<uint64_t>(line) * kLineBytes);
        }
    }

    // Open a new accumulation entry (evicting the LRU generation).
    Accumulation *victim = &accTable_[0];
    for (auto &acc : accTable_) {
        if (!acc.valid) {
            victim = &acc;
            break;
        }
        if (acc.lastUse < victim->lastUse)
            victim = &acc;
    }
    closeGeneration(*victim);
    victim->valid = true;
    victim->regionBase = region_base;
    victim->triggerPc = access.pc;
    victim->triggerOffset = offset;
    victim->footprint = 1ull << offset;
    victim->lastUse = ++useTick_;
}

class PythiaPrefetcher final : public Prefetcher
{
  public:
    PythiaPrefetcher(const PythiaConfig &config, PrefetchMutation m);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Pythia"; }
    uint64_t storageBytes() const override { return 0; }
    void reset() override;

    static constexpr int kNumActions = 64;

    void
    setBandwidthProbe(std::function<double(uint64_t)> probe)
    {
        bwProbe_ = std::move(probe);
    }

    const std::array<uint64_t, kNumActions> &
    actionCounts() const
    {
        return actionCounts_;
    }

    double qValue(int f0, int f1, int a) const;

  private:
    struct EqEntry
    {
        int f0 = 0;
        int f1 = 0;
        int action = 0;
        bool issued = false;
        double bwUtil = 0.0;
        uint64_t issueCycle = 0;
        int timelyHits = 0;
        int lateHits = 0;
        std::vector<uint64_t> predictedLines;
    };

    static uint64_t
    hashMix(uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDull;
        x ^= x >> 29;
        x *= 0xC4CEB9FE1A85EC53ull;
        x ^= x >> 32;
        return x;
    }

    int featurePc(uint64_t pc) const;
    int featureDeltas() const;
    int selectAction(int f0, int f1);
    void retireOldest();

    PythiaConfig config_;
    Rng rng_;
    std::vector<double> q0_; // [planeEntries x kNumActions]
    std::vector<double> q1_;

    std::deque<EqEntry> eq_;
    std::unordered_map<uint64_t, int> pending_; // line -> eq age id
    int eqNextId_ = 0;
    int eqBaseId_ = 0;

    int64_t lastLine_ = 0;
    int64_t delta1_ = 0;
    int64_t delta2_ = 0;

    std::function<double(uint64_t)> bwProbe_;
    std::array<uint64_t, kNumActions> actionCounts_{};
    bool creditDuplicates_;
};

PythiaPrefetcher::PythiaPrefetcher(const PythiaConfig &config,
                                   PrefetchMutation m)
    : config_(config), rng_(config.seed),
      q0_(static_cast<size_t>(config.planeEntries) * kNumActions,
          config.qInit / 2.0),
      q1_(static_cast<size_t>(config.planeEntries) * kNumActions,
          config.qInit / 2.0),
      creditDuplicates_(m == PrefetchMutation::PythiaCreditsDuplicates)
{
}

void
PythiaPrefetcher::reset()
{
    std::fill(q0_.begin(), q0_.end(), config_.qInit / 2.0);
    std::fill(q1_.begin(), q1_.end(), config_.qInit / 2.0);
    eq_.clear();
    pending_.clear();
    eqNextId_ = 0;
    eqBaseId_ = 0;
    lastLine_ = 0;
    delta1_ = 0;
    delta2_ = 0;
    actionCounts_.fill(0);
    rng_.reseed(config_.seed);
}

int
PythiaPrefetcher::featurePc(uint64_t pc) const
{
    return static_cast<int>(hashMix(pc) %
                            static_cast<uint64_t>(config_.planeEntries));
}

int
PythiaPrefetcher::featureDeltas() const
{
    const uint64_t key = hashMix(static_cast<uint64_t>(delta1_) * 131 +
                                 static_cast<uint64_t>(delta2_) * 7 + 3);
    return static_cast<int>(key %
                            static_cast<uint64_t>(config_.planeEntries));
}

double
PythiaPrefetcher::qValue(int f0, int f1, int a) const
{
    return q0_[static_cast<size_t>(f0) * kNumActions + a] +
        q1_[static_cast<size_t>(f1) * kNumActions + a];
}

int
PythiaPrefetcher::selectAction(int f0, int f1)
{
    if (rng_.bernoulli(config_.epsilon))
        return static_cast<int>(rng_.below(kNumActions));
    int best = 0;
    double best_q = qValue(f0, f1, 0);
    for (int a = 1; a < kNumActions; ++a) {
        const double q = qValue(f0, f1, a);
        if (q > best_q) {
            best_q = q;
            best = a;
        }
    }
    return best;
}

void
PythiaPrefetcher::retireOldest()
{
    EqEntry e = std::move(eq_.front());
    eq_.pop_front();
    const int retired_id = eqBaseId_++;

    for (uint64_t line : e.predictedLines) {
        auto it = pending_.find(line);
        if (it != pending_.end() && it->second == retired_id)
            pending_.erase(it);
    }

    double reward;
    if (e.issued) {
        // Per-line reward: every timely covered line earns credit,
        // every uncovered line costs a bandwidth-scaled penalty.
        // Deep accurate actions (high degree) therefore strictly
        // dominate shallow ones — the pressure that drives Pythia
        // toward deep lookahead on streams.
        const double timely = static_cast<double>(e.timelyHits);
        const double late = static_cast<double>(e.lateHits);
        const double miss =
            static_cast<double>(e.predictedLines.size()) - timely -
            late;
        reward = timely * config_.rewardHit +
            late * config_.rewardLate +
            miss * (config_.rewardMiss -
                    config_.bwPenaltyScale * e.bwUtil);
    } else {
        reward = config_.rewardNone +
            0.5 * config_.bwPenaltyScale * e.bwUtil;
    }

    // SARSA: the next decision in program order provides (s', a').
    double q_next = 0.0;
    if (!eq_.empty()) {
        const EqEntry &n = eq_.front();
        q_next = qValue(n.f0, n.f1, n.action);
    }

    const double q_sa = qValue(e.f0, e.f1, e.action);
    const double delta = reward + config_.gamma * q_next - q_sa;
    const double step = config_.alpha * delta * 0.5;
    q0_[static_cast<size_t>(e.f0) * kNumActions + e.action] += step;
    q1_[static_cast<size_t>(e.f1) * kNumActions + e.action] += step;
}

void
PythiaPrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    // Reward matching: did this demand access validate a prediction?
    auto it = pending_.find(static_cast<uint64_t>(line));
    if (it != pending_.end()) {
        const int idx = it->second - eqBaseId_;
        if (idx >= 0 && idx < static_cast<int>(eq_.size())) {
            EqEntry &entry = eq_[idx];
            const uint64_t elapsed = access.cycle - entry.issueCycle;
            if (elapsed >= config_.lateThresholdCycles)
                ++entry.timelyHits;
            else
                ++entry.lateHits;
        }
        pending_.erase(it);
    }

    const int f0 = featurePc(access.pc);
    const int f1 = featureDeltas();
    const int action = selectAction(f0, f1);
    ++actionCounts_[action];

    const int offset = mab::PythiaPrefetcher::offsets()[action >> 2];
    const int degree = mab::PythiaPrefetcher::degrees()[action & 3];

    EqEntry entry;
    entry.f0 = f0;
    entry.f1 = f1;
    entry.action = action;
    entry.issued = offset != 0;
    entry.bwUtil = bwProbe_ ? bwProbe_(access.cycle) : 0.0;
    entry.issueCycle = access.cycle;

    if (offset != 0) {
        // A degree-d action applies the offset d times (a run of
        // strided lookaheads: works for unit streams and for larger
        // strides alike).
        for (int i = 1; i <= degree; ++i) {
            const int64_t target = line +
                static_cast<int64_t>(offset) * i;
            if (target <= 0)
                continue;
            // Always re-issue (the L2 filters lines it already has,
            // and re-issuing heals prefetches dropped on full
            // queues), but credit each line to a single in-flight
            // decision so overlapping deep actions don't penalize
            // each other.
            out.push_back(static_cast<uint64_t>(target) * kLineBytes);
            if (pending_.count(static_cast<uint64_t>(target)) &&
                !creditDuplicates_)
                continue;
            entry.predictedLines.push_back(
                static_cast<uint64_t>(target));
            pending_[static_cast<uint64_t>(target)] = eqNextId_;
        }
        // A fully covered expansion keeps issued=true with no novel
        // lines; its reward is neutral (0), not the no-prefetch one.
    }

    eq_.push_back(std::move(entry));
    ++eqNextId_;
    while (static_cast<int>(eq_.size()) > config_.eqDepth)
        retireOldest();

    // Update the delta history after the decision.
    const int64_t d = line - lastLine_;
    if (d != 0) {
        delta2_ = delta1_;
        delta1_ = d;
    }
    lastLine_ = line;
}

/** The Bandit's ensemble over the reference Stream and Stride. */
class Ensemble final : public Prefetcher
{
  public:
    explicit Ensemble(PrefetchMutation m)
        : stream_(64, m), stride_(64, 0, m)
    {
        applyArm(0);
    }

    void
    onAccess(const PrefetchAccess &access,
             std::vector<uint64_t> &out) override
    {
        nextLine_.onAccess(access, out);
        stream_.onAccess(access, out);
        stride_.onAccess(access, out);
    }

    std::string name() const override { return "BanditEnsemble"; }
    uint64_t storageBytes() const override { return 0; }

    void
    reset() override
    {
        nextLine_.reset();
        stream_.reset();
        stride_.reset();
    }

    void
    applyArm(ArmId arm)
    {
        const PrefetchArm &cfg = prefetchArmTable()[arm];
        nextLine_.setEnabled(cfg.nextLineOn);
        stride_.setDegree(cfg.strideDegree);
        stream_.setDegree(cfg.streamDegree);
    }

  private:
    NextLinePrefetcher nextLine_;
    StreamPrefetcher stream_;
    StridePrefetcher stride_;
};

} // namespace ref

// ---------------------------------------------------------------------
// Cases

enum class PfKind
{
    Stream,
    Stride,
    Ipcp,
    Bingo,
    Pythia,
    Ensemble,
};

const char *
toString(PfKind k)
{
    static const char *const names[] = {"Stream", "Stride", "IPCP",
                                        "Bingo",  "Pythia", "Ensemble"};
    return names[static_cast<int>(k)];
}

/** One operation of a prefetch case. */
struct PfOp
{
    enum class Kind
    {
        Access,    ///< onAccess({pc, addr, cycle})
        SetDegree, ///< setDegree(value) (Stream, Stride)
        ApplyArm,  ///< applyArm(value) (Ensemble)
        Reset,     ///< reset()
    };

    Kind kind = Kind::Access;
    uint64_t pc = 0;
    uint64_t addr = 0;
    uint64_t cycle = 0;
    int value = 0;
};

/**
 * A prefetch differential case: one prefetcher kind, its geometry and
 * an op stream built to reach the cases the indexed tables must get
 * right — repeated lines, converging streams, more PCs or regions
 * than entries, targets at or below line 0, degree and arm changes,
 * and resets.
 */
struct PrefetchCase
{
    PfKind kind = PfKind::Stream;
    /** Stream trackers, Stride/IPCP entries, Bingo accumulation
     *  entries. */
    int entries = 64;
    /** Initial Stream/Stride degree; IPCP's CS degree. */
    int degree = 2;
    /** IPCP's GS degree. */
    int gsDegree = 4;
    uint64_t regionBytes = 2048;
    int historyEntries = 2048;
    PythiaConfig pythia;
    /** Pythia gets a deterministic DRAM-utilization probe. */
    bool bwProbe = false;
    std::vector<PfOp> ops;
};

uint64_t
opsDigest(const std::vector<PfOp> &ops)
{
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (const PfOp &op : ops) {
        mix(static_cast<uint64_t>(op.kind));
        mix(op.pc);
        mix(op.addr);
        mix(op.cycle);
        mix(static_cast<uint64_t>(op.value));
    }
    return h;
}

std::string
formatOp(size_t index, const PfOp &op)
{
    std::ostringstream os;
    os << "[" << index << "] ";
    switch (op.kind) {
      case PfOp::Kind::Access:
        os << "access pc=0x" << std::hex << op.pc << " line=0x"
           << op.addr / kLineBytes << " addr=0x" << op.addr << std::dec
           << " cycle=" << op.cycle;
        break;
      case PfOp::Kind::SetDegree: os << "setDegree " << op.value; break;
      case PfOp::Kind::ApplyArm: os << "applyArm " << op.value; break;
      case PfOp::Kind::Reset: os << "reset"; break;
    }
    return os.str();
}

/** One-line summary of @p c (with a digest of its op stream), then
 *  every op when @p listOps is set. */
std::string
formatPrefetchCase(const PrefetchCase &c, bool listOps)
{
    std::ostringstream os;
    os << "prefetch case: kind=" << toString(c.kind);
    switch (c.kind) {
      case PfKind::Stream:
      case PfKind::Stride:
        os << " entries=" << c.entries << " degree=" << c.degree;
        break;
      case PfKind::Ipcp:
        os << " entries=" << c.entries << " cs=" << c.degree
           << " gs=" << c.gsDegree;
        break;
      case PfKind::Bingo:
        os << " entries=" << c.entries << " region=" << c.regionBytes
           << " history=" << c.historyEntries;
        break;
      case PfKind::Pythia:
        os << " planes=" << c.pythia.planeEntries
           << " eq=" << c.pythia.eqDepth << " eps=" << c.pythia.epsilon
           << " qInit=" << c.pythia.qInit << " rewards="
           << c.pythia.rewardHit << "/" << c.pythia.rewardMiss << "/"
           << c.pythia.rewardNone << " seed=" << c.pythia.seed
           << " bw=" << c.bwProbe;
        break;
      case PfKind::Ensemble: break;
    }
    os << " ops=" << c.ops.size() << " digest=0x" << std::hex
       << opsDigest(c.ops) << std::dec;
    if (listOps) {
        for (size_t i = 0; i < c.ops.size(); ++i)
            os << "\n  " << formatOp(i, c.ops[i]);
    }
    return os.str();
}

/** An access stream walking lines in one direction. */
struct Walker
{
    int64_t line = 0;
    int dir = 1;
    int step = 1;
    uint64_t pc = 0;
};

PrefetchCase
genPrefetchCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 170));
    PrefetchCase c;
    c.kind = static_cast<PfKind>(rng.below(6));
    // Geometry: 1-64 entries, skewed small so tables fill and evict.
    c.entries = rng.bernoulli(0.3)
        ? 1 + static_cast<int>(rng.below(4))
        : 1 + static_cast<int>(rng.below(64));
    if (c.kind == PfKind::Ensemble)
        c.entries = 64;
    c.degree = static_cast<int>(rng.below(16));
    c.gsDegree = static_cast<int>(rng.below(7));
    c.regionBytes = kLineBytes << rng.below(7); // 1-64 lines
    c.historyEntries = 4 * (1 << rng.below(10)) +
        static_cast<int>(rng.below(4));
    c.pythia.planeEntries = rng.bernoulli(0.3)
        ? 96
        : 1 + static_cast<int>(rng.below(128));
    c.pythia.eqDepth = static_cast<int>(rng.below(81));
    static const double eps[] = {0.0, 0.01, 0.2, 1.0};
    c.pythia.epsilon = eps[rng.below(4)];
    // Signed zeros, infinities and NaNs reach the Q planes through
    // qInit and the rewards: ties, +-0, +-Inf and NaN sums for the
    // packed action scan.
    constexpr double inf = std::numeric_limits<double>::infinity();
    static const double q_inits[] = {0.0, 24.0, -0.0, inf, -inf};
    c.pythia.qInit = q_inits[rng.below(5)];
    if (rng.bernoulli(0.15)) {
        static const double special[] = {
            inf, -inf, std::numeric_limits<double>::quiet_NaN()};
        double *rewards[] = {&c.pythia.rewardHit, &c.pythia.rewardMiss,
                             &c.pythia.rewardNone};
        *rewards[rng.below(3)] = special[rng.below(3)];
    }
    c.pythia.seed = rng.next64();
    c.bwProbe = rng.bernoulli(0.5);

    // A handful of walkers in converging pairs (one up, one down,
    // 5-40 lines apart), a PC pool larger or smaller than the table,
    // and a base either near line 0 or far from it.
    const int64_t base = rng.bernoulli(0.5)
        ? static_cast<int64_t>(rng.below(64))
        : static_cast<int64_t>(rng.below(1ull << 30));
    const uint64_t pcs = 1 + rng.below(static_cast<uint64_t>(
                                 2 * c.entries + 8));
    const auto pickPc = [&] { return 0x400000 + 4 * rng.below(pcs); };
    std::vector<Walker> walkers;
    const size_t pairs = 1 + rng.below(4);
    for (size_t i = 0; i < pairs; ++i) {
        const int64_t at = base + static_cast<int64_t>(rng.below(256));
        const int gap = 5 + static_cast<int>(rng.below(36));
        const int step = 1 + static_cast<int>(rng.below(3));
        walkers.push_back({at, 1, step, pickPc()});
        walkers.push_back({at + gap, -1, step, pickPc()});
    }
    // Per-PC byte strides for the PC-indexed tables.
    std::vector<int64_t> strides(pcs);
    for (int64_t &s : strides)
        s = rng.bernoulli(0.5) ? 64 * rng.range(-4, 4) : rng.range(-96, 96);
    std::vector<uint64_t> pcAddr(pcs);
    for (uint64_t &a : pcAddr)
        a = static_cast<uint64_t>(base) * kLineBytes + rng.below(1 << 20);

    const size_t n_ops = 50 + rng.below(1500);
    uint64_t cycle = rng.below(1000);
    PfOp last;
    for (size_t i = 0; i < n_ops; ++i) {
        PfOp op;
        const uint64_t r = rng.below(1000);
        if (r < 15) {
            op.kind = PfOp::Kind::Reset;
        } else if (r < 45 &&
                   (c.kind == PfKind::Stream || c.kind == PfKind::Stride)) {
            op.kind = PfOp::Kind::SetDegree;
            op.value = static_cast<int>(rng.range(-1, 15));
        } else if (r < 75 && c.kind == PfKind::Ensemble) {
            op.kind = PfOp::Kind::ApplyArm;
            op.value = static_cast<int>(
                rng.below(BanditEnsemblePrefetcher::numArms()));
        } else {
            cycle += rng.below(400);
            op.cycle = cycle;
            const uint64_t a = rng.below(100);
            if (a < 10 && last.kind == PfOp::Kind::Access) {
                // The same line again (a second Stream tracker).
                op.pc = last.pc;
                op.addr = last.addr;
            } else if (a < 55) {
                Walker &w = walkers[rng.below(walkers.size())];
                w.line += w.dir * w.step;
                if (w.line < 0)
                    w.line = 0;
                op.pc = w.pc;
                op.addr = static_cast<uint64_t>(w.line) * kLineBytes +
                    rng.below(kLineBytes);
            } else if (a < 70) {
                // Near a walker: windows overlap, regions re-trigger.
                const Walker &w = walkers[rng.below(walkers.size())];
                const int64_t line =
                    std::max<int64_t>(0, w.line + rng.range(-8, 8));
                op.pc = pickPc();
                op.addr = static_cast<uint64_t>(line) * kLineBytes;
            } else if (a < 80) {
                // Lines 0-15: zero and negative targets.
                op.pc = pickPc();
                op.addr = rng.below(16 * kLineBytes);
            } else {
                // A PC's own stride.
                const uint64_t p = rng.below(pcs);
                pcAddr[p] = static_cast<uint64_t>(std::max<int64_t>(
                    0, static_cast<int64_t>(pcAddr[p]) + strides[p]));
                op.pc = 0x400000 + 4 * p;
                op.addr = pcAddr[p];
            }
        }
        c.ops.push_back(op);
        last = op;
    }
    return c;
}

// ---------------------------------------------------------------------
// The differential

/** A prefetcher under test and the case knobs it takes. */
struct Subject
{
    std::unique_ptr<Prefetcher> pf;
    std::function<void(int)> setDegree;
    std::function<void(int)> applyArm;
    /** Learned state compared at the end of the case (Pythia). */
    std::function<std::vector<uint64_t>()> state;
};

double
probe(uint64_t cycle)
{
    return static_cast<double>(cycle % 101) / 100.0;
}

/** actionCounts() and the bit patterns of sampled qValue()s. */
template <typename P>
std::vector<uint64_t>
pythiaState(const P &p, const PythiaConfig &cfg)
{
    std::vector<uint64_t> words(p.actionCounts().begin(),
                                p.actionCounts().end());
    Rng rng(cfg.seed ^ 0x5151);
    for (int i = 0; i < 64; ++i) {
        const int f0 = static_cast<int>(
            rng.below(static_cast<uint64_t>(cfg.planeEntries)));
        const int f1 = static_cast<int>(
            rng.below(static_cast<uint64_t>(cfg.planeEntries)));
        const double q = p.qValue(f0, f1, static_cast<int>(rng.below(64)));
        uint64_t bits;
        std::memcpy(&bits, &q, sizeof bits);
        words.push_back(bits);
    }
    return words;
}

template <typename Stream, typename Stride, typename Ipcp, typename Bingo,
          typename Pythia, typename Ensemble, typename... Extra>
Subject
makeSubject(const PrefetchCase &c, Extra... extra)
{
    Subject s;
    switch (c.kind) {
      case PfKind::Stream: {
        auto p = std::make_unique<Stream>(c.entries, extra...);
        p->setDegree(c.degree);
        s.setDegree = [q = p.get()](int d) { q->setDegree(d); };
        s.pf = std::move(p);
        break;
      }
      case PfKind::Stride: {
        auto p = std::make_unique<Stride>(c.entries, c.degree, extra...);
        s.setDegree = [q = p.get()](int d) { q->setDegree(d); };
        s.pf = std::move(p);
        break;
      }
      case PfKind::Ipcp:
        s.pf = std::make_unique<Ipcp>(c.entries, c.degree, c.gsDegree);
        break;
      case PfKind::Bingo:
        s.pf = std::make_unique<Bingo>(c.regionBytes, c.entries,
                                       c.historyEntries);
        break;
      case PfKind::Pythia: {
        auto p = std::make_unique<Pythia>(c.pythia, extra...);
        if (c.bwProbe)
            p->setBandwidthProbe(probe);
        s.state = [q = p.get(), cfg = c.pythia] {
            return pythiaState(*q, cfg);
        };
        s.pf = std::move(p);
        break;
      }
      case PfKind::Ensemble: {
        auto p = std::make_unique<Ensemble>(extra...);
        s.applyArm = [q = p.get()](int a) { q->applyArm(a); };
        s.pf = std::move(p);
        break;
      }
    }
    return s;
}

std::string
formatLines(const std::vector<uint64_t> &v)
{
    std::ostringstream os;
    os << "{" << std::hex;
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? " 0x" : "0x") << v[i];
    os << "}";
    return os.str();
}

/**
 * Run @p c through the prefetcher of src/prefetch and through the
 * reference model carrying @p m, comparing every emitted address
 * vector and, at the end, Pythia's action counts and sampled Q-values.
 * Returns "" on agreement, else the first divergence.
 */
std::string
diffPrefetchCase(const PrefetchCase &c, PrefetchMutation m)
{
    Subject impl =
        makeSubject<StreamPrefetcher, StridePrefetcher, IpcpPrefetcher,
                    BingoPrefetcher, PythiaPrefetcher,
                    BanditEnsemblePrefetcher>(c);
    Subject model =
        makeSubject<ref::StreamPrefetcher, ref::StridePrefetcher,
                    ref::IpcpPrefetcher, ref::BingoPrefetcher,
                    ref::PythiaPrefetcher, ref::Ensemble>(c, m);
    std::vector<uint64_t> a, b;
    for (size_t i = 0; i < c.ops.size(); ++i) {
        const PfOp &op = c.ops[i];
        switch (op.kind) {
          case PfOp::Kind::Access: {
            PrefetchAccess acc;
            acc.pc = op.pc;
            acc.addr = op.addr;
            acc.cycle = op.cycle;
            a.clear();
            b.clear();
            impl.pf->onAccess(acc, a);
            model.pf->onAccess(acc, b);
            if (a != b)
                return formatOp(i, op) + ": impl " + formatLines(a) +
                    " ref " + formatLines(b);
            break;
          }
          case PfOp::Kind::SetDegree:
            impl.setDegree(op.value);
            model.setDegree(op.value);
            break;
          case PfOp::Kind::ApplyArm:
            impl.applyArm(op.value);
            model.applyArm(op.value);
            break;
          case PfOp::Kind::Reset:
            impl.pf->reset();
            model.pf->reset();
            break;
        }
    }
    if (impl.state) {
        const std::vector<uint64_t> x = impl.state(), y = model.state();
        for (size_t i = 0; i < x.size(); ++i) {
            if (x[i] != y[i])
                return std::string("end state word ") + std::to_string(i) +
                    (i < 64 ? " (actionCounts)" : " (qValue bits)") +
                    ": impl " + std::to_string(x[i]) + " ref " +
                    std::to_string(y[i]);
        }
    }
    return "";
}

/** Shrink a failing case: smaller Pythia knobs, ddmin chunk removal
 *  over the op stream, then fewer entries and the knobs again. */
PrefetchCase
shrinkPrefetchCase(const PrefetchCase &c, PrefetchMutation m)
{
    const auto fails = [m](const PrefetchCase &t) {
        return !diffPrefetchCase(t, m).empty();
    };
    const std::vector<std::function<void(PrefetchCase &)>> knobs = {
        [](PrefetchCase &t) { t.bwProbe = false; },
        [](PrefetchCase &t) { t.pythia.eqDepth = 1; },
        [](PrefetchCase &t) { t.pythia.planeEntries = 1; },
        [](PrefetchCase &t) { t.pythia.epsilon = 1.0; }};
    PrefetchCase cur = shrinkCase(c, fails, {}, knobs);
    if (!fails(cur))
        return cur;
    size_t chunk = std::max<size_t>(1, cur.ops.size() / 2);
    while (true) {
        for (size_t start = 0; start < cur.ops.size();) {
            PrefetchCase trial = cur;
            const size_t end = std::min(start + chunk, trial.ops.size());
            trial.ops.erase(trial.ops.begin() + start,
                            trial.ops.begin() + end);
            if (!trial.ops.empty() && fails(trial))
                cur = std::move(trial); // keep; retry the same offset
            else
                start += chunk;
        }
        if (chunk == 1)
            break;
        chunk = std::max<size_t>(1, chunk / 2);
    }
    return shrinkCase(
        cur, fails,
        {[](PrefetchCase &t) {
            return t.kind != PfKind::Ensemble && halveAbove(t.entries, 1);
        }},
        knobs);
}

} // namespace

std::string
checkPrefetch(uint64_t seed, bool shrink)
{
    const PrefetchCase c = genPrefetchCase(seed);
    std::string err = diffPrefetchCase(c, PrefetchMutation::None);
    if (!err.empty()) {
        err = formatPrefetchCase(c, false) + ": " + err;
        if (shrink)
            err += "\nminimized: " +
                formatPrefetchCase(
                    shrinkPrefetchCase(c, PrefetchMutation::None), true);
    }
    return err;
}

std::string
describePrefetch(uint64_t seed)
{
    return formatPrefetchCase(genPrefetchCase(seed), false);
}

/**
 * Every planted reference-model fault must be caught by the
 * differential within a bounded number of case seeds and shrunk to a
 * short repro: the standing proof that the domain would notice the
 * indexed tables breaking the scan's rules.
 */
bool
selfTestPrefetch(uint64_t seedBase, uint64_t lane, std::string &log)
{
    constexpr int kMaxSeeds = 100;
    // Looser than the cache domain's 20: removing an op of a Pythia
    // case re-draws every later exploratory action.
    constexpr size_t kMaxShrunkOps = 50;
    bool ok = true;
    char line[160];
    for (const PrefetchMutation m :
         {PrefetchMutation::StreamHighestMatch,
          PrefetchMutation::StrideEvictsMru,
          PrefetchMutation::PythiaCreditsDuplicates}) {
        bool caught = false;
        for (int i = 0; i < kMaxSeeds && !caught; ++i) {
            const PrefetchCase c =
                genPrefetchCase(subSeed(iterationSeed(seedBase, i), lane));
            if (diffPrefetchCase(c, m).empty())
                continue;
            caught = true;
            const PrefetchCase min = shrinkPrefetchCase(c, m);
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
