#include "trace/replay.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "trace/arena_file.h"

namespace mab {

namespace {

constexpr uint64_t kDefaultBudgetBytes = 512ull << 20;

/** Exact double spelling: the bit pattern, so fingerprints of
 *  profiles differing by one ULP still differ. */
void
appendBits(std::string &out, double v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(v)));
    out += buf;
    out += ',';
}

void
appendBits(std::string &out, uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    out += buf;
    out += ',';
}

} // namespace

std::string
profileFingerprint(const AppProfile &profile)
{
    std::string key = profile.name;
    key += '|';
    appendBits(key, profile.seed);
    key += profile.loopPhases ? '1' : '0';
    key += '|';
    for (const PatternPhase &ph : profile.phases) {
        appendBits(key, static_cast<uint64_t>(ph.kind));
        appendBits(key, ph.memFraction);
        appendBits(key, ph.storeFraction);
        appendBits(key, ph.branchFraction);
        appendBits(key, ph.mispredictRate);
        appendBits(key, ph.footprintBytes);
        appendBits(key, static_cast<uint64_t>(ph.strideBytes));
        appendBits(key, static_cast<uint64_t>(ph.numStreams));
        appendBits(key, static_cast<uint64_t>(ph.accessesPerLine));
        appendBits(key, ph.chaseSerialFrac);
        appendBits(key, ph.lengthInstrs);
        key += ';';
    }
    return key;
}

void
ArenaItem::grew(uint64_t ns)
{
    genNs_.fetch_add(ns, std::memory_order_relaxed);
    if (arena_) {
        arena_->genNs_.fetch_add(ns, std::memory_order_relaxed);
        arena_->evictOverBudget(this);
    }
}

template class ChunkedStream<PackedRecord, SyntheticTrace>;

MaterializedTrace::MaterializedTrace(const AppProfile &profile,
                                     uint64_t count)
    : ChunkedStream(SyntheticTrace(profile), count), name_(profile.name),
      dataBase_(generator().dataBase())
{
}

MaterializedTrace::MaterializedTrace(const AppProfile &profile,
                                     uint64_t count,
                                     const PackedRecord *payload,
                                     std::shared_ptr<PayloadOwner> owner)
    : MaterializedTrace(profile, count)
{
    owner_ = std::move(owner);
    adopt(payload);
}

std::shared_ptr<MaterializedTrace>
MaterializedTrace::generate(const AppProfile &profile, uint64_t count)
{
    auto trace = std::make_shared<MaterializedTrace>(profile, count);
    if (trace->numChunks() > 0)
        trace->chunk(trace->numChunks() - 1);
    return trace;
}

PackedRecord
ReplaySource::nextSlow()
{
    if (pos_ >= size_)
        throwExhausted();
    const uint64_t idx = pos_ >> MaterializedTrace::kChunkShift;
    chunk_ = trace_->chunk(idx, &generated_);
    chunkEnd_ =
        std::min(size_, (idx + 1) << MaterializedTrace::kChunkShift);
    return chunk_[pos_++ & (MaterializedTrace::kChunkWords - 1)];
}

void
ReplaySource::throwExhausted() const
{
    throw std::runtime_error(
        "ReplaySource '" + trace_->name() + "' exhausted after " +
        std::to_string(size_) +
        " records: the run consumed more than was materialized");
}

TraceArena::TraceArena() : budgetBytes_(kDefaultBudgetBytes)
{
    if (const char *env = std::getenv("MAB_TRACE_ARENA")) {
        if (env[0] == '0' && env[1] == '\0')
            enabled_ = false;
    }
    if (const char *env = std::getenv("MAB_TRACE_ARENA_MB")) {
        char *end = nullptr;
        const unsigned long long mb = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0')
            budgetBytes_ = static_cast<uint64_t>(mb) << 20;
    }
    if (const char *env = std::getenv("MAB_TRACE_ARENA_DIR")) {
        if (env[0] != '\0')
            dir_ = env;
    }
}

TraceArena &
TraceArena::global()
{
    static TraceArena arena;
    return arena;
}

bool
TraceArena::enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
}

void
TraceArena::setEnabled(bool on)
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = on;
}

uint64_t
TraceArena::budgetBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return budgetBytes_;
}

void
TraceArena::setBudgetBytes(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    budgetBytes_ = bytes;
}

std::string
TraceArena::dir() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dir_;
}

void
TraceArena::setDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(mu_);
    dir_ = std::move(dir);
}

TraceArena::Stats
TraceArena::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.enabled = enabled_;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.budgetBytes = budgetBytes_;
    s.dir = dir_;
    s.fileHits = fileHits_.load(std::memory_order_relaxed);
    s.fileSpills = fileSpills_.load(std::memory_order_relaxed);
    s.fileRejects = fileRejects_.load(std::memory_order_relaxed);
    s.genMs =
        static_cast<double>(genNs_.load(std::memory_order_relaxed)) / 1e6;
    for (const auto &[key, entry] : map_) {
        if (entry.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
            continue;
        ++s.entries;
        if (const auto &item = entry.fut.get()) {
            s.bytes += item->bytes();
            s.chargedBytes += item->chargedBytes();
        }
    }
    return s;
}

void
TraceArena::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    tick_ = hits_ = misses_ = evictions_ = 0;
    genNs_.store(0, std::memory_order_relaxed);
    fileHits_.store(0, std::memory_order_relaxed);
    fileSpills_.store(0, std::memory_order_relaxed);
    fileRejects_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<ArenaItem>
TraceArena::acquire(const std::string &key, const Generator &gen)
{
    std::shared_future<std::shared_ptr<ArenaItem>> fut;
    std::promise<std::shared_ptr<ArenaItem>> prom;
    bool generate_here = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++tick_;
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.lruTick = tick_;
            ++hits_;
            fut = it->second.fut;
        } else {
            ++misses_;
            Entry e;
            e.fut = fut = prom.get_future().share();
            e.lruTick = tick_;
            map_.emplace(key, std::move(e));
            generate_here = true;
        }
    }

    if (!generate_here) {
        // A hit re-checks the budget too: a smaller budget takes
        // effect here.
        std::shared_ptr<ArenaItem> item =
            fut.get(); // may wait for a concurrent generator
        evictOverBudget(item.get());
        return item;
    }

    // Generate outside the lock: other keys proceed concurrently,
    // same-key acquirers wait on the future installed above.
    std::shared_ptr<ArenaItem> item;
    try {
        item = gen();
    } catch (...) {
        prom.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mu_);
        map_.erase(key);
        throw;
    }
    if (item) {
        // Before the item is shared: what gen() already generated (a
        // cold arena-directory trace) counts now, every later chunk as
        // it is generated, and each growth re-checks the budget.
        item->arena_ = this;
        genNs_.fetch_add(item->genNs_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
    prom.set_value(item);
    evictOverBudget(item.get());
    return item;
}

void
TraceArena::evictOverBudget(const ArenaItem *keep)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (;;) {
        uint64_t total = 0;
        bool kept = false;
        auto victim = map_.end();
        for (auto it = map_.begin(); it != map_.end(); ++it) {
            // In-flight entries have unknown size and a generator
            // about to publish into them: never evict those.
            if (it->second.fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue;
            const auto &item = it->second.fut.get();
            total += item ? item->chargedBytes() : 0;
            if (item.get() == keep) {
                kept = true;
                continue;
            }
            if (victim == map_.end() ||
                it->second.lruTick < victim->second.lruTick)
                victim = it;
        }
        // An item evicted before it grew is no longer charged, so its
        // growth leaves the arena alone.
        if (!kept || total <= budgetBytes_ || victim == map_.end())
            return;
        map_.erase(victim);
        ++evictions_;
    }
}

std::shared_ptr<MaterializedTrace>
TraceArena::acquireTrace(const AppProfile &profile, uint64_t count)
{
    std::string key = "trace:";
    key += profileFingerprint(profile);
    key += '#';
    key += std::to_string(count);
    const std::string diskDir = dir();
    auto item = acquire(key, [&]() -> std::shared_ptr<ArenaItem> {
        if (!diskDir.empty()) {
            // Persistent arena: a warm start mmaps the spilled file
            // (zero generation, one page-cache copy shared by every
            // process); a cold or corrupt-file miss generates
            // eagerly and spills so the *next* process is warm.
            arena_file::LoadResult loaded =
                arena_file::tryLoad(diskDir, key, profile, count);
            if (loaded.status == arena_file::LoadStatus::Ok) {
                fileHits_.fetch_add(1, std::memory_order_relaxed);
                return loaded.trace;
            }
            if (loaded.status == arena_file::LoadStatus::Rejected)
                fileRejects_.fetch_add(1, std::memory_order_relaxed);
            auto trace = MaterializedTrace::generate(profile, count);
            if (arena_file::save(diskDir, key, *trace))
                fileSpills_.fetch_add(1, std::memory_order_relaxed);
            return trace;
        }
        // In-memory arena: construction is cheap — each chunk is
        // generated by the first run that reads it — so a miss never
        // blocks siblings behind a whole-trace generation pass.
        return std::make_shared<MaterializedTrace>(profile, count);
    });
    return std::static_pointer_cast<MaterializedTrace>(item);
}

std::unique_ptr<TraceSource>
makeRunSource(const AppProfile &profile, uint64_t instructions)
{
    TraceArena &arena = TraceArena::global();
    if (instructions == 0 || !arena.enabled())
        return std::make_unique<SyntheticTrace>(profile);
    return std::make_unique<ReplaySource>(
        arena.acquireTrace(profile, instructions));
}

} // namespace mab
