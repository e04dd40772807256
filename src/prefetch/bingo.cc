#include "prefetch/bingo.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "trace/record.h"

namespace mab {

namespace {

uint64_t
hashMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    return x;
}

/** A region is 1 to 64 whole lines, so each line offset has a bit
 *  of the 64-bit footprint. */
uint64_t
checkedRegion(uint64_t region_bytes)
{
    const uint64_t lines = region_bytes / kLineBytes;
    if (region_bytes % kLineBytes != 0 || lines < 1 || lines > 64)
        throw std::invalid_argument(
            "BingoPrefetcher: region_bytes must be 1 to 64 whole lines, "
            "got " + std::to_string(region_bytes) + " bytes");
    return region_bytes;
}

int
checkedAccumulation(int accumulation_entries)
{
    if (accumulation_entries < 1)
        throw std::invalid_argument(
            "BingoPrefetcher: accumulation_entries must be at least 1, "
            "got " + std::to_string(accumulation_entries));
    return accumulation_entries;
}

/** History sets - 1; the set index is a mask of the key. */
uint64_t
checkedSetMask(int history_entries)
{
    const int sets = history_entries / 4;
    if (sets < 1 || !std::has_single_bit(static_cast<unsigned>(sets)))
        throw std::invalid_argument(
            "BingoPrefetcher: history_entries / 4 must be a power-of-two "
            "set count, got " + std::to_string(history_entries) +
            " entries");
    return static_cast<uint64_t>(sets) - 1;
}

} // namespace

BingoPrefetcher::BingoPrefetcher(uint64_t region_bytes,
                                 int accumulation_entries,
                                 int history_entries)
    : regionBytes_(checkedRegion(region_bytes)),
      accTable_(static_cast<size_t>(
          checkedAccumulation(accumulation_entries))),
      accTags_(accumulation_entries),
      histSetMask_(checkedSetMask(history_entries)),
      histTable_(static_cast<size_t>(history_entries))
{
}

uint64_t
BingoPrefetcher::storageBytes() const
{
    // Accumulation: 8B base + 8B PC + 8B footprint + ~2B state.
    // History: 4B compressed key + 8B footprint (two tables, long and
    // short keys share entries here).
    return accTable_.size() * 26 + histTable_.size() * 12;
}

void
BingoPrefetcher::reset()
{
    for (auto &a : accTable_)
        a = Accumulation{};
    accTags_.clear();
    for (auto &h : histTable_)
        h = History{};
    histTick_ = 0;
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
    const size_t set = key & histSetMask_;
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
    const size_t set = key & histSetMask_;
    History *victim = &histTable_[set * 4];
    for (int w = 0; w < 4; ++w) {
        History &h = histTable_[set * 4 + w];
        if (h.valid && h.key == key) {
            h.footprint = footprint;
            h.lastUse = ++histTick_;
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
    victim->lastUse = ++histTick_;
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
BingoPrefetcher::emitLines(uint64_t regionBase, uint64_t lines,
                           std::vector<uint64_t> &out) const
{
    // Every footprint bit is a line of the region; lowest first.
    for (; lines; lines &= lines - 1)
        out.push_back(regionBase +
                      static_cast<uint64_t>(std::countr_zero(lines)) *
                          kLineBytes);
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
    const int slot = accTags_.find(region_base);
    if (slot >= 0) {
        Accumulation &acc = accTable_[slot];
        acc.footprint |= 1ull << offset;
        accTags_.touch(slot);
        const History *h =
            findHistory(keyLong(acc.triggerPc, acc.triggerOffset));
        if (!h)
            h = findHistory(keyShort(acc.triggerPc));
        if (h)
            emitLines(region_base, h->footprint & ~acc.footprint, out);
        return;
    }

    // Trigger access of a new generation: look up the history and
    // prefetch the recorded footprint.
    const History *hist = findHistory(keyLong(access.pc, offset));
    if (!hist)
        hist = findHistory(keyShort(access.pc));
    if (hist)
        emitLines(region_base, hist->footprint & ~(1ull << offset), out);

    // Open a new accumulation entry (evicting the LRU generation).
    Accumulation &victim = accTable_[accTags_.insert(region_base)];
    closeGeneration(victim);
    victim.valid = true;
    victim.triggerPc = access.pc;
    victim.triggerOffset = offset;
    victim.footprint = 1ull << offset;
}

} // namespace mab
