#include "prefetch/stream.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "trace/record.h"

namespace mab {

namespace {

/** Window (in lines) within which an access extends a stream. */
constexpr int64_t kMatchWindow = 4;

/** Confirmations before a stream starts prefetching. */
constexpr int kTrainThreshold = 2;

int
checkedTrackers(int num_trackers)
{
    // The window index keeps one bit per tracker in a 64-bit mask.
    if (num_trackers < 1 || num_trackers > 64)
        throw std::invalid_argument(
            "StreamPrefetcher: num_trackers must be in [1, 64], got " +
            std::to_string(num_trackers));
    return num_trackers;
}

} // namespace

StreamPrefetcher::StreamPrefetcher(int num_trackers)
    : trackers_(static_cast<size_t>(checkedTrackers(num_trackers))),
      order_(num_trackers), window_(kWindowMasks, 0)
{
}

uint64_t
StreamPrefetcher::storageBytes() const
{
    // Per tracker: 8B line address + ~1B direction/confidence/LRU.
    return trackers_.size() * 9;
}

void
StreamPrefetcher::reset()
{
    for (auto &t : trackers_)
        t = Tracker{};
    order_.clear();
    std::fill(window_.begin(), window_.end(), 0);
}

uint64_t &
StreamPrefetcher::windowMask(uint64_t line)
{
    // 8-line buckets: the 9 lines of line +- kMatchWindow always span
    // exactly two adjacent buckets.
    return window_[(line >> 3) & (kWindowMasks - 1)];
}

void
StreamPrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    // The lowest-index allocated tracker within the window, excluding
    // an exact repeat of its last line. Every such tracker is in the
    // masks of the two buckets covering line +- kMatchWindow; testing
    // them in ascending index order keeps the lowest-index-wins rule.
    // (line - kMatchWindow wraps below line 4; its bucket then aliases
    // a far one, which only adds candidates.)
    uint64_t candidates =
        windowMask(static_cast<uint64_t>(line - kMatchWindow)) |
        windowMask(static_cast<uint64_t>(line + kMatchWindow));
    int slot = -1;
    while (candidates) {
        const int i = std::countr_zero(candidates);
        candidates &= candidates - 1;
        const int64_t delta =
            line - static_cast<int64_t>(trackers_[i].lastLine);
        if (delta != 0 && std::llabs(delta) <= kMatchWindow) {
            slot = i;
            break;
        }
    }

    if (slot >= 0) {
        Tracker &match = trackers_[slot];
        const int64_t delta = line - static_cast<int64_t>(match.lastLine);
        const int dir = delta > 0 ? 1 : -1;
        if (match.direction == dir) {
            ++match.confidence;
        } else {
            match.direction = dir;
            match.confidence = 1;
        }
        windowMask(match.lastLine) &= ~(1ull << slot);
        match.lastLine = static_cast<uint64_t>(line);
        windowMask(match.lastLine) |= 1ull << slot;
        order_.touch(slot);

        if (degree_ > 0 && match.confidence >= kTrainThreshold) {
            for (int i = 1; i <= degree_; ++i) {
                const int64_t target = line + static_cast<int64_t>(i) *
                    match.direction;
                if (target > 0)
                    out.push_back(static_cast<uint64_t>(target) *
                                  kLineBytes);
            }
        }
        return;
    }

    // Allocate a fresh tracker for a potential new stream: the
    // highest-index free one, else the least recently used.
    const bool evict = order_.full();
    const int victim = order_.allocate();
    if (evict)
        windowMask(trackers_[victim].lastLine) &= ~(1ull << victim);
    trackers_[victim] = {static_cast<uint64_t>(line), 0, 0};
    windowMask(trackers_[victim].lastLine) |= 1ull << victim;
}

} // namespace mab
