#include "prefetch/stride.h"

#include <stdexcept>
#include <string>

#include "trace/record.h"

namespace mab {

namespace {

constexpr int kConfidenceMax = 3;
constexpr int kPrefetchThreshold = 2;

int
checkedTrackers(int num_trackers)
{
    if (num_trackers < 1)
        throw std::invalid_argument(
            "StridePrefetcher: num_trackers must be at least 1, got " +
            std::to_string(num_trackers));
    return num_trackers;
}

} // namespace

StridePrefetcher::StridePrefetcher(int num_trackers, int degree)
    : degree_(degree),
      table_(static_cast<size_t>(checkedTrackers(num_trackers))),
      tags_(num_trackers)
{
}

uint64_t
StridePrefetcher::storageBytes() const
{
    // Per entry: 8B PC tag + 8B last address + 4B stride + ~1B state.
    return table_.size() * 21;
}

void
StridePrefetcher::reset()
{
    for (auto &e : table_)
        e = Entry{};
    tags_.clear();
}

void
StridePrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int slot = tags_.find(access.pc);
    if (slot < 0) {
        table_[tags_.insert(access.pc)] = {access.addr, 0, 0};
        return;
    }
    tags_.touch(slot);

    Entry *match = &table_[slot];
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

} // namespace mab
