#include "prefetch/ipcp.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "trace/record.h"

namespace mab {

namespace {

constexpr int kCsThreshold = 2;
constexpr int kGsThreshold = 3;
constexpr int kConfMax = 4;

int
checkedEntries(int table_entries)
{
    if (table_entries < 1)
        throw std::invalid_argument(
            "IpcpPrefetcher: table_entries must be at least 1, got " +
            std::to_string(table_entries));
    return table_entries;
}

} // namespace

IpcpPrefetcher::IpcpPrefetcher(int table_entries, int cs_degree,
                               int gs_degree)
    : csDegree_(cs_degree), gsDegree_(gs_degree),
      table_(static_cast<size_t>(checkedEntries(table_entries))),
      tags_(table_entries)
{
}

uint64_t
IpcpPrefetcher::storageBytes() const
{
    // Per IP entry: tag + last addr + stride + class state.
    return table_.size() * 22 + 8;
}

void
IpcpPrefetcher::reset()
{
    for (auto &e : table_)
        e = IpEntry{};
    tags_.clear();
    lastLine_ = 0;
    globalDir_ = 0;
    globalConf_ = 0;
}

IpcpPrefetcher::IpEntry *
IpcpPrefetcher::lookup(uint64_t pc)
{
    // The entry becomes the most recently used, hit or fresh.
    int slot = tags_.find(pc);
    if (slot >= 0) {
        tags_.touch(slot);
        return &table_[slot];
    }
    slot = tags_.insert(pc);
    table_[slot] = IpEntry{};
    return &table_[slot];
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

} // namespace mab
