#include "memory/dram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "trace/record.h"

namespace mab {

namespace {

/** A rate that scales cyclesPerLine_: finite and above 0, else the
 *  per-line time is infinite, zero or NaN and its uint64_t cast is
 *  undefined. */
void
checkRate(double value, const char *field)
{
    if (!std::isfinite(value) || value <= 0.0)
        throw std::invalid_argument(std::string("DramConfig: ") + field +
                                    " " + std::to_string(value) +
                                    " must be finite and above 0");
}

} // namespace

Dram::Dram(const DramConfig &config) : config_(config)
{
    checkRate(config_.mtps, "mtps");
    checkRate(config_.coreGhz, "coreGhz");
    if (config_.busBytes <= 0)
        throw std::invalid_argument(
            "DramConfig: busBytes " + std::to_string(config_.busBytes) +
            " must be above 0");
    const double transfers_per_line =
        static_cast<double>(kLineBytes) / config_.busBytes;
    const double core_hz = config_.coreGhz * 1e9;
    const double transfer_hz = config_.mtps * 1e6;
    cyclesPerLine_ = transfers_per_line * core_hz / transfer_hz;
}

uint64_t
Dram::schedule(uint64_t cycle, bool demand)
{
    const double now = static_cast<double>(cycle);
    double start;
    if (demand) {
        // Demand reads queue only behind older demand traffic (the
        // controller deprioritizes / preempts queued prefetches).
        start = std::max(now, demandFreeAt_);
        demandFreeAt_ = start + cyclesPerLine_;
        allFreeAt_ = std::max(allFreeAt_, demandFreeAt_);
    } else {
        // Prefetches queue behind everything.
        start = std::max(now, allFreeAt_);
        allFreeAt_ = start + cyclesPerLine_;
    }
    busFreeAt_ = static_cast<uint64_t>(allFreeAt_);
    ++transfers_;
    demandTransfers_ += demand ? 1 : 0;

    const double queue_wait = start - now;
    return cycle + config_.baseLatencyCycles +
        static_cast<uint64_t>(queue_wait + cyclesPerLine_);
}

void
Dram::exportStats(StatsRegistry &reg, const std::string &prefix,
                  uint64_t cycles) const
{
    reg.setCounter(prefix + ".transfers", transfers_);
    reg.setCounter(prefix + ".demandTransfers", demandTransfers_);
    reg.setCounter(prefix + ".prefetchTransfers",
                   transfers_ - demandTransfers_);
    reg.setScalar(prefix + ".busBusyCycles", busBusyCycles());
    reg.setScalar(prefix + ".cyclesPerLine", cyclesPerLine_);
    if (cycles != 0) {
        reg.setScalar(prefix + ".busUtilization",
                      busBusyCycles() / static_cast<double>(cycles));
    }
}

void
Dram::reset()
{
    demandFreeAt_ = 0.0;
    allFreeAt_ = 0.0;
    busFreeAt_ = 0;
    transfers_ = 0;
    demandTransfers_ = 0;
}

} // namespace mab
