#include "cpu/multicore.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/tracing.h"

namespace mab {

MultiCoreSystem::MultiCoreSystem(const CoreConfig &config,
                                 const HierarchyConfig &hconfig,
                                 const DramConfig &dram, int numCores)
    : coreConfig_(config), hierConfig_(hconfig)
{
    if (numCores < 1)
        throw std::invalid_argument("MultiCoreSystem: numCores " +
                                    std::to_string(numCores) +
                                    " must be at least 1");
    CacheConfig shared_llc = hconfig.llc;
    shared_llc.sizeBytes *= static_cast<uint64_t>(numCores);
    llc_ = std::make_unique<Cache>(shared_llc);
    dram_ = std::make_unique<Dram>(dram);
    cores_.resize(numCores);
}

void
MultiCoreSystem::attachCore(int index, TraceSource &trace,
                            Prefetcher *l2pf)
{
    if (index < 0 || index >= static_cast<int>(cores_.size()))
        throw std::out_of_range("MultiCoreSystem::attachCore: index " +
                                std::to_string(index) + " is outside [0, " +
                                std::to_string(cores_.size()) + ")");
    cores_[index] = std::make_unique<CoreModel>(
        coreConfig_, hierConfig_, llc_.get(), dram_.get(), trace, l2pf);
}

MultiCoreResult
MultiCoreSystem::run(uint64_t instrPerCore)
{
    const int n = static_cast<int>(cores_.size());
    for (int i = 0; i < n; ++i) {
        if (!cores_[i])
            throw std::logic_error("MultiCoreSystem::run: core " +
                                   std::to_string(i) +
                                   " has no attachCore()");
    }

    MultiCoreResult result;
    result.ipc.assign(n, 0.0);
    std::vector<bool> recorded(n, false);
    int remaining = n;

    // Interval sampler: per-core IPC and shared-bus utilization on
    // the timeline of the slowest core (the shared-DRAM clock).
    tracing::Tracer &tracer = tracing::Tracer::global();
    const uint64_t granularity = tracer.sampleGranularity();
    uint64_t next_sample = granularity;
    std::vector<uint64_t> last_instr(n, 0);
    std::vector<uint64_t> last_cycles(n, 0);
    double last_busy = 0.0;
    uint64_t last_clock = 0;

    while (remaining > 0) {
        // Advance the core whose commit clock is furthest behind so
        // that all cores see a consistent shared-DRAM timeline.
        int pick = -1;
        uint64_t best = std::numeric_limits<uint64_t>::max();
        for (int i = 0; i < n; ++i) {
            const uint64_t c = cores_[i]->cycles();
            if (c < best) {
                best = c;
                pick = i;
            }
        }
        cores_[pick]->stepOne();

        if (!recorded[pick] &&
            cores_[pick]->instructions() >= instrPerCore) {
            recorded[pick] = true;
            result.ipc[pick] = cores_[pick]->ipc();
            --remaining;
        }

        if (granularity != 0 && best >= next_sample) {
            for (int i = 0; i < n; ++i) {
                const uint64_t d_c =
                    cores_[i]->cycles() - last_cycles[i];
                if (d_c == 0)
                    continue;
                tracer.counterSample(
                    "core" + std::to_string(i) + ".IPC", best,
                    static_cast<double>(cores_[i]->instructions() -
                                        last_instr[i]) /
                        static_cast<double>(d_c));
                last_instr[i] = cores_[i]->instructions();
                last_cycles[i] = cores_[i]->cycles();
            }
            if (best > last_clock) {
                tracer.counterSample(
                    "dramBusUtil", best,
                    (dram_->busBusyCycles() - last_busy) /
                        static_cast<double>(best - last_clock));
            }
            last_busy = dram_->busBusyCycles();
            last_clock = best;
            next_sample = (best / granularity + 1) * granularity;
        }
    }

    for (double ipc : result.ipc)
        result.sumIpc += ipc;
    return result;
}

void
MultiCoreSystem::exportStats(StatsRegistry &reg,
                             const std::string &prefix) const
{
    uint64_t max_cycles = 0;
    double sum_ipc = 0.0;
    for (size_t i = 0; i < cores_.size(); ++i) {
        if (!cores_[i])
            continue;
        cores_[i]->exportStats(reg,
                               prefix + ".core" + std::to_string(i));
        max_cycles = std::max(max_cycles, cores_[i]->cycles());
        sum_ipc += cores_[i]->ipc();
    }
    reg.setScalar(prefix + ".sumIpc", sum_ipc);
    reg.setCounter(prefix + ".cycles", max_cycles);
    reg.setCounter(prefix + ".llc.demandHits", llc_->demandHits);
    reg.setCounter(prefix + ".llc.demandMisses", llc_->demandMisses);
    dram_->exportStats(reg, prefix + ".dram", max_cycles);
}

} // namespace mab
