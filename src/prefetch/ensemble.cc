#include "prefetch/ensemble.h"

#include <stdexcept>
#include <string>

namespace mab {

const std::array<PrefetchArm, 11> &
prefetchArmTable()
{
    // Table 7: arm id -> {NL on/off, stride degree, streamer degree}.
    static const std::array<PrefetchArm, 11> arms = {{
        {false, 0, 4},   // 0
        {false, 0, 0},   // 1: everything off
        {true, 0, 0},    // 2: next-line only
        {false, 0, 2},   // 3
        {false, 2, 2},   // 4
        {false, 4, 4},   // 5
        {false, 0, 6},   // 6
        {false, 8, 6},   // 7
        {true, 0, 8},    // 8
        {false, 0, 15},  // 9
        {false, 15, 15}, // 10: most aggressive
    }};
    return arms;
}

BanditEnsemblePrefetcher::BanditEnsemblePrefetcher()
    : stream_(64), stride_(64, 0)
{
    applyArm(0);
}

int
BanditEnsemblePrefetcher::numArms()
{
    return static_cast<int>(prefetchArmTable().size());
}

void
BanditEnsemblePrefetcher::applyArm(ArmId arm)
{
    if (arm < 0 || arm >= numArms())
        throw std::invalid_argument(
            "BanditEnsemblePrefetcher: arm must be in [0, " +
            std::to_string(numArms() - 1) + "], got " +
            std::to_string(arm));
    const PrefetchArm &cfg = prefetchArmTable()[arm];
    nextLine_.setEnabled(cfg.nextLineOn);
    // The stride degree is expressed in strides ahead; the streamer
    // degree in lines ahead of the stream head.
    stride_.setDegree(cfg.strideDegree);
    stream_.setDegree(cfg.streamDegree);
    currentArm_ = arm;
}

void
BanditEnsemblePrefetcher::onAccess(const PrefetchAccess &access,
                                   std::vector<uint64_t> &out)
{
    // All constituent prefetchers keep training regardless of their
    // degree so that a newly enabled arm starts from warm state.
    nextLine_.onAccess(access, out);
    stream_.onAccess(access, out);
    stride_.onAccess(access, out);
}

uint64_t
BanditEnsemblePrefetcher::storageBytes() const
{
    return nextLine_.storageBytes() + stream_.storageBytes() +
        stride_.storageBytes();
}

void
BanditEnsemblePrefetcher::reset()
{
    nextLine_.reset();
    stream_.reset();
    stride_.reset();
}

} // namespace mab
