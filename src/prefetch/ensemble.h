#ifndef MAB_PREFETCH_ENSEMBLE_H
#define MAB_PREFETCH_ENSEMBLE_H

#include <array>

#include "core/types.h"
#include "prefetch/nextline.h"
#include "prefetch/prefetcher.h"
#include "prefetch/stream.h"
#include "prefetch/stride.h"

namespace mab {

/**
 * One arm of the prefetching use case: the configuration of the three
 * lightweight prefetchers (Section 5.2 / Table 7).
 */
struct PrefetchArm
{
    bool nextLineOn = false;
    int strideDegree = 0;
    int streamDegree = 0;
};

/** The 11 arms of Table 7, in arm-id order. */
const std::array<PrefetchArm, 11> &prefetchArmTable();

/**
 * The prefetcher ensemble the Micro-Armed Bandit controls: a next-line
 * prefetcher, a 64-tracker stream prefetcher and a 64-tracker PC-based
 * stride prefetcher behind POWER7-style programmable degree registers.
 * applyArm() models the Bandit writing those registers (Figure 6(b)).
 */
class BanditEnsemblePrefetcher final : public Prefetcher
{
  public:
    BanditEnsemblePrefetcher();

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "BanditEnsemble"; }
    uint64_t storageBytes() const override;
    void reset() override;

    /** Program the ensemble with arm @p arm (0..10, Table 7).
     *  @throws std::invalid_argument for any other arm. */
    void applyArm(ArmId arm);

    /** Number of arms in the action space. */
    static int numArms();

    ArmId currentArm() const { return currentArm_; }

  private:
    NextLinePrefetcher nextLine_;
    StreamPrefetcher stream_;
    StridePrefetcher stride_;
    ArmId currentArm_ = 0;
};

} // namespace mab

#endif // MAB_PREFETCH_ENSEMBLE_H
