#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "cpu/multicore.h"
#include "trace/suites.h"

namespace mab {
namespace {

struct Mix
{
    std::vector<std::unique_ptr<SyntheticTrace>> traces;
    std::vector<std::unique_ptr<Prefetcher>> pfs;
};

MultiCoreResult
runHomogeneous(const std::string &app_name, int cores,
               uint64_t instr_per_core)
{
    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, DramConfig{},
                        cores);
    Mix mix;
    for (int c = 0; c < cores; ++c) {
        AppProfile app = appByName(app_name);
        app.seed += static_cast<uint64_t>(c) * 101;
        mix.traces.push_back(std::make_unique<SyntheticTrace>(app));
        mix.pfs.push_back(std::make_unique<NullPrefetcher>());
        sys.attachCore(c, *mix.traces.back(), mix.pfs.back().get());
    }
    return sys.run(instr_per_core);
}

TEST(MultiCore, EveryCoreReachesTarget)
{
    const MultiCoreResult r = runHomogeneous("gcc06", 4, 50'000);
    ASSERT_EQ(r.ipc.size(), 4u);
    for (double ipc : r.ipc)
        EXPECT_GT(ipc, 0.0);
    EXPECT_NEAR(r.sumIpc, r.ipc[0] + r.ipc[1] + r.ipc[2] + r.ipc[3],
                1e-9);
}

TEST(MultiCore, BandwidthContentionDegradesPerCoreIpc)
{
    // A bandwidth-hungry app: 4 cores sharing one channel must each
    // run slower than a core alone.
    const MultiCoreResult solo = runHomogeneous("lbm06", 1, 300'000);
    const MultiCoreResult quad = runHomogeneous("lbm06", 4, 300'000);
    EXPECT_LT(quad.ipc[0], 0.9 * solo.ipc[0]);
}

TEST(MultiCore, ComputeBoundAppsScaleCleanly)
{
    const MultiCoreResult solo = runHomogeneous("exchange17", 1,
                                                300'000);
    const MultiCoreResult quad = runHomogeneous("exchange17", 4,
                                                300'000);
    EXPECT_GT(quad.ipc[0], 0.88 * solo.ipc[0]);
}

TEST(MultiCore, Deterministic)
{
    const MultiCoreResult a = runHomogeneous("milc06", 2, 50'000);
    const MultiCoreResult b = runHomogeneous("milc06", 2, 50'000);
    EXPECT_DOUBLE_EQ(a.sumIpc, b.sumIpc);
}

/** No cores, an attach index outside the system and a run with a core
 *  never attached all throw instead of indexing past cores_ or
 *  dereferencing a null core. */
TEST(MultiCore, RejectsNoCoresBadIndexAndMissingCores)
{
    try {
        MultiCoreSystem none(CoreConfig{}, HierarchyConfig{}, DramConfig{},
                             0);
        ADD_FAILURE() << "numCores 0 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("numCores"), std::string::npos)
            << e.what();
    }

    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, DramConfig{}, 2);
    SyntheticTrace trace(appByName("gcc06"));
    NullPrefetcher pf;
    EXPECT_THROW(sys.attachCore(2, trace, &pf), std::out_of_range);
    EXPECT_THROW(sys.attachCore(-1, trace, &pf), std::out_of_range);
    sys.attachCore(0, trace, &pf);
    EXPECT_THROW(sys.run(1'000), std::logic_error);
}

} // namespace
} // namespace mab
