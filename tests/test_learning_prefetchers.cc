#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "prefetch/bingo.h"
#include "prefetch/ipcp.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab {
namespace {

PrefetchAccess
access(uint64_t pc, uint64_t addr, uint64_t cycle = 0)
{
    PrefetchAccess a;
    a.pc = pc;
    a.addr = addr;
    a.cycle = cycle;
    return a;
}

bool
contains(const std::vector<uint64_t> &v, uint64_t addr)
{
    return std::find(v.begin(), v.end(), addr) != v.end();
}

/** The message of the std::invalid_argument @p make throws, else "". */
template <typename F>
std::string
rejection(F make)
{
    try {
        make();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

bool
names(const std::string &message, const std::string &value)
{
    return message.find(value) != std::string::npos;
}

// ---------------------------------------------------------------------
// Bingo.
// ---------------------------------------------------------------------

TEST(Bingo, ReplaysLearnedFootprintOnRetrigger)
{
    BingoPrefetcher pf(2048, 8, 256);
    std::vector<uint64_t> out;
    // Teach a footprint: region visits lines {0, 3, 7} triggered by
    // pc 0x11 at offset 0, over several region instances.
    const int offsets[] = {0, 3, 7};
    for (uint64_t region = 0; region < 12; ++region) {
        const uint64_t base = 0x100000 + region * 2048;
        for (int off : offsets)
            pf.onAccess(access(0x11, base + off * kLineBytes), out);
    }
    // A brand-new region triggered at offset 0 must replay {3, 7}.
    out.clear();
    const uint64_t fresh = 0x900000;
    pf.onAccess(access(0x11, fresh), out);
    EXPECT_TRUE(contains(out, fresh + 3 * kLineBytes));
    EXPECT_TRUE(contains(out, fresh + 7 * kLineBytes));
    EXPECT_FALSE(contains(out, fresh + 1 * kLineBytes));
}

TEST(Bingo, NoHistoryNoPrefetch)
{
    BingoPrefetcher pf;
    std::vector<uint64_t> out;
    pf.onAccess(access(0x22, 0x500000), out);
    EXPECT_TRUE(out.empty());
}

TEST(Bingo, AccumulationPullsRemainingFootprint)
{
    BingoPrefetcher pf(2048, 8, 256);
    std::vector<uint64_t> out;
    const int offsets[] = {0, 1, 2, 3};
    for (uint64_t region = 0; region < 12; ++region) {
        const uint64_t base = 0x100000 + region * 2048;
        for (int off : offsets)
            pf.onAccess(access(0x11, base + off * kLineBytes), out);
    }
    out.clear();
    const uint64_t fresh = 0xA00000;
    pf.onAccess(access(0x11, fresh), out); // trigger: predicts 1,2,3
    out.clear();
    // Second access (accumulating): remaining lines re-requested.
    pf.onAccess(access(0x11, fresh + kLineBytes), out);
    EXPECT_TRUE(contains(out, fresh + 2 * kLineBytes));
    EXPECT_TRUE(contains(out, fresh + 3 * kLineBytes));
}

TEST(Bingo, FallbackToShortKeyOnNewOffset)
{
    BingoPrefetcher pf(2048, 8, 256);
    std::vector<uint64_t> out;
    const int offsets[] = {5, 9};
    for (uint64_t region = 0; region < 12; ++region) {
        const uint64_t base = 0x100000 + region * 2048;
        for (int off : offsets)
            pf.onAccess(access(0x33, base + off * kLineBytes), out);
    }
    // Trigger at a different offset: the long key misses but the
    // PC-only key still supplies the footprint.
    out.clear();
    const uint64_t fresh = 0xB00000;
    pf.onAccess(access(0x33, fresh + 9 * kLineBytes), out);
    EXPECT_TRUE(contains(out, fresh + 5 * kLineBytes));
}

TEST(Bingo, AccumulationEvictsLeastRecentRegionAtCapacities1And64)
{
    for (const int cap : {1, 64}) {
        SCOPED_TRACE(cap);
        BingoPrefetcher pf(2048, cap, 2048);
        const auto pc = [](int k) { return 0x400000ull + 4 * k; };
        const auto region = [](int k) { return 0x100000ull * (k + 1); };
        std::vector<uint64_t> out;
        // Open one generation per region (trigger at line 0), then
        // add line 1 to each, in region order: region 0 is the LRU.
        for (int k = 0; k < cap; ++k)
            pf.onAccess(access(pc(k), region(k)), out);
        for (int k = 0; k < cap; ++k)
            pf.onAccess(access(pc(k), region(k) + kLineBytes), out);
        // Line 2 of region 0 makes it the most recent.
        pf.onAccess(access(pc(0), region(0) + 2 * kLineBytes), out);
        ASSERT_TRUE(out.empty()); // nothing closed, no history yet
        // A new region closes the LRU generation: region 1, or region
        // 0 when alone. Its footprint is now history, so a fresh
        // trigger by its PC replays it.
        pf.onAccess(access(0x999, 0x9000000), out);
        const int evicted = cap == 1 ? 0 : 1;
        const uint64_t fresh = 0xA000000;
        pf.onAccess(access(pc(evicted), fresh), out);
        const std::vector<uint64_t> want =
            evicted == 0
                ? std::vector<uint64_t>{fresh + kLineBytes,
                                        fresh + 2 * kLineBytes}
                : std::vector<uint64_t>{fresh + kLineBytes};
        EXPECT_EQ(out, want);
        if (cap > 1) {
            // The most recent generations are still open: their PCs
            // have no history.
            for (const int k : {0, cap - 1}) {
                out.clear();
                pf.onAccess(access(pc(k), fresh + 0x100000 * (k + 1)),
                            out);
                EXPECT_TRUE(out.empty()) << "region " << k;
            }
        }
    }
}

TEST(Bingo, RejectsDegenerateGeometry)
{
    // No accumulation entries.
    EXPECT_THROW(BingoPrefetcher(2048, 0), std::invalid_argument);
    // 2 history entries are 0 sets; 12 are 3, not a power of two.
    EXPECT_THROW(BingoPrefetcher(2048, 64, 2), std::invalid_argument);
    EXPECT_TRUE(names(rejection([] { BingoPrefetcher(2048, 64, 12); }),
                      "12"));
    // 8KB regions are 128 lines, beyond a 64-bit footprint; regions
    // must be whole lines.
    EXPECT_TRUE(names(rejection([] { BingoPrefetcher(8192); }), "8192"));
    EXPECT_THROW(BingoPrefetcher(0), std::invalid_argument);
    EXPECT_THROW(BingoPrefetcher(100), std::invalid_argument);
    EXPECT_NO_THROW(BingoPrefetcher(64, 1, 4));
    EXPECT_NO_THROW(BingoPrefetcher(4096, 1, 7)); // 1 set, 3 spare
}

TEST(Bingo, StorageInTensOfKb)
{
    const uint64_t bytes = BingoPrefetcher{}.storageBytes();
    EXPECT_GT(bytes, 10u * 1024u);
    EXPECT_LT(bytes, 64u * 1024u);
}

// ---------------------------------------------------------------------
// MLOP.
// ---------------------------------------------------------------------

TEST(Mlop, LearnsUnitStrideStream)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    const uint64_t base = 0x100000;
    for (int i = 0; i < 400; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    // After retraining, level-1 offset must be +1.
    EXPECT_EQ(pf.levelOffset(0), 1);
    out.clear();
    pf.onAccess(access(1, base + 400 * kLineBytes), out);
    EXPECT_TRUE(contains(out, base + 401 * kLineBytes));
}

TEST(Mlop, LearnsMultiLineStride)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    const uint64_t base = 0x200000;
    for (int i = 0; i < 400; ++i)
        pf.onAccess(access(1, base + i * 4 * kLineBytes), out);
    EXPECT_EQ(pf.levelOffset(0), 4);
    out.clear();
    pf.onAccess(access(1, base + 400 * 4 * kLineBytes), out);
    EXPECT_TRUE(
        contains(out, base + 401 * 4 * kLineBytes));
}

TEST(Mlop, DeepLevelsExtendLookahead)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    const uint64_t base = 0x300000;
    for (int i = 0; i < 600; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    // Level k of a unit stream is offset k.
    EXPECT_EQ(pf.levelOffset(3), 4);
    EXPECT_EQ(pf.levelOffset(7), 8);
}

TEST(Mlop, SilentOnRandomTraffic)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    Rng rng(3);
    for (int i = 0; i < 2000; ++i)
        pf.onAccess(access(1, rng.below(1 << 28) * kLineBytes), out);
    EXPECT_LT(out.size(), 100u);
}

TEST(Mlop, ResetClearsOffsets)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    for (int i = 0; i < 400; ++i)
        pf.onAccess(access(1, 0x100000 + i * kLineBytes), out);
    pf.reset();
    for (int k = 0; k < 16; ++k)
        EXPECT_EQ(pf.levelOffset(k), 0);
}

// ---------------------------------------------------------------------
// IPCP.
// ---------------------------------------------------------------------

TEST(Ipcp, ClassifiesConstantStrideIp)
{
    IpcpPrefetcher pf;
    std::vector<uint64_t> out;
    for (int i = 0; i < 5; ++i) {
        out.clear();
        pf.onAccess(access(0xC5, 0x100000 + i * 640), out);
    }
    EXPECT_TRUE(contains(out, 0x100000 + 4 * 640 + 640));
}

TEST(Ipcp, GlobalStreamClassCoversNewIps)
{
    IpcpPrefetcher pf;
    std::vector<uint64_t> out;
    // A monotonic global stream issued from rotating IPs.
    uint64_t addr = 0x400000;
    for (int i = 0; i < 40; ++i) {
        out.clear();
        addr += kLineBytes;
        pf.onAccess(access(0xD0 + (i % 4), addr, i), out);
    }
    EXPECT_FALSE(out.empty());
}

TEST(Ipcp, RandomIpsStaySilent)
{
    IpcpPrefetcher pf;
    std::vector<uint64_t> out;
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        pf.onAccess(access(rng.below(64), rng.below(1 << 28) * 64),
                    out);
    EXPECT_LT(out.size(), 50u);
}

TEST(Ipcp, EvictsLeastRecentlyUsedIpAtCapacities1And64)
{
    for (const int cap : {1, 64}) {
        SCOPED_TRACE(cap);
        // CS degree 1, no GS: an IP prefetches one stride ahead from
        // its third access on. Regions lie far apart, so the global
        // stream never builds.
        IpcpPrefetcher pf(cap, 1, 0);
        const auto pc = [](int k) { return 0x400000ull + 4 * k; };
        const auto addr = [](int k, int n) {
            return 0x100000ull * (k + 1) + 128ull * n;
        };
        std::vector<int> next(cap + 1, 0);
        const auto step = [&](int k) {
            std::vector<uint64_t> out;
            pf.onAccess(access(pc(k), addr(k, next[k]++)), out);
            return out;
        };
        // Two accesses per IP in IP order: stride learned at
        // confidence 1, IP 0 least recently used.
        for (int round = 0; round < 2; ++round) {
            for (int k = 0; k < cap; ++k)
                EXPECT_TRUE(step(k).empty());
        }
        EXPECT_EQ(step(0), std::vector<uint64_t>{addr(0, 3)});
        // A new IP evicts the LRU one: IP 1, or IP 0 when alone.
        EXPECT_TRUE(step(cap).empty());
        const int evicted = cap == 1 ? 0 : 1;
        for (int k = 0; k < cap; ++k) {
            if (k != evicted) {
                EXPECT_EQ(step(k).size(), 1u) << "IP " << k;
            }
        }
        EXPECT_TRUE(step(evicted).empty()); // fresh entry
    }
}

TEST(Ipcp, RejectsEmptyTable)
{
    EXPECT_THROW(IpcpPrefetcher(0), std::invalid_argument);
    EXPECT_TRUE(names(rejection([] { IpcpPrefetcher(-5); }), "-5"));
}

TEST(Ipcp, StorageSmall)
{
    EXPECT_LT(IpcpPrefetcher{}.storageBytes(), 4096u);
}

// ---------------------------------------------------------------------
// Pythia.
// ---------------------------------------------------------------------

TEST(Pythia, ActionSpaceIs16x4)
{
    EXPECT_EQ(PythiaPrefetcher::offsets().size(), 16u);
    EXPECT_EQ(PythiaPrefetcher::degrees().size(), 4u);
    EXPECT_EQ(PythiaPrefetcher::kNumActions, 64);
    // Offset 0 (no prefetch) is part of the space.
    EXPECT_TRUE(std::count(PythiaPrefetcher::offsets().begin(),
                           PythiaPrefetcher::offsets().end(), 0) == 1);
}

TEST(Pythia, Deterministic)
{
    PythiaPrefetcher a, b;
    std::vector<uint64_t> oa, ob;
    for (int i = 0; i < 2000; ++i) {
        oa.clear();
        ob.clear();
        a.onAccess(access(1, 0x100000 + i * kLineBytes, i * 10), oa);
        b.onAccess(access(1, 0x100000 + i * kLineBytes, i * 10), ob);
        ASSERT_EQ(oa, ob);
    }
}

TEST(Pythia, LearnsToPrefetchOnStream)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    size_t late_phase = 0;
    for (int i = 0; i < 6000; ++i) {
        out.clear();
        pf.onAccess(access(1, 0x100000 + static_cast<uint64_t>(i) *
                                  kLineBytes,
                           static_cast<uint64_t>(i) * 20),
                    out);
        if (i > 4000)
            late_phase += out.size();
    }
    // In steady state the agent issues prefetches regularly.
    EXPECT_GT(late_phase, 1000u);
    // And the dominant action is a prefetching one.
    const auto &counts = pf.actionCounts();
    const int top = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) -
        counts.begin());
    EXPECT_NE(PythiaPrefetcher::offsets()[top >> 2], 0);
}

TEST(Pythia, LearnsNotToPrefetchOnRandom)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    Rng rng(21);
    size_t late_phase = 0;
    for (int i = 0; i < 8000; ++i) {
        out.clear();
        pf.onAccess(access(1, rng.below(1 << 24) * kLineBytes,
                           static_cast<uint64_t>(i) * 50),
                    out);
        if (i > 6000)
            late_phase += out.size();
    }
    // Late in the run the agent should mostly abstain: well under
    // one line per access on average.
    EXPECT_LT(late_phase, 1500u);
}

TEST(Pythia, ActionCountsSumToAccesses)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    for (int i = 0; i < 500; ++i)
        pf.onAccess(access(1, 0x100000 + i * kLineBytes, i), out);
    const auto &counts = pf.actionCounts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull),
              500ull);
}

TEST(Pythia, StorageMatchesPaperBudget)
{
    // ~25.5KB in the paper.
    const uint64_t bytes = PythiaPrefetcher{}.storageBytes();
    EXPECT_GT(bytes, 24u * 1024u);
    EXPECT_LT(bytes, 27u * 1024u);
}

TEST(Pythia, ResetClearsLearnedState)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    for (int i = 0; i < 2000; ++i)
        pf.onAccess(access(1, 0x100000 + i * kLineBytes, i * 10), out);
    pf.reset();
    const auto &counts = pf.actionCounts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull),
              0ull);
}

TEST(Pythia, DeepActionsWrapTheQueueAndFillPendingToItsBound)
{
    // A positive reward per uncovered line and optimistic Q values
    // make the greedy agent sweep the actions in order until the
    // first degree-6 one (offset +1, action 7): the only ones whose
    // SARSA target (6 x 100 + gamma x qInit = 1150) is above qInit.
    // Demands stay 1000 lines apart, so no predicted line is ever
    // demanded: every decision keeps its six lines pending until it
    // retires, 6 x (eqDepth + 1) = 24 lines at each decision, while
    // the 4-entry queue wraps 500 times.
    PythiaConfig cfg;
    cfg.eqDepth = 3;
    cfg.epsilon = 0.0;
    cfg.rewardMiss = 100.0;
    cfg.bwPenaltyScale = 0.0;
    cfg.qInit = 1100.0;
    PythiaPrefetcher pf(cfg);
    const auto run = [&pf] {
        std::vector<std::vector<uint64_t>> outs;
        for (uint64_t i = 0; i < 2000; ++i) {
            std::vector<uint64_t> out;
            pf.onAccess(access(1, (1000000 + 1000 * i) * kLineBytes,
                               i * 100),
                        out);
            outs.push_back(out);
        }
        return outs;
    };
    const std::vector<std::vector<uint64_t>> outs = run();
    for (uint64_t i = 1000; i < outs.size(); ++i) {
        const uint64_t line = 1000000 + 1000 * i;
        ASSERT_EQ(outs[i].size(), 6u) << "access " << i;
        for (uint64_t d = 1; d <= 6; ++d)
            EXPECT_EQ(outs[i][d - 1], (line + d) * kLineBytes);
    }
    EXPECT_GT(pf.actionCounts()[7], 1900u);
    // reset() empties the queue and the pending lines: the run
    // replays exactly.
    pf.reset();
    EXPECT_EQ(run(), outs);
}

TEST(Pythia, RejectsDegenerateConfig)
{
    PythiaConfig cfg;
    cfg.planeEntries = 0;
    EXPECT_THROW(PythiaPrefetcher{cfg}, std::invalid_argument);
    cfg = PythiaConfig{};
    cfg.eqDepth = -1;
    EXPECT_TRUE(names(rejection([&] { PythiaPrefetcher{cfg}; }), "-1"));
    cfg.eqDepth = 0; // retire every decision at once
    EXPECT_NO_THROW(PythiaPrefetcher{cfg});
}

TEST(Mlop, RejectsEmptyHistory)
{
    EXPECT_THROW(MlopPrefetcher(16, 0), std::invalid_argument);
    EXPECT_TRUE(names(rejection([] { MlopPrefetcher(16, -2); }), "-2"));
}

TEST(Pythia, BandwidthProbeReducesAggressionUnderPressure)
{
    // With a saturated-bus probe, the wrong-prefetch penalty grows
    // and the no-prefetch reward improves: on random traffic the
    // pressured agent must abstain at least as much as the baseline.
    PythiaPrefetcher relaxed, pressured;
    pressured.setBandwidthProbe([](uint64_t) { return 1.0; });
    std::vector<uint64_t> o1, o2;
    size_t relaxed_total = 0, pressured_total = 0;
    Rng rng(5);
    for (int i = 0; i < 8000; ++i) {
        const uint64_t addr = rng.below(1 << 24) * kLineBytes;
        o1.clear();
        o2.clear();
        relaxed.onAccess(access(1, addr, i * 50), o1);
        pressured.onAccess(access(1, addr, i * 50), o2);
        relaxed_total += o1.size();
        pressured_total += o2.size();
    }
    EXPECT_LE(pressured_total, relaxed_total + 200);
}

} // namespace
} // namespace mab
