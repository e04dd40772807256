#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "memory/dram.h"

namespace mab {
namespace {

TEST(Dram, CyclesPerLineMatchesRateArithmetic)
{
    // 2400 MTPS x 8B at 4GHz: 8 transfers * 4e9 / 2.4e9 = 13.33 cyc.
    Dram d(DramConfig{});
    EXPECT_NEAR(d.cyclesPerLine(), 13.333, 0.01);
}

TEST(Dram, LowBandwidthInflatesTransferTime)
{
    DramConfig cfg;
    cfg.mtps = 150;
    Dram d(cfg);
    EXPECT_NEAR(d.cyclesPerLine(), 213.3, 0.5);
}

TEST(Dram, UnloadedLatencyIsBasePlusTransfer)
{
    DramConfig cfg;
    Dram d(cfg);
    const uint64_t done = d.schedule(1000);
    EXPECT_EQ(done, 1000 + cfg.baseLatencyCycles + 13);
}

TEST(Dram, BackToBackRequestsQueue)
{
    Dram d(DramConfig{});
    const uint64_t first = d.schedule(0);
    const uint64_t second = d.schedule(0);
    EXPECT_GT(second, first);
    EXPECT_NEAR(static_cast<double>(second - first),
                d.cyclesPerLine(), 1.0);
}

TEST(Dram, IdleGapsDoNotAccumulateCredit)
{
    Dram d(DramConfig{});
    d.schedule(0);
    // A request far in the future sees an idle bus again.
    const uint64_t done = d.schedule(100000);
    EXPECT_EQ(done,
              100000 + DramConfig{}.baseLatencyCycles + 13);
}

TEST(Dram, SaturatedThroughputMatchesBandwidth)
{
    Dram d(DramConfig{});
    uint64_t last = 0;
    const int n = 1000;
    for (int i = 0; i < n; ++i)
        last = d.schedule(0);
    // n lines at 13.33 cycles each.
    const double expected = n * d.cyclesPerLine();
    EXPECT_NEAR(static_cast<double>(last -
                                    DramConfig{}.baseLatencyCycles),
                expected, expected * 0.01);
}

TEST(Dram, DemandBypassesPrefetchBacklog)
{
    Dram d(DramConfig{});
    for (int i = 0; i < 50; ++i)
        d.schedule(0, false); // pile up prefetch traffic
    const uint64_t demand = d.schedule(0, true);
    const uint64_t prefetch = d.schedule(0, false);
    // The demand read is served ~immediately; the prefetch waits for
    // the whole backlog.
    EXPECT_LT(demand, 0 + DramConfig{}.baseLatencyCycles + 30);
    EXPECT_GT(prefetch, demand + 500);
}

TEST(Dram, PrefetchQueuesBehindDemand)
{
    Dram d(DramConfig{});
    for (int i = 0; i < 10; ++i)
        d.schedule(0, true);
    const uint64_t prefetch = d.schedule(0, false);
    EXPECT_GT(prefetch,
              0 + DramConfig{}.baseLatencyCycles + 10 * 13);
}

TEST(Dram, TransfersCounted)
{
    Dram d(DramConfig{});
    d.schedule(0, true);
    d.schedule(0, false);
    EXPECT_EQ(d.transfers(), 2u);
}

TEST(Dram, ResetClearsState)
{
    Dram d(DramConfig{});
    for (int i = 0; i < 20; ++i)
        d.schedule(0);
    d.reset();
    EXPECT_EQ(d.transfers(), 0u);
    const uint64_t done = d.schedule(0);
    EXPECT_EQ(done, DramConfig{}.baseLatencyCycles + 13);
}

/** Bandwidth sweep property: latency monotonically improves with MTPS. */
class DramRateTest : public ::testing::TestWithParam<double>
{
};

TEST_P(DramRateTest, SaturatedLatencyScalesInverselyWithRate)
{
    DramConfig cfg;
    cfg.mtps = GetParam();
    Dram d(cfg);
    uint64_t last = 0;
    for (int i = 0; i < 100; ++i)
        last = d.schedule(0);
    const double per_line =
        static_cast<double>(last - cfg.baseLatencyCycles) / 100.0;
    EXPECT_NEAR(per_line, d.cyclesPerLine(), d.cyclesPerLine() * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, DramRateTest,
                         ::testing::Values(150.0, 600.0, 2400.0,
                                           9600.0));

/** Degenerate rates and bus widths throw, naming the field, instead
 *  of casting an infinite, zero or NaN per-line time to uint64_t. */
TEST(Dram, RejectsDegenerateRatesAndBusWidths)
{
    const auto rejects = [](const DramConfig &cfg, const char *field) {
        try {
            Dram dram(cfg);
            ADD_FAILURE() << field << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    for (const double bad : {0.0, -2400.0,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        DramConfig rate;
        rate.mtps = bad;
        rejects(rate, "mtps");
        DramConfig clock;
        clock.coreGhz = bad;
        rejects(clock, "coreGhz");
    }
    for (const int bad : {0, -8}) {
        DramConfig bus;
        bus.busBytes = bad;
        rejects(bus, "busBytes");
    }
    EXPECT_NO_THROW(Dram{DramConfig{}});
}

} // namespace
} // namespace mab
