#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "smt/smt_sim.h"
#include "trace/replay.h"

namespace mab {
namespace {

SmtRunConfig
quick()
{
    SmtRunConfig cfg;
    cfg.maxCycles = 150'000;
    cfg.hcEpochCycles = 4096;
    return cfg;
}

TEST(ThreadCatalog, TwentyTwoApps)
{
    EXPECT_EQ(smtAppCatalog().size(), 22u);
}

TEST(ThreadCatalog, LookupByName)
{
    EXPECT_EQ(smtAppByName("lbm").name, "lbm");
    EXPECT_THROW(smtAppByName("nope"), std::out_of_range);
}

TEST(ThreadCatalog, LbmIsStoreAndDramHeavy)
{
    const SmtAppParams &lbm = smtAppByName("lbm");
    const SmtAppParams &exchange = smtAppByName("exchange2");
    EXPECT_GT(lbm.storeFrac, exchange.storeFrac);
    EXPECT_GT(lbm.storeDrainDramRate, 0.3);
    EXPECT_LT(exchange.l1MissRate, 0.05);
}

TEST(ThreadCatalog, MixesEnumerateUnorderedPairs)
{
    EXPECT_EQ(smtMixes(226).size(), 226u);
    EXPECT_EQ(smtMixes(1000).size(), 231u); // C(22,2)
    EXPECT_EQ(smtMixes(43, 10).size(), 43u);
    EXPECT_EQ(smtMixes(1000, 10).size(), 45u); // C(10,2)
}

TEST(ThreadSource, DeterministicAndResettable)
{
    ThreadSource a(smtAppByName("gcc"), 7);
    std::vector<uint32_t> lats;
    for (int i = 0; i < 1000; ++i)
        lats.push_back(a.next().execLatency);
    a.reset();
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next().execLatency, lats[i]);
}

TEST(ThreadSource, MixMatchesParams)
{
    const SmtAppParams &p = smtAppByName("mcf");
    ThreadSource src(p, 3);
    int loads = 0, branches = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) {
        const Uop u = src.next();
        loads += u.kind == UopKind::Load;
        branches += u.kind == UopKind::Branch;
    }
    EXPECT_NEAR(static_cast<double>(loads) / n, p.loadFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(branches) / n, p.branchFrac, 0.01);
}

TEST(SmtSim, StaticRunProducesBothIpcs)
{
    SmtSimulator sim("gcc", "namd", quick());
    const SmtRunResult r = sim.runStatic(choiPolicy());
    EXPECT_GT(r.ipc[0], 0.1);
    EXPECT_GT(r.ipc[1], 0.1);
    EXPECT_NEAR(r.ipcSum, r.ipc[0] + r.ipc[1], 1e-9);
    EXPECT_EQ(r.cycles, quick().maxCycles);
}

TEST(SmtSim, RunsAreReproducible)
{
    SmtSimulator sim("gcc", "lbm", quick());
    const SmtRunResult a = sim.runStatic(choiPolicy());
    const SmtRunResult b = sim.runStatic(choiPolicy());
    EXPECT_DOUBLE_EQ(a.ipcSum, b.ipcSum);
}

TEST(SmtSim, GatingBeatsPlainIcountOnAsymmetricMix)
{
    // The headline Choi result: on a mix of a memory hog and a
    // compute thread, occupancy-threshold gating beats plain ICount.
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 400'000;
    SmtSimulator sim("gcc", "lbm", cfg);
    const double icount = sim.runStatic(icountPolicy()).ipcSum;
    const double choi = sim.runStatic(choiPolicy()).ipcSum;
    EXPECT_GT(choi, icount);
}

TEST(SmtSim, BanditRunsAndRecordsHistory)
{
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 400'000;
    SmtSimulator sim("gcc", "lbm", cfg);
    const SmtRunResult r = sim.runBandit();
    EXPECT_GT(r.ipcSum, 0.2);
    EXPECT_FALSE(r.armHistory.empty());
    for (const auto &[cycle, arm] : r.armHistory) {
        EXPECT_LE(cycle, cfg.maxCycles);
        EXPECT_GE(arm, 0);
        EXPECT_LT(arm, 6);
    }
}

TEST(SmtSim, BanditCompetitiveWithChoi)
{
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 600'000;
    SmtSimulator sim("gcc", "lbm", cfg);
    const double choi = sim.runStatic(choiPolicy()).ipcSum;
    const double bandit = sim.runBandit().ipcSum;
    EXPECT_GT(bandit, 0.9 * choi);
}

TEST(SmtSim, InstrPerThreadRecordsAtTarget)
{
    SmtRunConfig cfg = quick();
    cfg.instrPerThread = 20'000;
    cfg.maxCycles = 2'000'000;
    SmtSimulator sim("namd", "povray", cfg);
    const SmtRunResult r = sim.runStatic(choiPolicy());
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.ipc[1], 0.0);
    EXPECT_LT(r.cycles, cfg.maxCycles); // both targets reached early
}

TEST(SmtSim, RenameBreakdownConsistent)
{
    SmtSimulator sim("mcf", "lbm", quick());
    const SmtRunResult r = sim.runStatic(choiPolicy());
    EXPECT_EQ(r.rename.stalled + r.rename.idle + r.rename.running,
              r.rename.cycles);
}

TEST(BanditPgSelector, SwitchesArmsAndRestoresHcState)
{
    SmtBanditConfig cfg;
    cfg.stepEpochs = 1;
    cfg.stepRrEpochs = 1;
    BanditPgSelector selector(cfg);
    HillClimbing hc({97, 2});

    // Drive epochs with synthetic counters; the round-robin phase
    // alone forces several arm switches.
    int switches = 0;
    uint64_t instr = 0;
    for (int e = 1; e <= 20; ++e) {
        instr += 5000 + 100 * static_cast<uint64_t>(e % 3);
        if (selector.onEpochEnd(instr, e * 4096ull, hc))
            ++switches;
    }
    EXPECT_GE(switches, 5);
    EXPECT_GE(selector.agent().stepsCompleted(), 19u);
}

/** Expect @p make to throw std::invalid_argument naming @p field. */
void
expectRejected(const std::function<void()> &make, const char *field)
{
    try {
        make();
        FAIL() << "accepted a bad " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST(SmtSim, RejectsZeroEpochLength)
{
    // Used to reach `c % 0` in the run loop (SIGFPE in Release).
    SmtRunConfig cfg = quick();
    cfg.hcEpochCycles = 0;
    expectRejected([&] { SmtSimulator sim("gcc", "lbm", cfg); },
                   "hcEpochCycles");
}

/** One SmtConfig field set to a value the constructor must reject. */
const std::pair<const char *, void (*)(SmtConfig &)> kBadFields[] = {
    {"fetchWidth", [](SmtConfig &c) { c.fetchWidth = 0; }},
    {"decodeWidth", [](SmtConfig &c) { c.decodeWidth = 0; }},
    {"commitWidth", [](SmtConfig &c) { c.commitWidth = 0; }},
    {"iqSize", [](SmtConfig &c) { c.iqSize = 0; }},
    {"robSize", [](SmtConfig &c) { c.robSize = -1; }},
    {"lqSize", [](SmtConfig &c) { c.lqSize = 0; }},
    {"sqSize", [](SmtConfig &c) { c.sqSize = 0; }},
    {"irfSize", [](SmtConfig &c) { c.irfSize = 0; }},
    {"frfSize", [](SmtConfig &c) { c.frfSize = 0; }},
    {"fetchQueueSize", [](SmtConfig &c) { c.fetchQueueSize = 0; }},
    {"iqSize", [](SmtConfig &c) { c.iqSize = 1 << 16; }},
    {"sqSize", [](SmtConfig &c) { c.sqSize = 1 << 16; }},
};

class SmtSimBadPipeConfig : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SmtSimBadPipeConfig, ConstructorRejectsAndNamesField)
{
    const auto [field, set] = kBadFields[GetParam()];
    SmtConfig pipe;
    set(pipe);
    expectRejected([&] { SmtSimulator sim("gcc", "lbm", quick(), pipe); },
                   field);
}

INSTANTIATE_TEST_SUITE_P(Fields, SmtSimBadPipeConfig,
                         ::testing::Range<size_t>(0, std::size(kBadFields)));

TEST(SmtSim, EpochEdgesSurviveFastForward)
{
    // An odd epoch length and cycle budget: every advance must still
    // stop on each epoch edge and on the budget.
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 100'003;
    cfg.hcEpochCycles = 997;
    SmtSimulator sim("mcf", "lbm", cfg);
    const SmtRunResult r = sim.runBandit();
    EXPECT_EQ(r.cycles, cfg.maxCycles);
    EXPECT_EQ(r.rename.cycles, cfg.maxCycles);
    for (const auto &[cycle, arm] : r.armHistory)
        EXPECT_EQ(cycle % cfg.hcEpochCycles, 0u) << "arm " << arm;
}

/**
 * Two threads run SmtSimulators of one mix over one shared stream
 * pair from the trace arena, one starting while the other is already
 * running: whichever runs ahead generates each chunk and the other
 * reads it through ThreadSource's inline window after
 * ChunkedStream::chunk()'s acquire load. Both runs equal a live run
 * with the arena off. The CI ThreadSanitizer step runs this test.
 */
TEST(SmtSim, ConcurrentRunsShareOneStreamPair)
{
    TraceArena &arena = TraceArena::global();
    const bool was_enabled = arena.stats().enabled;
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 120'000;
    cfg.seed = 41;

    arena.setEnabled(false);
    SmtSimulator serial("mcf", "perlbench", cfg);
    const SmtRunResult want = serial.runStatic(choiPolicy());

    arena.clear();
    arena.setEnabled(true);
    std::array<SmtRunResult, 2> got;
    std::atomic<bool> started{false};
    std::thread ahead([&] {
        SmtSimulator sim("mcf", "perlbench", cfg);
        started.store(true);
        got[0] = sim.runStatic(choiPolicy());
    });
    while (!started.load())
        std::this_thread::yield();
    std::thread behind([&] {
        SmtSimulator sim("mcf", "perlbench", cfg);
        got[1] = sim.runStatic(choiPolicy());
    });
    ahead.join();
    behind.join();
    EXPECT_EQ(arena.stats().entries, 2u) << "one stream per lane";
    arena.clear();
    arena.setEnabled(was_enabled);

    for (const SmtRunResult &r : got) {
        EXPECT_EQ(r.cycles, want.cycles);
        EXPECT_EQ(r.ipc, want.ipc);
        EXPECT_EQ(r.rename.running, want.rename.running);
        EXPECT_EQ(r.rename.stalled, want.rename.stalled);
        EXPECT_EQ(r.rename.idle, want.rename.idle);
        EXPECT_EQ(r.rename.stallRob, want.rename.stallRob);
        EXPECT_EQ(r.rename.stallIq, want.rename.stallIq);
        EXPECT_EQ(r.rename.stallLq, want.rename.stallLq);
        EXPECT_EQ(r.rename.stallSq, want.rename.stallSq);
        EXPECT_EQ(r.rename.stallRf, want.rename.stallRf);
    }
}

} // namespace
} // namespace mab
