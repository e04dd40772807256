#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <unistd.h>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/bandit_agent.h"
#include "core/ducb.h"
#include "core/factory.h"
#include "fuzz/fuzz.h"
#include "fuzz/shrink.h"
#include "sim/parallel.h"
#include "sim/tracing.h"

/**
 * Differential-fuzzing harness tests (fuzz/fuzz.h): reference-model
 * agreement across many generated cases, the mutant self-test that
 * proves planted cache bugs are caught and shrunk to short repros (the
 * ISSUE 4 acceptance criterion, kept as a permanent regression test),
 * the bandit shadow replay incl. a planted DUCB bug, sim property
 * checks, the domain registry, the shared shrink loop, the pinned case
 * streams, and the cross-seed determinism of the stochastic policies
 * (byte-identical audit logs).
 */

namespace mab {
namespace {

/** Sub-seed lane of the registered domain @p name. */
uint64_t
laneOf(const char *name)
{
    const fuzz::Domain *d = fuzz::findDomain(name);
    EXPECT_NE(d, nullptr) << name;
    return d ? d->lane : 0;
}

/** Position of the registered domain @p name in domains(), which is
 *  also its index into FuzzReport::cases. */
size_t
indexOf(const char *name)
{
    return static_cast<size_t>(fuzz::findDomain(name) -
                               fuzz::domains().data());
}

// ---------------------------------------------------------------------------
// Seed derivation

TEST(FuzzSeeds, SubSeedIsDeterministicAndLaneSeparated)
{
    EXPECT_EQ(fuzz::subSeed(1, 0), fuzz::subSeed(1, 0));
    EXPECT_NE(fuzz::subSeed(1, 0), fuzz::subSeed(1, 1));
    EXPECT_NE(fuzz::subSeed(1, 0), fuzz::subSeed(2, 0));
    // Low-entropy seeds must still produce well-mixed case seeds.
    EXPECT_NE(fuzz::iterationSeed(1, 0) >> 32, 0u);
    EXPECT_NE(fuzz::iterationSeed(1, 1) >> 32, 0u);
}

TEST(FuzzSeeds, GeneratorsArePureFunctionsOfTheSeed)
{
    const fuzz::CacheCase a = fuzz::genCacheCase(42);
    const fuzz::CacheCase b = fuzz::genCacheCase(42);
    EXPECT_EQ(fuzz::formatCacheCase(a), fuzz::formatCacheCase(b));

    const fuzz::BanditCase ba = fuzz::genBanditCase(42);
    const fuzz::BanditCase bb = fuzz::genBanditCase(42);
    EXPECT_EQ(fuzz::formatBanditCase(ba), fuzz::formatBanditCase(bb));

    const fuzz::SimCase sa = fuzz::genSimCase(42);
    const fuzz::SimCase sb = fuzz::genSimCase(42);
    EXPECT_EQ(fuzz::formatSimCase(sa), fuzz::formatSimCase(sb));
}

TEST(FuzzSeeds, GeneratedCacheGeometriesAreValid)
{
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const fuzz::CacheCase c = fuzz::genCacheCase(seed);
        ASSERT_GE(c.config.ways, 1);
        const uint64_t sets =
            c.config.sizeBytes / (kLineBytes * c.config.ways);
        ASSERT_GT(sets, 0u);
        ASSERT_EQ(sets & (sets - 1), 0u)
            << "sets must be a power of two (seed " << seed << ")";
        ASSERT_FALSE(c.ops.empty());
    }
}

// ---------------------------------------------------------------------------
// Cache differential

TEST(CacheDifferential, OptimizedCacheAgreesWithReferenceOnManySeeds)
{
    for (uint64_t i = 0; i < 300; ++i) {
        const uint64_t cs = fuzz::iterationSeed(1, i);
        const fuzz::CacheCase c =
            fuzz::genCacheCase(fuzz::subSeed(cs, laneOf("cache")));
        const std::string err = fuzz::diffCacheCase(c);
        ASSERT_EQ(err, "") << "case seed " << cs;
    }
}

/**
 * The acceptance criterion of ISSUE 4, as a permanent test: every
 * planted cache bug must be caught by the differential loop and
 * shrunk to a repro of at most 20 accesses.
 */
TEST(CacheDifferential, EveryMutantIsCaughtAndShrunkToShortRepro)
{
    for (const fuzz::CacheMutation m : fuzz::allCacheMutations()) {
        SCOPED_TRACE(fuzz::toString(m));
        const fuzz::CacheModelFactory mutant =
            fuzz::mutantCacheFactory(m);
        bool caught = false;
        for (uint64_t i = 0; i < 50 && !caught; ++i) {
            const uint64_t cs = fuzz::iterationSeed(1, i);
            const fuzz::CacheCase c =
                fuzz::genCacheCase(fuzz::subSeed(cs, laneOf("cache")));
            if (fuzz::diffCacheCase(c, mutant).empty())
                continue;
            caught = true;
            const fuzz::CacheCase min = fuzz::shrinkCacheCase(c, mutant);
            // The minimized case must still witness the bug...
            EXPECT_NE(fuzz::diffCacheCase(min, mutant), "");
            // ...and be a short, readable repro.
            EXPECT_LE(min.ops.size(), 20u);
            EXPECT_LE(min.ops.size(), c.ops.size());
        }
        EXPECT_TRUE(caught)
            << "mutant not detected within 50 case seeds";
    }
}

TEST(CacheDifferential, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::CacheCase c = fuzz::genCacheCase(7);
    ASSERT_EQ(fuzz::diffCacheCase(c), "");
    const fuzz::CacheCase s =
        fuzz::shrinkCacheCase(c, fuzz::optimizedCacheFactory());
    EXPECT_EQ(s.ops.size(), c.ops.size());
}

TEST(CacheDifferential, ReferenceInvariantsHoldUnderRandomStreams)
{
    const fuzz::CacheCase c = fuzz::genCacheCase(11);
    fuzz::ReferenceCache ref(c.config);
    for (const fuzz::CacheOp &op : c.ops) {
        switch (op.kind) {
          case fuzz::CacheOp::Kind::Lookup:
            ref.lookupDemand(op.line, op.cycle);
            break;
          case fuzz::CacheOp::Kind::DemandFill:
            ref.fill(op.line, op.cycle, false);
            break;
          case fuzz::CacheOp::Kind::PrefetchFill:
            ref.fill(op.line, op.cycle, true);
            break;
          case fuzz::CacheOp::Kind::Invalidate:
            ref.invalidate(op.line);
            break;
          case fuzz::CacheOp::Kind::Contains:
            ref.contains(op.line);
            break;
          case fuzz::CacheOp::Kind::Clear:
            ref.clear();
            break;
        }
        ASSERT_EQ(ref.checkInvariants(), "");
    }
}

// ---------------------------------------------------------------------------
// Bandit differential

fuzz::BanditCase
banditCaseFor(MabAlgorithm algo, uint64_t seed)
{
    fuzz::BanditCase c = fuzz::genBanditCase(seed);
    c.algo = algo;
    if (c.window < c.mab.numArms)
        c.window = c.mab.numArms;
    return c;
}

TEST(BanditDifferential, ShadowAgreesForEveryAlgorithm)
{
    const MabAlgorithm algos[] = {
        MabAlgorithm::Ducb, MabAlgorithm::SwUcb, MabAlgorithm::Ucb,
        MabAlgorithm::EpsilonGreedy};
    for (const MabAlgorithm algo : algos) {
        SCOPED_TRACE(toString(algo));
        for (uint64_t seed = 0; seed < 40; ++seed) {
            const fuzz::BanditCase c = banditCaseFor(algo, seed);
            ASSERT_EQ(fuzz::diffBanditCase(c), "")
                << fuzz::formatBanditCase(c);
        }
    }
}

TEST(BanditDifferential, GeneratedCasesAgree)
{
    for (uint64_t i = 0; i < 150; ++i) {
        const uint64_t cs = fuzz::iterationSeed(3, i);
        const fuzz::BanditCase c =
            fuzz::genBanditCase(fuzz::subSeed(cs, laneOf("bandit")));
        ASSERT_EQ(fuzz::diffBanditCase(c), "")
            << fuzz::formatBanditCase(c);
    }
}

/** DUCB with the classic forgetting bug: the per-arm counts are
 *  discounted but n_total is not, silently inflating the exploration
 *  bonus denominator over time. */
class BrokenDucb final : public Ducb
{
  public:
    explicit BrokenDucb(const MabConfig &config) : Ducb(config) {}

  protected:
    void
    updSels(ArmId arm) override
    {
        for (double &n : n_)
            n *= config_.gamma;
        nTotal_ += 1.0; // bug: forgets the gamma discount
        n_[arm] += 1.0;
    }
};

TEST(BanditDifferential, CatchesPlantedDucbDiscountBug)
{
    bool caught = false;
    for (uint64_t seed = 0; seed < 20 && !caught; ++seed) {
        fuzz::BanditCase c = banditCaseFor(MabAlgorithm::Ducb, seed);
        BrokenDucb broken(c.mab);
        caught = !fuzz::diffBanditPolicy(broken, c).empty();
    }
    EXPECT_TRUE(caught)
        << "shadow replay did not notice the missing discount";
}

TEST(BanditDifferential, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::BanditCase c = fuzz::genBanditCase(5);
    ASSERT_EQ(fuzz::diffBanditCase(c), "");
    const fuzz::BanditCase s = fuzz::shrinkBanditCase(c);
    EXPECT_EQ(s.steps, c.steps);
}

// ---------------------------------------------------------------------------
// End-to-end property checks

TEST(SimProperties, HoldOnGeneratedCases)
{
    for (uint64_t i = 0; i < 25; ++i) {
        const uint64_t cs = fuzz::iterationSeed(5, i);
        const fuzz::SimCase c =
            fuzz::genSimCase(fuzz::subSeed(cs, laneOf("sim")));
        ASSERT_EQ(fuzz::checkSimProperties(c), "");
    }
}

TEST(SimProperties, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::SimCase c = fuzz::genSimCase(9);
    ASSERT_EQ(fuzz::checkSimProperties(c), "");
    const fuzz::SimCase s = fuzz::shrinkSimCase(c);
    EXPECT_EQ(s.instructions, c.instructions);
}

// ---------------------------------------------------------------------------
// Shared shrink loop (fuzz/shrink.h)

/** A synthetic case: two lengths and three knobs. */
struct ToyCase
{
    uint64_t len = 0;
    int width = 0;
    int a = 1;
    int b = 1;
    int c = 1;

    bool operator==(const ToyCase &) const = default;
};

/** The toy domain's halvings (floors 100 and 4) and knobs (a, b, c
 *  reset to 0, in that order). */
ToyCase
shrinkToy(const ToyCase &t,
          const std::function<bool(const ToyCase &)> &fails)
{
    return fuzz::shrinkCase(
        t, fails,
        {[](ToyCase &x) { return fuzz::halveAbove(x.len, 100); },
         [](ToyCase &x) { return fuzz::halveAbove(x.width, 4); }},
        {[](ToyCase &x) { x.a = 0; }, [](ToyCase &x) { x.b = 0; },
         [](ToyCase &x) { x.c = 0; }});
}

TEST(FuzzShrink, PassingCaseComesBackUnchanged)
{
    const ToyCase t{1000, 64};
    int calls = 0;
    const ToyCase s = shrinkToy(t, [&](const ToyCase &) {
        ++calls;
        return false;
    });
    EXPECT_EQ(s, t);
    EXPECT_EQ(calls, 1) << "a passing case must not be shrunk at all";
}

TEST(FuzzShrink, HalvingStopsAtTheFloor)
{
    // Always failing: each length halves until it is at or below its
    // floor (1000 -> 500 -> 250 -> 125 -> 62; 64 -> 32 -> 16 -> 8 ->
    // 4), and every knob is kept.
    const ToyCase s =
        shrinkToy({1000, 64}, [](const ToyCase &) { return true; });
    EXPECT_EQ(s.len, 62u);
    EXPECT_EQ(s.width, 4);
    EXPECT_EQ(s.a + s.b + s.c, 0);
}

TEST(FuzzShrink, HalvingStopsAtTheFirstPassingTrial)
{
    // Fails only while len >= 300: 1000 -> 500 fails, 250 passes, so
    // len stops at 500 even though 250 is above the floor. The second
    // length starts only once the first is done.
    std::vector<std::pair<uint64_t, int>> trials;
    const ToyCase s = shrinkToy({1000, 64}, [&](const ToyCase &x) {
        trials.push_back({x.len, x.width});
        return x.len >= 300 && x.width >= 16;
    });
    EXPECT_EQ(s.len, 500u);
    EXPECT_EQ(s.width, 16);
    const std::vector<std::pair<uint64_t, int>> want = {
        {1000, 64}, {500, 64}, {250, 64}, {500, 32}, {500, 16},
        {500, 8},   {500, 16}, {500, 16}, {500, 16}};
    EXPECT_EQ(trials, want);
}

TEST(FuzzShrink, KnobsAreTriedInOrderAndKeptOnlyWhileFailing)
{
    // Fails only while b == 1: resetting a is kept, resetting b passes
    // and is dropped, resetting c is kept on top of the kept a.
    std::vector<std::array<int, 3>> trials;
    const ToyCase s = shrinkToy({50, 2}, [&](const ToyCase &x) {
        trials.push_back({x.a, x.b, x.c});
        return x.b == 1;
    });
    EXPECT_EQ(s.len, 50u) << "already at its floor";
    EXPECT_EQ(s.a, 0);
    EXPECT_EQ(s.b, 1);
    EXPECT_EQ(s.c, 0);
    const std::vector<std::array<int, 3>> want = {
        {1, 1, 1}, {0, 1, 1}, {0, 0, 1}, {0, 1, 0}};
    EXPECT_EQ(trials, want);
}

// ---------------------------------------------------------------------------
// Domain registry

TEST(FuzzRegistry, NamesAndLanesAreUnique)
{
    std::set<std::string> names;
    std::set<uint64_t> lanes;
    for (const fuzz::Domain &d : fuzz::domains()) {
        EXPECT_TRUE(names.insert(d.name).second) << d.name;
        EXPECT_TRUE(lanes.insert(d.lane).second) << d.name;
        EXPECT_EQ(fuzz::findDomain(d.name), &d);
        EXPECT_NE(d.check, nullptr) << d.name;
        EXPECT_NE(d.describe, nullptr) << d.name;
    }
}

TEST(FuzzRegistry, EveryDomainCountsOnlyItsOwnCases)
{
    for (const fuzz::Domain &d : fuzz::domains()) {
        SCOPED_TRACE(d.name);
        fuzz::FuzzOptions opt;
        opt.iters = 2;
        opt.domain = d.name;
        const fuzz::FuzzReport report = fuzz::runFuzz(opt);
        EXPECT_TRUE(report.ok());
        EXPECT_EQ(report.iterations, 2u);
        for (size_t i = 0; i < report.cases.size(); ++i)
            EXPECT_EQ(report.cases[i], i == indexOf(d.name) ? 2u : 0u)
                << fuzz::domains()[i].name;
    }
}

TEST(FuzzRegistry, UnknownNamesAreRejectedAndTheUsageListsEveryName)
{
    // `--domain sweep` was retired with the serial-vs-parallel oracle.
    EXPECT_EQ(fuzz::findDomain("sweep"), nullptr);
    EXPECT_EQ(fuzz::findDomain(""), nullptr);
    EXPECT_EQ(fuzz::findDomain("Cache"), nullptr);
    std::string want;
    for (const fuzz::Domain &d : fuzz::domains())
        want += (want.empty() ? "" : ", ") + std::string(d.name);
    EXPECT_EQ(fuzz::domainNames(), want);
}

// ---------------------------------------------------------------------------
// Case streams: a case seed replays the identical case forever, so a
// `bench_fuzz --replay <seed>` line in an old CI log keeps working.

TEST(FuzzCaseStreams, DigestsArePinned)
{
    // FNV-1a 64 over describe(subSeed(iterationSeed(1, i), lane)) + "\n"
    // for i = 0..63. A new domain adds its digest here; a changed one
    // means a generator moved and old repro seeds are dead.
    const std::map<std::string, uint64_t> pinned = {
        {"cache", 0xe288f4a66156d4b0ull},
        {"bandit", 0x7072854b06166c87ull},
        {"sim", 0x52bf18d4ef435308ull},
        {"replay", 0x256dab841a3f76a4ull},
        {"drift", 0xf0a4ef9fcb5ed737ull},
        {"smt", 0x764c43e7ed6a3efdull},
    };
    for (const fuzz::Domain &d : fuzz::domains()) {
        uint64_t h = 1469598103934665603ull;
        for (uint64_t i = 0; i < 64; ++i) {
            const uint64_t cs = fuzz::iterationSeed(1, i);
            for (const unsigned char ch :
                 d.describe(fuzz::subSeed(cs, d.lane)) + "\n") {
                h ^= ch;
                h *= 1099511628211ull;
            }
        }
        ASSERT_EQ(pinned.count(d.name), 1u) << d.name << " has no digest";
        EXPECT_EQ(h, pinned.at(d.name)) << d.name << " case stream moved";
    }
}

// ---------------------------------------------------------------------------
// Top-level harness

TEST(FuzzHarness, SmokeRunPassesAndCountsCases)
{
    fuzz::FuzzOptions opt;
    opt.seedBase = 1;
    opt.iters = 40;
    opt.jobs = 2;
    const fuzz::FuzzReport report = fuzz::runFuzz(opt);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.iterations, 40u);
    ASSERT_EQ(report.cases.size(), fuzz::domains().size());
    for (size_t i = 0; i < report.cases.size(); ++i)
        EXPECT_EQ(report.cases[i], 40u) << fuzz::domains()[i].name;
}

TEST(FuzzHarness, IterationReplayIsDeterministic)
{
    const uint64_t cs = fuzz::iterationSeed(1, 17);
    fuzz::FuzzReport a, b;
    fuzz::runFuzzIteration(cs, a, false, "");
    fuzz::runFuzzIteration(cs, b, false, "");
    EXPECT_EQ(a.ok(), b.ok());
    EXPECT_EQ(a.cases, b.cases);
    EXPECT_EQ(a.cases, std::vector<uint64_t>(fuzz::domains().size(), 1));
}

TEST(FuzzHarness, ReportMergeAccumulates)
{
    fuzz::FuzzReport a, b;
    a.iterations = 3;
    a.cases[indexOf("cache")] = 3;
    b.iterations = 2;
    b.cases[indexOf("smt")] = 1;
    b.failures.push_back({7, "cache", "msg", "repro"});
    a.merge(b);
    EXPECT_EQ(a.iterations, 5u);
    EXPECT_EQ(a.cases[indexOf("cache")], 3u);
    EXPECT_EQ(a.cases[indexOf("smt")], 1u);
    ASSERT_EQ(a.failures.size(), 1u);
    EXPECT_FALSE(a.ok());
}

// ---------------------------------------------------------------------------
// Cross-seed determinism of the stochastic policies (ISSUE 4
// satellite): identical seeds must give byte-identical audit logs
// across in-process runs, and identical agent trajectories across
// sweep job counts.

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/mab_fuzz_" + name +
        "_" + std::to_string(::getpid()) + ".jsonl";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One full audited agent run; returns the audit log bytes. A fresh
 *  ScopedTracer per run resets the tracer's agent-track numbering, so
 *  identical runs must produce identical bytes. */
std::string
runAuditedAgent(MabAlgorithm algo, uint64_t seed,
                const std::string &path)
{
    {
        tracing::ScopedTracer guard;
        EXPECT_TRUE(guard->openAudit(path));
        MabConfig cfg;
        cfg.numArms = 4;
        cfg.seed = seed;
        BanditHwConfig hw;
        hw.stepUnits = 4;
        hw.selectionLatencyCycles = 0;
        BanditAgent agent(makePolicy(algo, cfg), hw);
        uint64_t instr = 0, cycles = 0;
        for (int s = 0; s < 60; ++s) {
            instr += 300 + 10 * s;
            cycles += 400;
            agent.tick(4, instr, cycles);
        }
    }
    const std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

class StochasticDeterminism
    : public ::testing::TestWithParam<MabAlgorithm>
{
};

TEST_P(StochasticDeterminism, IdenticalSeedsGiveByteIdenticalAudits)
{
    const MabAlgorithm algo = GetParam();
    const std::string a =
        runAuditedAgent(algo, 123, tmpPath("a"));
    const std::string b =
        runAuditedAgent(algo, 123, tmpPath("b"));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "same seed, different audit bytes";

    const std::string c =
        runAuditedAgent(algo, 124, tmpPath("c"));
    EXPECT_NE(a, c) << "different seeds should explore differently";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StochasticDeterminism,
    ::testing::Values(MabAlgorithm::EpsilonGreedy,
                      MabAlgorithm::Thompson),
    [](const ::testing::TestParamInfo<MabAlgorithm> &info) {
        return info.param == MabAlgorithm::EpsilonGreedy
            ? "eGreedy"
            : "Thompson";
    });

/** Fingerprint of one (seeded) agent trajectory: the full switch
 *  history plus the exact bits of the final policy state. */
std::string
agentTrajectory(MabAlgorithm algo, uint64_t seed)
{
    MabConfig cfg;
    cfg.numArms = 4;
    cfg.seed = seed;
    BanditHwConfig hw;
    hw.stepUnits = 4;
    hw.selectionLatencyCycles = 0;
    hw.recordHistory = true;
    BanditAgent agent(makePolicy(algo, cfg), hw);
    uint64_t instr = 0, cycles = 0;
    for (int s = 0; s < 80; ++s) {
        instr += 250 + 7 * s;
        cycles += 350;
        agent.tick(4, instr, cycles);
    }
    std::ostringstream ss;
    for (const auto &[cycle, arm] : agent.history())
        ss << cycle << ":" << arm << ";";
    ss << std::hexfloat;
    for (const double r : agent.policy().armRewards())
        ss << r << ",";
    ss << agent.policy().totalCount();
    return ss.str();
}

TEST(StochasticDeterminismAcrossJobs, TrajectoriesMatchJobCounts)
{
    const MabAlgorithm algos[] = {MabAlgorithm::EpsilonGreedy,
                                  MabAlgorithm::Thompson};
    const size_t n = 8;
    const auto fn = [&](size_t i) {
        return agentTrajectory(algos[i % 2], 1000 + i / 2);
    };
    SweepRunner serial(1);
    const std::vector<std::string> a =
        serial.runAll<std::string>(n, fn);
    SweepRunner pool(4);
    const std::vector<std::string> b =
        pool.runAll<std::string>(n, fn);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i], b[i]) << "task " << i;
}

} // namespace
} // namespace mab
