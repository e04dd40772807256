#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "smt/thread_source.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

namespace mab {
namespace {

AppProfile
oneApp(PatternKind kind, uint64_t footprint = 1 << 20)
{
    AppProfile app;
    app.name = "t";
    app.seed = 5;
    PatternPhase ph;
    ph.kind = kind;
    ph.footprintBytes = footprint;
    ph.lengthInstrs = 100'000;
    app.phases = {ph};
    return app;
}

TEST(Trace, Deterministic)
{
    SyntheticTrace a(oneApp(PatternKind::Streaming));
    SyntheticTrace b(oneApp(PatternKind::Streaming));
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.isLoad, rb.isLoad);
    }
}

TEST(Trace, ResetReplaysFromStart)
{
    SyntheticTrace t(oneApp(PatternKind::Random));
    std::vector<uint64_t> first;
    for (int i = 0; i < 1000; ++i)
        first.push_back(t.next().addr);
    t.reset();
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(t.next().addr, first[i]);
}

TEST(Trace, InstructionMixMatchesFractions)
{
    AppProfile app = oneApp(PatternKind::Random);
    app.phases[0].memFraction = 0.4;
    app.phases[0].branchFraction = 0.2;
    SyntheticTrace t(app);
    int mem = 0, branch = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) {
        const TraceRecord r = t.next();
        mem += r.isMemory();
        branch += r.isBranch;
    }
    EXPECT_NEAR(static_cast<double>(mem) / n, 0.4, 0.02);
    EXPECT_NEAR(static_cast<double>(branch) / n, 0.2, 0.02);
}

TEST(Trace, StoreFractionRespected)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases[0].memFraction = 0.5;
    app.phases[0].storeFraction = 0.5;
    SyntheticTrace t(app);
    int loads = 0, stores = 0;
    for (int i = 0; i < 100'000; ++i) {
        const TraceRecord r = t.next();
        loads += r.isLoad;
        stores += r.isStore;
    }
    EXPECT_NEAR(static_cast<double>(stores) / (loads + stores), 0.5,
                0.03);
}

TEST(Trace, AddressesStayInsideFootprint)
{
    for (PatternKind kind :
         {PatternKind::Streaming, PatternKind::Strided,
          PatternKind::PointerChase, PatternKind::SpatialRegion,
          PatternKind::Random}) {
        AppProfile app = oneApp(kind, 1 << 20);
        SyntheticTrace t(app);
        uint64_t base = ~0ull, top = 0;
        for (int i = 0; i < 50'000; ++i) {
            const TraceRecord r = t.next();
            if (!r.isMemory())
                continue;
            base = std::min(base, r.addr);
            top = std::max(top, r.addr);
        }
        EXPECT_LE(top - base, (1u << 20) + kLineBytes)
            << toString(kind);
    }
}

TEST(Trace, StreamingProducesSequentialLineRuns)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases[0].numStreams = 1;
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    int sequential = 0, total = 0;
    uint64_t prev = lineAddr(t.next().addr);
    for (int i = 0; i < 5000; ++i) {
        const uint64_t line = lineAddr(t.next().addr);
        sequential += line == prev + kLineBytes;
        ++total;
        prev = line;
    }
    EXPECT_GT(sequential, total * 9 / 10);
}

TEST(Trace, StridedKeepsConfiguredStride)
{
    AppProfile app = oneApp(PatternKind::Strided);
    app.phases[0].numStreams = 1;
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    app.phases[0].strideBytes = 512;
    SyntheticTrace t(app);
    int strided = 0, total = 0;
    int64_t prev = static_cast<int64_t>(t.next().addr);
    for (int i = 0; i < 5000; ++i) {
        const int64_t addr = static_cast<int64_t>(t.next().addr);
        strided += (addr - prev) == 512;
        ++total;
        prev = addr;
    }
    EXPECT_GT(strided, total * 9 / 10);
}

/** A stride at either end of the int64 range wraps the cursor in
 *  unsigned arithmetic (no signed overflow) and stays inside the
 *  footprint: inside a walk the next offset is (offset + stride) mod
 *  2^64 mod footprint. */
TEST(Trace, StridedExtremeStridesWrapInsideTheFootprint)
{
    for (const int64_t stride : {std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min()}) {
        AppProfile app = oneApp(PatternKind::Strided, 3 * 4096 + 64);
        app.phases[0].numStreams = 1;
        app.phases[0].accessesPerLine = 1;
        app.phases[0].memFraction = 1.0;
        app.phases[0].branchFraction = 0.0;
        app.phases[0].strideBytes = stride;
        const uint64_t fp = app.phases[0].footprintBytes;
        SyntheticTrace t(app);
        const uint64_t base = t.dataBase();
        uint64_t prev = t.next().addr - base;
        int stepped = 0;
        const int n = 5000;
        for (int i = 0; i < n; ++i) {
            const uint64_t off = t.next().addr - base;
            ASSERT_LT(off, fp) << "stride " << stride;
            stepped += off == (prev + static_cast<uint64_t>(stride)) % fp;
            prev = off;
        }
        EXPECT_GT(stepped, n * 9 / 10) << "stride " << stride;
    }
}

TEST(Trace, PointerChaseSetsDependencyFlagAtConfiguredRate)
{
    AppProfile app = oneApp(PatternKind::PointerChase);
    app.phases[0].chaseSerialFrac = 0.25;
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    int deps = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        deps += t.next().dependsOnPrevLoad;
    EXPECT_NEAR(static_cast<double>(deps) / n, 0.25, 0.02);
}

TEST(Trace, SpatialRegionRevisitsSameFootprint)
{
    AppProfile app = oneApp(PatternKind::SpatialRegion, 1 << 16);
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    // Collect per-region offset sets; they must all be identical.
    std::map<uint64_t, std::set<int>> regions;
    for (int i = 0; i < 20'000; ++i) {
        const TraceRecord r = t.next();
        regions[r.addr / 2048].insert(
            static_cast<int>((r.addr % 2048) / kLineBytes));
    }
    ASSERT_GT(regions.size(), 3u);
    const auto &ref = regions.begin()->second;
    int matches = 0, total = 0;
    for (const auto &[base, fp] : regions) {
        ++total;
        matches += fp == ref;
    }
    EXPECT_GT(matches, total * 2 / 3);
}

TEST(Trace, AccessesPerLineControlsL1Locality)
{
    AppProfile app = oneApp(PatternKind::Random);
    app.phases[0].accessesPerLine = 4;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    int same_line = 0, total = 0;
    uint64_t prev = lineAddr(t.next().addr);
    for (int i = 0; i < 20'000; ++i) {
        const uint64_t line = lineAddr(t.next().addr);
        same_line += line == prev;
        ++total;
        prev = line;
    }
    // 3 of every 4 accesses stay in the line.
    EXPECT_NEAR(static_cast<double>(same_line) / total, 0.75, 0.03);
}

TEST(Trace, PhasesAdvanceAndLoop)
{
    AppProfile app;
    app.name = "p";
    app.seed = 3;
    PatternPhase a;
    a.kind = PatternKind::Streaming;
    a.lengthInstrs = 1000;
    PatternPhase b;
    b.kind = PatternKind::Random;
    b.lengthInstrs = 1000;
    app.phases = {a, b};
    app.loopPhases = true;
    SyntheticTrace t(app);
    EXPECT_EQ(t.currentPhase(), 0u);
    for (int i = 0; i < 1000; ++i)
        t.next();
    EXPECT_EQ(t.currentPhase(), 1u);
    for (int i = 0; i < 1000; ++i)
        t.next();
    EXPECT_EQ(t.currentPhase(), 0u);
}

TEST(Trace, NonLoopingStaysInLastPhase)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases[0].lengthInstrs = 500;
    app.loopPhases = false;
    SyntheticTrace t(app);
    for (int i = 0; i < 2000; ++i)
        t.next();
    EXPECT_EQ(t.currentPhase(), 0u);
}

TEST(Trace, DifferentSeedsDiverge)
{
    AppProfile a = oneApp(PatternKind::Random);
    AppProfile b = oneApp(PatternKind::Random);
    b.seed = 6;
    SyntheticTrace ta(a), tb(b);
    std::vector<uint64_t> ma, mb;
    while (ma.size() < 1000) {
        const TraceRecord r = ta.next();
        if (r.isMemory())
            ma.push_back(r.addr);
    }
    while (mb.size() < 1000) {
        const TraceRecord r = tb.next();
        if (r.isMemory())
            mb.push_back(r.addr);
    }
    int same = 0;
    for (size_t i = 0; i < 1000; ++i)
        same += ma[i] == mb[i];
    EXPECT_LT(same, 100);
}

TEST(Trace, DifferentAppsDoNotAliasInAddressSpace)
{
    SyntheticTrace a(appByName("lbm06"));
    SyntheticTrace b(appByName("mcf06"));
    uint64_t amin = ~0ull, amax = 0, bmin = ~0ull, bmax = 0;
    for (int i = 0; i < 20'000; ++i) {
        const TraceRecord ra = a.next(), rb = b.next();
        if (ra.isMemory()) {
            amin = std::min(amin, ra.addr);
            amax = std::max(amax, ra.addr);
        }
        if (rb.isMemory()) {
            bmin = std::min(bmin, rb.addr);
            bmax = std::max(bmax, rb.addr);
        }
    }
    EXPECT_TRUE(amax < bmin || bmax < amin);
}

TEST(Suites, FiveSuitesWithWorkloads)
{
    const auto suites = allSuites();
    ASSERT_EQ(suites.size(), 5u);
    for (const auto &suite : suites) {
        const auto w = suiteWorkloads(suite);
        EXPECT_GE(w.size(), 4u) << suite;
        for (const auto &spec : w)
            EXPECT_EQ(spec.suite, suite);
    }
}

TEST(Suites, UnknownSuiteThrows)
{
    EXPECT_THROW(suiteWorkloads("NOPE"), std::out_of_range);
}

TEST(Suites, TuneSetHas46SpecTraces)
{
    const auto tune = tuneSetPrefetch();
    EXPECT_EQ(tune.size(), 46u);
    // Variants of the same app must differ in seed only.
    EXPECT_EQ(tune[0].name.substr(0, tune[0].name.size() - 2),
              tune[1].name.substr(0, tune[1].name.size() - 2));
    EXPECT_NE(tune[0].seed, tune[1].seed);
}

TEST(Suites, AllWorkloadNamesUnique)
{
    std::set<std::string> names;
    for (const auto &spec : allWorkloads())
        EXPECT_TRUE(names.insert(spec.app.name).second)
            << spec.app.name;
}

TEST(Suites, AppByNameRoundTrips)
{
    const AppProfile app = appByName("mcf06");
    EXPECT_EQ(app.name, "mcf06");
    EXPECT_THROW(appByName("not_an_app"), std::out_of_range);
}

TEST(Suites, Mcf06HasPhaseChange)
{
    const AppProfile app = appByName("mcf06");
    ASSERT_GE(app.phases.size(), 2u);
    EXPECT_EQ(app.phases[0].kind, PatternKind::PointerChase);
    EXPECT_EQ(app.phases[1].kind, PatternKind::Strided);
}

TEST(PhaseShuffle, ProducesDoubledPhaseListWithHalvedLengths)
{
    const AppProfile app = appByName("mcf06");
    auto shuffled = makePhaseShuffledTrace(app, 9);
    ASSERT_NE(shuffled, nullptr);
    EXPECT_NE(shuffled->name(), app.name);
    // It must still produce a valid stream.
    for (int i = 0; i < 10'000; ++i)
        shuffled->next();
}

TEST(PatternKindNames, AllDistinct)
{
    std::set<std::string> names;
    for (PatternKind kind :
         {PatternKind::Streaming, PatternKind::Strided,
          PatternKind::PointerChase, PatternKind::SpatialRegion,
          PatternKind::Random}) {
        EXPECT_TRUE(names.insert(toString(kind)).second);
    }
}

/**
 * Degenerate and out-of-domain profiles throw std::invalid_argument
 * from the generator's constructor, on the live path and on the
 * replayed one (a MaterializedTrace builds the same generator), and
 * each accepted limit still constructs. The message names the field.
 */
void
expectRejected(const AppProfile &app, const std::string &field)
{
    try {
        SyntheticTrace live(app);
        ADD_FAILURE() << "accepted a profile with a bad " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(MaterializedTrace(app, 100), std::invalid_argument);
}

TEST(ProfileCheck, RejectsAnAppWithoutPhases)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases.clear();
    expectRejected(app, "phases");
}

TEST(ProfileCheck, RejectsMorePhasesThanThePackedPcHolds)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases.assign(SyntheticTrace::kMaxPhases, app.phases.front());
    EXPECT_NO_THROW(SyntheticTrace{app});
    app.phases.push_back(app.phases.front());
    expectRejected(app, "phases");
}

TEST(ProfileCheck, RejectsFootprintBelowOneLine)
{
    EXPECT_NO_THROW(SyntheticTrace{oneApp(PatternKind::Random, 64)});
    expectRejected(oneApp(PatternKind::Random, 63), "footprintBytes");
    expectRejected(oneApp(PatternKind::Streaming, 0), "footprintBytes");
}

TEST(ProfileCheck, RejectsSpatialFootprintBelowOneRegion)
{
    EXPECT_NO_THROW(
        SyntheticTrace{oneApp(PatternKind::SpatialRegion, 2048)});
    expectRejected(oneApp(PatternKind::SpatialRegion, 2047),
                   "footprintBytes");
}

TEST(ProfileCheck, RejectsFootprintAboveThePackedAddressRange)
{
    EXPECT_NO_THROW(SyntheticTrace{oneApp(
        PatternKind::Random, SyntheticTrace::kMaxFootprintBytes)});
    expectRejected(oneApp(PatternKind::Random,
                          SyntheticTrace::kMaxFootprintBytes + 1),
                   "footprintBytes");
}

TEST(ProfileCheck, RejectsMoreStreamsThanOnePhasePcWindowHolds)
{
    AppProfile app = oneApp(PatternKind::Strided);
    app.phases[0].numStreams = SyntheticTrace::kMaxStreams;
    EXPECT_NO_THROW(SyntheticTrace{app});
    app.phases[0].numStreams = SyntheticTrace::kMaxStreams + 1;
    expectRejected(app, "numStreams");
}

// ---------------------------------------------------------------------------
// Pinned inputs. The arena and live generation now share one word per
// record and per uop, so a replay-vs-live comparison can no longer
// catch a draw that drifts; these digests, taken before the integer
// draws and the 16-bit uop word replaced the double-valued ones, can.

void
fnv1a(uint64_t &h, uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (value >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
    }
}

TEST(GeneratorStreams, DigestsArePinned)
{
    constexpr uint64_t kRecords = 200'000;
    // FNV-1a 64 over the little-endian PackedRecord words of the first
    // 200k records of every suite app.
    const std::map<std::string, uint64_t> traces = {
        {"gcc06", 0xb54790f3594e201bull},
        {"mcf06", 0x102b8d4531ea304full},
        {"lbm06", 0xd4ea20433e7d4e6bull},
        {"libquantum06", 0xb608734393b2c45bull},
        {"bwaves06", 0x1bd45ef8b0f8eafbull},
        {"milc06", 0x76d721808dded448ull},
        {"omnetpp06", 0xcb4f5a4b52aec262ull},
        {"soplex06", 0xa602f85b8ab631e3ull},
        {"cactusADM06", 0x9fdd82ebb3a997d3ull},
        {"sphinx06", 0xbfae1ae1ac1ef500ull},
        {"gcc17", 0x0ef65ed1f6f3cc2full},
        {"mcf17", 0xd0998babc7cceca3ull},
        {"lbm17", 0xe4a4f32262b144ffull},
        {"cactuBSSN17", 0x4b1e5f32906d51c1ull},
        {"xalancbmk17", 0x4424b191eb092963ull},
        {"deepsjeng17", 0xac91395e6479bbd3ull},
        {"x264_17", 0xdd395f4b435b689bull},
        {"pop2_17", 0x0d1ef046825ed3b7ull},
        {"fotonik17", 0xca89f1ff01c05b70ull},
        {"roms17", 0x2d6847ea7d8f14d7ull},
        {"xz17", 0x5d35098baab92d7bull},
        {"wrf17", 0xf3bb211462c8df93ull},
        {"exchange17", 0xd1e7caf4f3f2845full},
        {"ligra_bfs", 0xfc9bdaa38e00e4f7ull},
        {"ligra_pagerank", 0xbe69bd92ddaea712ull},
        {"ligra_components", 0x9d9e67c9b0a170d6ull},
        {"ligra_bc", 0x58bb692d30d66515ull},
        {"ligra_radii", 0xc112bea07b4bf73full},
        {"ligra_triangle", 0x532a306abc0f10a7ull},
        {"parsec_blackscholes", 0x549e73c2ea157e45ull},
        {"parsec_canneal", 0xc4e5965b561cf5dfull},
        {"parsec_fluidanimate", 0xdb1967cc0d1582feull},
        {"parsec_streamcluster", 0xd6d6b1cd476999cfull},
        {"parsec_dedup", 0x25efee5fc28db276ull},
        {"parsec_ferret", 0x65c0d99a4a752887ull},
        {"cloud_cassandra", 0x44bfaa81ea01654dull},
        {"cloud_classification", 0xdd69e88db22179ffull},
        {"cloud_cloud9", 0x69afa2c92482b96eull},
        {"cloud_nutch", 0x4b141c987d71f897ull},
    };
    const std::vector<WorkloadSpec> all = allWorkloads();
    ASSERT_EQ(all.size(), traces.size());
    for (const WorkloadSpec &w : all) {
        SyntheticTrace gen(w.app);
        uint64_t h = 1469598103934665603ull;
        for (uint64_t i = 0; i < kRecords; ++i)
            fnv1a(h, gen.nextWord().w, 8);
        ASSERT_EQ(traces.count(w.app.name), 1u) << w.app.name;
        EXPECT_EQ(h, traces.at(w.app.name)) << w.app.name << " moved";
    }

    // FNV-1a 64 over the decoded fields (kind 1 byte, execLatency and
    // drainLatency 4, mispredicted 1, depDistance 2) of the first 200k
    // uops of every SMT catalog app at both lane seeds of a run with
    // seed 1 (SmtSimulator: seed * 0x9E37 + lane).
    const std::map<std::string, uint64_t> uops = {
        {"gcc/1", 0x571fb01edd152a35ull},
        {"gcc/2", 0xd9b3cb26ce38f745ull},
        {"lbm/1", 0x5b0e0cb5b5b851bbull},
        {"lbm/2", 0x2638309c876c401aull},
        {"mcf/1", 0xbac47dd74e6967ccull},
        {"mcf/2", 0x8871e4d5fd9120dcull},
        {"cactuBSSN/1", 0xe8b954610b7d94c3ull},
        {"cactuBSSN/2", 0xe03d0a99d6433c1aull},
        {"perlbench/1", 0xf76b3fa9cc4e1f0dull},
        {"perlbench/2", 0xef58117311e9fd39ull},
        {"bwaves/1", 0x04aafe5a99f69733ull},
        {"bwaves/2", 0x4e12a7d0f20a6065ull},
        {"namd/1", 0xe2c10259df1b5940ull},
        {"namd/2", 0x22a32b6dcecac27bull},
        {"parest/1", 0xf4501976c4ff262eull},
        {"parest/2", 0x01dba85db52441a4ull},
        {"povray/1", 0xcd98883aceaf89a7ull},
        {"povray/2", 0x88ee4465cbe4bfaeull},
        {"wrf/1", 0x40d3d2c566ecd1adull},
        {"wrf/2", 0xdac04c96f38a33b4ull},
        {"blender/1", 0x42cdf331ddccb347ull},
        {"blender/2", 0x68fb482c32b0fba8ull},
        {"cam4/1", 0xab698ce9d920c0daull},
        {"cam4/2", 0x18ef559a112ce0b6ull},
        {"imagick/1", 0xf6104275310d8902ull},
        {"imagick/2", 0x351e9136e439ca30ull},
        {"nab/1", 0xfffdc4400fb6ce20ull},
        {"nab/2", 0xaeb89fbc8ff54493ull},
        {"fotonik3d/1", 0xf1b0a8f9eaadb479ull},
        {"fotonik3d/2", 0x7b7a5453857381eaull},
        {"roms/1", 0x94a3e644231154f4ull},
        {"roms/2", 0xb9d827b278b9032aull},
        {"x264/1", 0xaf404674a55feeb8ull},
        {"x264/2", 0x585944986cf763e7ull},
        {"deepsjeng/1", 0x2151d0de9427727aull},
        {"deepsjeng/2", 0x32c75e654a9f239full},
        {"leela/1", 0xf1be8b3c37eca1bfull},
        {"leela/2", 0x840ec47be18a6926ull},
        {"exchange2/1", 0x0fb2bc9a58bc3ea9ull},
        {"exchange2/2", 0x9f1c0a49167a3f5dull},
        {"xz/1", 0x239a39258f9e1c9eull},
        {"xz/2", 0x83cdaa5fe3f2952aull},
        {"xalancbmk/1", 0x6635e554d814f260ull},
        {"xalancbmk/2", 0xbd684636f9805ef5ull},
    };
    ASSERT_EQ(smtAppCatalog().size() * 2, uops.size());
    for (const SmtAppParams &p : smtAppCatalog()) {
        for (uint64_t lane = 1; lane <= 2; ++lane) {
            ThreadSource src(p, 0x9E37u + lane);
            uint64_t h = 1469598103934665603ull;
            for (uint64_t i = 0; i < kRecords; ++i) {
                const Uop u = src.next();
                fnv1a(h, static_cast<uint64_t>(u.kind), 1);
                fnv1a(h, u.execLatency, 4);
                fnv1a(h, u.drainLatency, 4);
                fnv1a(h, u.mispredicted ? 1 : 0, 1);
                fnv1a(h, u.depDistance, 2);
            }
            const std::string key = p.name + "/" + std::to_string(lane);
            ASSERT_EQ(uops.count(key), 1u) << key;
            EXPECT_EQ(h, uops.at(key)) << key << " moved";
        }
    }
}

} // namespace
} // namespace mab
