#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cpu/core_model.h"
#include "prefetch/stride.h"
#include "sim/tracing.h"
#include "smt/thread_source.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

using namespace mab;

/**
 * Trace-arena / replay tests: the hard invariant is that replay is
 * byte-identical to live generation — every field of every record,
 * for every workload, across chunk boundaries, after reset(), and
 * regardless of which consumer generates each chunk.
 */

static_assert(sizeof(PackedRecord) == 8,
              "replay buffers assume one-word packed records");
static_assert(sizeof(PackedUop) == 2,
              "uop stream chunks assume 16-bit packed uops");

namespace {

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 uint64_t index, const std::string &who)
{
    ASSERT_EQ(a.pc, b.pc) << who << " record " << index;
    ASSERT_EQ(a.addr, b.addr) << who << " record " << index;
    ASSERT_EQ(a.isLoad, b.isLoad) << who << " record " << index;
    ASSERT_EQ(a.isStore, b.isStore) << who << " record " << index;
    ASSERT_EQ(a.isBranch, b.isBranch) << who << " record " << index;
    ASSERT_EQ(a.mispredicted, b.mispredicted)
        << who << " record " << index;
    ASSERT_EQ(a.dependsOnPrevLoad, b.dependsOnPrevLoad)
        << who << " record " << index;
}

/** Every end-to-end counter of a run, bit-exact. */
std::vector<uint64_t>
coreCounters(const CoreModel &core)
{
    const CacheHierarchy &h = core.hierarchy();
    const PrefetchStats &ps = h.prefetchStats();
    uint64_t ipc = 0;
    const double v = core.ipc();
    std::memcpy(&ipc, &v, sizeof(ipc));
    return {core.instructions(),      core.cycles(),
            ipc,                      h.hitsAt(HitLevel::L1),
            h.hitsAt(HitLevel::L2),   h.hitsAt(HitLevel::Llc),
            h.hitsAt(HitLevel::Dram), h.l2DemandAccesses(),
            h.llcDemandMisses(),      ps.issued,
            ps.timely,                ps.late,
            ps.wrong,                 ps.dropped};
}

/**
 * Every test runs against the process-global arena; snapshot and
 * restore its knobs (and contents) so tests compose in any order.
 */
class ReplayTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceArena &arena = TraceArena::global();
        enabled_ = arena.stats().enabled;
        budget_ = arena.budgetBytes();
        arena.clear();
        arena.setEnabled(true);
    }

    void
    TearDown() override
    {
        TraceArena &arena = TraceArena::global();
        arena.clear();
        arena.setEnabled(enabled_);
        arena.setBudgetBytes(budget_);
    }

  private:
    bool enabled_ = true;
    uint64_t budget_ = 0;
};

} // namespace

namespace {

/** A data base at the top of SyntheticTrace's range (14 bits << 32). */
constexpr uint64_t kBase = 0x3FFFull << 32;

/** The largest PC a SyntheticTrace can emit: the last stream of the
 *  last phase's PC window. */
constexpr uint64_t kMaxGeneratedPc = SyntheticTrace::kCodeBase +
    ((SyntheticTrace::kMaxPhases - 1) << SyntheticTrace::kPhasePcShift) +
    (SyntheticTrace::kMaxStreams - 1) * SyntheticTrace::kStreamPcStride;

TraceRecord
roundTrip(const TraceRecord &rec, uint64_t base = kBase)
{
    return PackedRecord::pack(rec, base).unpack(base);
}

} // namespace

/** Every flag combination at both PC edges and both address-offset
 *  edges; non-memory records carry address 0. */
TEST(PackedRecord, RoundTripsEveryFieldCombination)
{
    const uint64_t pcs[] = {SyntheticTrace::kCodeBase,
                            SyntheticTrace::kCodeBase +
                                PackedRecord::kPcMask};
    const uint64_t offsets[] = {0, PackedRecord::kAddrOffsetMask};
    for (unsigned bits = 0; bits < 32; ++bits) {
        for (const uint64_t pc : pcs) {
            for (const uint64_t off : offsets) {
                TraceRecord rec;
                rec.pc = pc;
                rec.isLoad = bits & 1;
                rec.isStore = (bits >> 1) & 1;
                rec.isBranch = (bits >> 2) & 1;
                rec.mispredicted = (bits >> 3) & 1;
                rec.dependsOnPrevLoad = (bits >> 4) & 1;
                rec.addr = rec.isMemory() ? kBase + off : 0;
                expectSameRecord(rec, roundTrip(rec), bits, "roundtrip");
            }
        }
    }
}

/** The extreme PC, offset and phase values a generator can reach,
 *  under the lowest and highest data bases. */
TEST(PackedRecord, PreservesFullAddressAndMaxPc)
{
    static_assert(kMaxGeneratedPc <=
                  SyntheticTrace::kCodeBase + PackedRecord::kPcMask);
    const uint64_t bases[] = {0, kBase, ~PackedRecord::kAddrOffsetMask};
    for (const uint64_t base : bases) {
        TraceRecord rec;
        rec.isLoad = true;
        rec.pc = kMaxGeneratedPc;
        rec.addr = base + PackedRecord::kAddrOffsetMask;
        TraceRecord back = roundTrip(rec, base);
        EXPECT_EQ(back.pc, kMaxGeneratedPc);
        EXPECT_EQ(back.addr, base + PackedRecord::kAddrOffsetMask);

        rec.pc = SyntheticTrace::kCodeBase + PackedRecord::kPcMask;
        rec.addr = base;
        back = roundTrip(rec, base);
        EXPECT_EQ(back.pc, SyntheticTrace::kCodeBase + PackedRecord::kPcMask);
        EXPECT_EQ(back.addr, base);
    }
}

/** One past each edge of the domain throws instead of wrapping. */
TEST(PackedRecord, RejectsOverwidePc)
{
    TraceRecord rec;
    rec.isLoad = true;
    rec.addr = kBase;
    rec.pc = SyntheticTrace::kCodeBase + PackedRecord::kPcMask + 1;
    EXPECT_THROW(PackedRecord::pack(rec, kBase), std::runtime_error);
    rec.pc = SyntheticTrace::kCodeBase - 1;
    EXPECT_THROW(PackedRecord::pack(rec, kBase), std::runtime_error);

    rec.pc = SyntheticTrace::kCodeBase;
    rec.addr = kBase + PackedRecord::kAddrOffsetMask + 1;
    EXPECT_THROW(PackedRecord::pack(rec, kBase), std::runtime_error);
    rec.addr = kBase - 1;
    EXPECT_THROW(PackedRecord::pack(rec, kBase), std::runtime_error);

    rec.isLoad = false; // a non-memory record must carry address 0
    rec.addr = kBase;
    EXPECT_THROW(PackedRecord::pack(rec, kBase), std::runtime_error);
    rec.addr = 0;
    EXPECT_NO_THROW(PackedRecord::pack(rec, kBase));
}

/** Every word decodes to a record, and the bytes of a decoded record
 *  pack back to the same word whenever its address fields are in use. */
TEST(PackedRecord, EveryWordDecodes)
{
    uint64_t w = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 4096; ++i) {
        w = w * 6364136223846793005ull + 1442695040888963407ull;
        const PackedRecord p{w};
        const TraceRecord rec = p.unpack(kBase);
        EXPECT_EQ(rec.pc - SyntheticTrace::kCodeBase,
                  w & PackedRecord::kPcMask);
        if (rec.isMemory()) {
            EXPECT_EQ(PackedRecord::pack(rec, kBase).w, w);
        } else {
            EXPECT_EQ(rec.addr, 0u);
        }
    }
}

namespace {

/** Catalog params with the largest latencies the generator accepts:
 *  l2Latency UINT32_MAX and dramLatency UINT32_MAX - 63. */
SmtAppParams
widestLatencies()
{
    SmtAppParams p = smtAppCatalog().front();
    p.l2Latency = std::numeric_limits<uint32_t>::max();
    p.dramLatency = std::numeric_limits<uint32_t>::max() - 63;
    return p;
}

/** What the decoder must give for op class @p cls of @p p. */
Uop
expectedUop(const SmtAppParams &p, unsigned cls, uint16_t dist,
            uint32_t spread)
{
    Uop u;
    u.depDistance = dist;
    switch (cls) {
      case PackedUop::kFpAlu:
        u.kind = UopKind::FpAlu;
        u.execLatency = 4;
        break;
      case PackedUop::kLoadL1:
        u.kind = UopKind::Load;
        u.execLatency = 4;
        break;
      case PackedUop::kLoadL2:
        u.kind = UopKind::Load;
        u.execLatency = p.l2Latency;
        break;
      case PackedUop::kLoadDram:
        u.kind = UopKind::Load;
        u.execLatency = p.dramLatency + spread;
        break;
      case PackedUop::kStoreL2:
        u.kind = UopKind::Store;
        u.drainLatency = p.l2Latency;
        break;
      case PackedUop::kStoreDram:
        u.kind = UopKind::Store;
        u.drainLatency = p.dramLatency;
        break;
      case PackedUop::kBranch:
        u.kind = UopKind::Branch;
        break;
      case PackedUop::kBranchMispredicted:
        u.kind = UopKind::Branch;
        u.mispredicted = true;
        break;
      default: // IntAlu, and every unused class
        break;
    }
    return u;
}

void
expectSameUop(const Uop &a, const Uop &b, const std::string &what)
{
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << what;
    EXPECT_EQ(a.execLatency, b.execLatency) << what;
    EXPECT_EQ(a.drainLatency, b.drainLatency) << what;
    EXPECT_EQ(a.mispredicted, b.mispredicted) << what;
    EXPECT_EQ(a.depDistance, b.depDistance) << what;
}

} // namespace

/** Every op class decodes to its kind and latencies, with the largest
 *  dependency distance and spread and with none, under the widest
 *  latencies the generator accepts. */
TEST(PackedUop, RoundTripsEveryKindAndTheLargestFields)
{
    const SmtAppParams p = widestLatencies();
    const UopDecoder dec(p);
    for (unsigned cls = 0; cls < PackedUop::kNumClasses; ++cls) {
        for (const uint16_t dist : {uint16_t{0}, PackedUop::kMaxDepDistance}) {
            for (const uint32_t spread :
                 {0u, PackedUop::kDramSpread - 1}) {
                const PackedUop w{static_cast<uint16_t>(
                    cls | dist << PackedUop::kDepShift |
                    spread << PackedUop::kSpreadShift)};
                expectSameUop(dec.decode(w),
                              expectedUop(p, cls, dist, spread),
                              "class " + std::to_string(cls));
            }
        }
    }
    // The widest DRAM load reaches the top of the latency range.
    const PackedUop top{static_cast<uint16_t>(
        PackedUop::kLoadDram |
        (PackedUop::kDramSpread - 1) << PackedUop::kSpreadShift)};
    EXPECT_EQ(dec.decode(top).execLatency,
              std::numeric_limits<uint32_t>::max());
}

/** The word has no value outside its domain: every one of the 2^16
 *  words decodes, one past the last class (and every unused class)
 *  decodes to IntAlu, and each field's bits land in that field only. */
TEST(PackedUop, RejectsOnePastEachField)
{
    const SmtAppParams p = widestLatencies();
    const UopDecoder dec(p);
    for (uint32_t w = 0; w <= 0xFFFF; ++w) {
        const unsigned cls = w & 15;
        const uint16_t dist = (w >> PackedUop::kDepShift) & 63;
        const uint32_t spread = w >> PackedUop::kSpreadShift;
        const Uop want = expectedUop(
            p, cls, dist, cls == PackedUop::kLoadDram ? spread : 0);
        const Uop got = dec.decode(PackedUop{static_cast<uint16_t>(w)});
        if (static_cast<int>(got.kind) != static_cast<int>(want.kind) ||
            got.execLatency != want.execLatency ||
            got.drainLatency != want.drainLatency ||
            got.mispredicted != want.mispredicted ||
            got.depDistance != want.depDistance) {
            ADD_FAILURE() << "word " << w << " decodes wrong";
            break;
        }
    }
    const Uop past = dec.decode(PackedUop{PackedUop::kNumClasses});
    EXPECT_EQ(static_cast<int>(past.kind),
              static_cast<int>(UopKind::IntAlu));
    EXPECT_EQ(past.execLatency, 1u);
}

/** The 16-bit word stores no latency, so any l2Latency is accepted,
 *  by live and replayed sources alike, and reaches the decoded uops. */
TEST(UopGen, RejectsL2LatencyAbovePackedRange)
{
    SmtAppParams p = smtAppCatalog().front();
    for (const uint32_t l2 :
         {uint32_t{1} << 27, std::numeric_limits<uint32_t>::max()}) {
        p.l2Latency = l2;
        EXPECT_NO_THROW(ThreadSource(p, 1));
        EXPECT_NO_THROW(UopStream(p, 1));
        ThreadSource src(p, 1);
        bool seen = false;
        for (int i = 0; i < 20'000 && !seen; ++i) {
            const Uop u = src.next();
            seen = u.execLatency == l2 || u.drainLatency == l2;
        }
        EXPECT_TRUE(seen) << "no uop carries l2Latency " << l2;
    }
}

/** The one latency limit left: dramLatency + 63 cycles of spread must
 *  fit a uint32_t. */
TEST(UopGen, RejectsDramLatencyAbovePackedRange)
{
    SmtAppParams p = smtAppCatalog().front();
    p.dramLatency = std::numeric_limits<uint32_t>::max() - 63;
    EXPECT_NO_THROW(ThreadSource(p, 1));
    p.dramLatency = std::numeric_limits<uint32_t>::max() - 62;
    EXPECT_THROW(ThreadSource(p, 1), std::invalid_argument);
    EXPECT_THROW(UopStream(p, 1), std::invalid_argument);
    p.dramLatency = ~0u; // used to wrap the uint32 latency
    EXPECT_THROW(ThreadSource(p, 1), std::invalid_argument);
}

/** Replay equivalence for every field of every record of every
 *  workload of every suite, crossing at least one chunk boundary. */
TEST_F(ReplayTest, ReplayMatchesLiveGenerationForEveryWorkload)
{
    const uint64_t n = MaterializedTrace::kChunkWords + 1000;
    for (const WorkloadSpec &w : allWorkloads()) {
        SyntheticTrace live(w.app);
        ReplaySource replay(
            TraceArena::global().acquireTrace(w.app, n));
        for (uint64_t i = 0; i < n; ++i) {
            expectSameRecord(live.next(), replay.next(), i,
                             w.suite + "/" + w.app.name);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST_F(ReplayTest, ResetReplaysTheSameRecords)
{
    const AppProfile app = appByName("lbm06");
    const uint64_t n = 5000;
    ReplaySource replay(TraceArena::global().acquireTrace(app, n));
    for (uint64_t i = 0; i < 1234; ++i)
        replay.next(); // consume partway (this source generated it)
    replay.reset();
    EXPECT_EQ(replay.position(), 0u);
    SyntheticTrace live(app);
    for (uint64_t i = 0; i < n; ++i) {
        expectSameRecord(live.next(), replay.next(), i, "post-reset");
        if (HasFatalFailure())
            return;
    }
}

/** A consumer destroyed mid-chunk leaves the stream whole: the chunk
 *  its read generated stays published, and a later consumer replays
 *  it and generates the next one. recording() is true for the source
 *  whose read generated the chunk it is in, false for one replaying
 *  it. */
TEST_F(ReplayTest, ConsumerDestroyedMidChunkLeavesStreamWhole)
{
    const AppProfile app = appByName("mcf06");
    const uint64_t n = MaterializedTrace::kChunkWords + 3000;
    const auto trace = TraceArena::global().acquireTrace(app, n);
    {
        ReplaySource first(trace);
        for (uint64_t i = 0; i < 1500; ++i)
            first.next();
        EXPECT_TRUE(first.recording());
    }
    EXPECT_EQ(trace->available(), MaterializedTrace::kChunkWords);
    ReplaySource second(trace);
    SyntheticTrace live(app);
    for (uint64_t i = 0; i < n; ++i) {
        expectSameRecord(live.next(), second.next(), i, "second");
        if (HasFatalFailure())
            return;
        if (i == 0) {
            EXPECT_FALSE(second.recording()) << "chunk 0 is replayed";
        }
    }
    EXPECT_TRUE(second.recording()) << "chunk 1 is its own";
    EXPECT_EQ(trace->available(), n);
}

TEST_F(ReplayTest, ExhaustionThrowsInsteadOfWrapping)
{
    const AppProfile app = appByName("lbm06");
    ReplaySource replay(TraceArena::global().acquireTrace(app, 100));
    for (uint64_t i = 0; i < 100; ++i)
        replay.next();
    EXPECT_THROW(replay.next(), std::runtime_error);
}

/** Two consumers of one trace on one thread: the second reads a chunk
 *  ahead of the first, generating it, then the first catches up and
 *  passes it. Each matches live generation record for record. */
TEST_F(ReplayTest, SameThreadConsumersInterleave)
{
    const AppProfile app = appByName("lbm06");
    const uint64_t k = MaterializedTrace::kChunkWords;
    const uint64_t n = 3 * k + 500;
    const auto trace = TraceArena::global().acquireTrace(app, n);
    ReplaySource first(trace);
    ReplaySource second(trace);
    SyntheticTrace liveFirst(app);
    SyntheticTrace liveSecond(app);
    const auto read = [&](ReplaySource &src, SyntheticTrace &live,
                          uint64_t count, const char *who) {
        for (uint64_t i = 0; i < count; ++i) {
            const uint64_t at = src.position();
            expectSameRecord(live.next(), src.next(), at, who);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    };
    read(first, liveFirst, 10, "first");
    EXPECT_TRUE(first.recording());
    read(second, liveSecond, k + 10, "second"); // a chunk ahead
    EXPECT_TRUE(second.recording());
    EXPECT_EQ(trace->available(), 2 * k);
    read(first, liveFirst, k, "first"); // into the chunk second made
    EXPECT_FALSE(first.recording());
    read(first, liveFirst, n - k - 10, "first"); // and past it
    EXPECT_TRUE(first.recording());
    read(second, liveSecond, n - k - 10, "second");
    EXPECT_FALSE(second.recording());
    EXPECT_THROW(first.next(), std::runtime_error);
    EXPECT_THROW(second.next(), std::runtime_error);
}

TEST_F(ReplayTest, ConcurrentConsumersSeeIdenticalRecords)
{
    const AppProfile app = appByName("ligra_bfs");
    const uint64_t n = 2 * MaterializedTrace::kChunkWords;
    auto hashOf = [](TraceSource &src, uint64_t count) {
        uint64_t h = 1469598103934665603ull;
        for (uint64_t i = 0; i < count; ++i) {
            const TraceRecord rec = src.next();
            for (uint64_t v :
                 {rec.pc, rec.addr,
                  static_cast<uint64_t>(rec.isLoad) |
                      static_cast<uint64_t>(rec.isStore) << 1 |
                      static_cast<uint64_t>(rec.isBranch) << 2 |
                      static_cast<uint64_t>(rec.mispredicted) << 3 |
                      static_cast<uint64_t>(rec.dependsOnPrevLoad)
                          << 4}) {
                h ^= v;
                h *= 1099511628211ull;
            }
        }
        return h;
    };
    SyntheticTrace live(app);
    const uint64_t expected = hashOf(live, n);

    const auto trace = TraceArena::global().acquireTrace(app, n);
    std::vector<uint64_t> hashes(4, 0);
    {
        std::vector<std::thread> threads;
        for (size_t t = 0; t < hashes.size(); ++t)
            threads.emplace_back([&, t] {
                ReplaySource src(trace);
                hashes[t] = hashOf(src, n);
            });
        for (auto &th : threads)
            th.join();
    }
    for (size_t t = 0; t < hashes.size(); ++t)
        EXPECT_EQ(hashes[t], expected) << "consumer " << t;
}

TEST_F(ReplayTest, ArenaCountsHitsAndMisses)
{
    TraceArena &arena = TraceArena::global();
    const AppProfile app = appByName("lbm06");
    const auto a = arena.acquireTrace(app, 1000);
    const auto b = arena.acquireTrace(app, 1000);
    EXPECT_EQ(a.get(), b.get()); // one workload, one materialization
    const auto c = arena.acquireTrace(app, 2000);
    EXPECT_NE(a.get(), c.get()); // instruction count is part of the key

    AppProfile reseeded = app;
    reseeded.seed ^= 1;
    const auto d = arena.acquireTrace(reseeded, 1000);
    EXPECT_NE(a.get(), d.get()); // seed is part of the key

    const TraceArena::Stats s = arena.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.entries, 3u);
}

TEST_F(ReplayTest, ArenaEvictsLeastRecentlyUsedOverBudget)
{
    TraceArena &arena = TraceArena::global();
    const uint64_t n = 4096;
    // Budget fits exactly one fully-materialized 4096-record trace,
    // so the third acquire (with two resident) must evict the oldest.
    arena.setBudgetBytes(n * sizeof(PackedRecord));

    const char *apps[] = {"lbm06", "mcf06", "gcc06"};
    for (const char *name : apps) {
        ReplaySource src(
            arena.acquireTrace(appByName(name), n));
        for (uint64_t i = 0; i < n; ++i)
            src.next(); // materialize fully so bytes() is real
    }
    const TraceArena::Stats s = arena.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_LE(s.entries, 2u);

    // The survivor set is the most recently acquired; re-acquiring
    // the oldest is a miss again.
    arena.acquireTrace(appByName("lbm06"), n);
    EXPECT_EQ(arena.stats().misses, 4u);
}

/**
 * The budget holds before a byte is recorded: a lazy trace is charged
 * its full length from install, and every acquire, hits included,
 * evicts down to the budget. With room for two and a half traces,
 * installing five evicts three, and the charged bytes never exceed
 * the budget while nothing is resident yet.
 */
TEST_F(ReplayTest, ArenaChargesLazyTracesTheirFullLength)
{
    TraceArena &arena = TraceArena::global();
    const uint64_t n = 3 * MaterializedTrace::kChunkWords;
    const uint64_t traceBytes = n * sizeof(PackedRecord);
    arena.setBudgetBytes(2 * traceBytes + traceBytes / 2);
    AppProfile app = appByName("lbm06");
    std::vector<std::shared_ptr<MaterializedTrace>> held;
    for (uint64_t i = 0; i < 5; ++i) {
        app.seed = 100 + i;
        held.push_back(arena.acquireTrace(app, n));
        const TraceArena::Stats s = arena.stats();
        EXPECT_LE(s.chargedBytes, s.budgetBytes) << "after install " << i;
        EXPECT_EQ(s.bytes, 0u) << "nothing is generated yet";
    }
    TraceArena::Stats s = arena.stats();
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.chargedBytes, 2 * traceBytes);

    // A smaller budget takes effect at the next acquire, a hit too.
    arena.setBudgetBytes(traceBytes);
    EXPECT_EQ(arena.acquireTrace(app, n).get(), held.back().get());
    s = arena.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.evictions, 4u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_LE(s.chargedBytes, s.budgetBytes);

    // A uop stream grows after install and is charged what it holds:
    // its growth evicts the other stream at once.
    arena.clear();
    const uint64_t chunkBytes = UopStream::kChunkWords * sizeof(PackedUop);
    arena.setBudgetBytes(4 * chunkBytes);
    const SmtAppParams &gcc = smtAppCatalog().front();
    const auto a = acquireUopStream(gcc, 1);
    const auto b = acquireUopStream(gcc, 2);
    b->chunk(1);
    EXPECT_EQ(arena.stats().chargedBytes, 2 * chunkBytes);
    a->chunk(3);
    s = arena.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.chargedBytes, 4 * chunkBytes);
    EXPECT_EQ(acquireUopStream(gcc, 1).get(), a.get());
}

/**
 * A uop stream that grows after its last acquire keeps the arena
 * within its budget: the growth itself evicts the least recently
 * acquired other streams, and never the growing one, even when it
 * alone outgrows the budget. Until the growth evicted anything, the
 * arena stayed over budget until the next acquire.
 */
TEST_F(ReplayTest, UopStreamGrowthAfterLastAcquireEvictsToBudget)
{
    TraceArena &arena = TraceArena::global();
    const uint64_t chunkBytes = UopStream::kChunkWords * sizeof(PackedUop);
    arena.setBudgetBytes(6 * chunkBytes);
    const SmtAppParams &gcc = smtAppCatalog().front();
    const auto a = acquireUopStream(gcc, 1);
    const auto b = acquireUopStream(gcc, 2);
    a->chunk(2);
    b->chunk(1);
    TraceArena::Stats s = arena.stats();
    EXPECT_EQ(s.bytes, 5 * chunkBytes);
    EXPECT_EQ(s.evictions, 0u);

    b->chunk(3); // no acquire follows
    s = arena.stats();
    EXPECT_LE(s.bytes, s.budgetBytes);
    EXPECT_LE(s.chargedBytes, s.budgetBytes);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 4 * chunkBytes);

    b->chunk(7); // b alone outgrows the budget and stays resident
    s = arena.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 8 * chunkBytes);
    EXPECT_EQ(acquireUopStream(gcc, 2).get(), b.get());
    EXPECT_EQ(arena.stats().hits, 1u);

    // The evicted stream still serves its consumer, and growing it
    // evicts nothing: it is no longer the arena's.
    a->chunk(3);
    EXPECT_EQ(a->available(), 4 * UopStream::kChunkWords);
    s = arena.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
}

/**
 * meta.traceArena.genMs counts every generation of an installed
 * stream: a trace's chunks, generated inside the runs that read them,
 * and a uop stream's chunks generated before and after the stream was
 * evicted. Under a budget that holds one stream, B's growth evicts A;
 * a chunk read through the A its consumer still holds counts too.
 */
TEST_F(ReplayTest, ArenaGenMsCountsEvictedStreams)
{
    TraceArena &arena = TraceArena::global();
    {
        ReplaySource src(arena.acquireTrace(appByName("lbm06"), 5000));
        for (int i = 0; i < 5000; ++i)
            src.next();
    }
    EXPECT_GT(arena.stats().genMs, 0.0) << "trace generation counts";

    arena.clear();
    const uint64_t chunkBytes = UopStream::kChunkWords * sizeof(PackedUop);
    arena.setBudgetBytes(4 * chunkBytes);
    const SmtAppParams &gcc = smtAppCatalog().front();
    const auto a = acquireUopStream(gcc, 1);
    const auto b = acquireUopStream(gcc, 2);
    a->chunk(1);
    b->chunk(2);
    EXPECT_EQ(acquireUopStream(gcc, 2).get(), b.get());
    ASSERT_EQ(arena.stats().evictions, 1u);
    ASSERT_EQ(arena.stats().entries, 1u);
    a->chunk(2); // A is evicted, its consumer still reads it
    EXPECT_EQ(a->available(), 3 * UopStream::kChunkWords);
    EXPECT_GT(a->genMs(), 0.0);
    EXPECT_NEAR(arena.stats().genMs, a->genMs() + b->genMs(), 1e-9);
    arena.clear();
    EXPECT_EQ(arena.stats().genMs, 0.0);
}

TEST_F(ReplayTest, DisabledArenaFallsBackToLiveGeneration)
{
    TraceArena::global().setEnabled(false);
    const auto src = makeRunSource(appByName("lbm06"), 1000);
    EXPECT_NE(dynamic_cast<SyntheticTrace *>(src.get()), nullptr);
    EXPECT_EQ(TraceArena::global().stats().misses, 0u);

    TraceArena::global().setEnabled(true);
    const auto replay = makeRunSource(appByName("lbm06"), 1000);
    EXPECT_NE(dynamic_cast<ReplaySource *>(replay.get()), nullptr);
}

/**
 * End-to-end: a CoreModel run over the arena must produce exactly the
 * counters of the same run over a live generator, through each of
 * run()'s three loops (replay, live, and sampled, which an open trace
 * turns on) and when stepped one instruction at a time through
 * stepOne(), the way MultiCoreSystem drives a core. Two machines: mcf's
 * pointer chase, and a deep stride prefetcher on a small hierarchy,
 * where every counter of coreCounters() is nonzero.
 */
TEST_F(ReplayTest, CoreModelRunIsIdenticalOnAndOffArena)
{
    struct Machine
    {
        const char *app;
        int strideDegree;
        HierarchyConfig hier;
        bool everyCounterSet;
    };
    HierarchyConfig small;
    small.l1 = {"L1", 4 * 1024, 4, 4};
    small.l2 = {"L2", 16 * 1024, 4, 14};
    small.llc = {"LLC", 64 * 1024, 8, 34};
    const uint64_t instr = 30000; // > one chunk
    for (const Machine &m : {Machine{"mcf06", 1, HierarchyConfig{}, false},
                             Machine{"cactusADM06", 16, small, true}}) {
        SCOPED_TRACE(m.app);
        const AppProfile app = appByName(m.app);
        auto runOnce = [&](bool stepOne) {
            StridePrefetcher pf(64, m.strideDegree);
            const auto trace = makeRunSource(app, instr);
            CoreModel core(CoreConfig{}, m.hier, *trace, &pf);
            if (stepOne) {
                while (core.instructions() < instr)
                    core.stepOne();
            } else {
                core.run(instr);
            }
            return coreCounters(core);
        };
        TraceArena::global().setEnabled(true);
        const auto recorded = runOnce(false); // arena miss: records
        const auto replayed = runOnce(false); // arena hit: pure replay
        const auto stepped = runOnce(true);
        std::vector<uint64_t> sampled;
        {
            const std::string path = testing::TempDir() +
                "mab_replay_sampled_" + std::to_string(::getpid()) +
                ".json";
            tracing::ScopedTracer guard;
            ASSERT_TRUE(guard->openTrace(path));
            guard->setGranularity(1000);
            sampled = runOnce(false);
            ASSERT_EQ(guard->samples().count("IPC"), 1u);
            EXPECT_GT(guard->samples().at("IPC").samples().size(), 10u);
            guard->finalize();
            std::remove(path.c_str());
        }
        TraceArena::global().setEnabled(false);
        const auto live = runOnce(false); // pre-arena behavior

        EXPECT_EQ(recorded, live);
        EXPECT_EQ(replayed, live);
        EXPECT_EQ(stepped, live);
        EXPECT_EQ(sampled, live);
        for (size_t i = 0; m.everyCounterSet && i < live.size(); ++i)
            EXPECT_NE(live[i], 0u) << "counter " << i;
    }
}

/**
 * A consumer keeps its trace alive through its ReplaySource, so the
 * arena may evict the entry mid-run without disturbing the stream.
 * The run advances in 4k-instruction slices; between slices the
 * budget is 1 byte and other fully materialized traces churn through
 * the arena. The counters must equal one uninterrupted run.
 */
TEST_F(ReplayTest, ConsumerSurvivesMidStreamArenaEviction)
{
    TraceArena &arena = TraceArena::global();
    const uint64_t budget = arena.budgetBytes();
    const AppProfile app = appByName("lbm06");
    const uint64_t instr = 20'000;

    arena.clear();
    arena.setBudgetBytes(budget);
    std::vector<uint64_t> want;
    {
        StridePrefetcher pf(64, 1);
        ReplaySource src(arena.acquireTrace(app, instr));
        CoreModel core(CoreConfig{}, HierarchyConfig{}, src, &pf);
        core.run(instr);
        want = coreCounters(core);
    }

    arena.clear();
    StridePrefetcher pf(64, 1);
    ReplaySource src(arena.acquireTrace(app, instr));
    CoreModel core(CoreConfig{}, HierarchyConfig{}, src, &pf);
    arena.setBudgetBytes(1);
    uint64_t churnSeed = 1;
    for (uint64_t done = 0; done < instr;) {
        done = std::min<uint64_t>(done + 4'000, instr);
        core.run(done);
        AppProfile other = appByName("mcf06");
        other.seed += churnSeed++;
        ReplaySource churn(arena.acquireTrace(other, 1'000));
        for (int i = 0; i < 1'000; ++i)
            churn.next();
        // Only the churn trace is resident: the arena has dropped
        // the stream the core is still reading.
        EXPECT_EQ(arena.stats().entries, 1u);
    }
    EXPECT_EQ(coreCounters(core), want) << "diverged across arena churn";
}

/** SMT leg: a ThreadSource replaying a shared UopStream must emit
 *  exactly the uops of a live ThreadSource, across chunk borders —
 *  for a catalog app, and for params that drive every field to its
 *  edge (the largest latencies accepted, dependency distance 63, every
 *  kind, both flag values). */
TEST_F(ReplayTest, UopStreamReplayMatchesLiveThreadSource)
{
    SmtAppParams edge = smtAppCatalog().front();
    edge.name = "edge";
    edge.loadFrac = 0.3;
    edge.storeFrac = 0.2;
    edge.branchFrac = 0.2;
    edge.fpFrac = 0.1;
    edge.mispredictRate = 0.5;
    edge.l1MissRate = 1.0;
    edge.dramRate = 0.5;
    edge.l2Latency = std::numeric_limits<uint32_t>::max();
    edge.dramLatency = std::numeric_limits<uint32_t>::max() - 63;
    edge.depProb = 1.0;
    edge.depMeanDistance = 1000; // mostly capped: distance 63
    edge.storeDrainDramRate = 0.5;

    for (const SmtAppParams &params : {smtAppCatalog().front(), edge}) {
        const uint64_t seed = 12345;
        const uint64_t n = UopStream::kChunkWords + 2000;

        ThreadSource live(params, seed);
        ThreadSource replay(params, seed);
        replay.attachStream(acquireUopStream(params, seed));
        ASSERT_TRUE(replay.replaying());
        ASSERT_FALSE(live.replaying());

        Uop maxSeen;
        maxSeen.execLatency = 0;
        std::vector<bool> kinds(5, false);
        for (uint64_t i = 0; i < n; ++i) {
            const Uop a = live.next();
            const Uop b = replay.next();
            ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
                << params.name << " uop " << i;
            ASSERT_EQ(a.execLatency, b.execLatency)
                << params.name << " uop " << i;
            ASSERT_EQ(a.drainLatency, b.drainLatency)
                << params.name << " uop " << i;
            ASSERT_EQ(a.mispredicted, b.mispredicted)
                << params.name << " uop " << i;
            ASSERT_EQ(a.depDistance, b.depDistance)
                << params.name << " uop " << i;
            maxSeen.execLatency = std::max(maxSeen.execLatency,
                                           a.execLatency);
            maxSeen.drainLatency = std::max(maxSeen.drainLatency,
                                            a.drainLatency);
            maxSeen.depDistance = std::max(maxSeen.depDistance,
                                           a.depDistance);
            maxSeen.mispredicted |= a.mispredicted;
            kinds[static_cast<size_t>(a.kind)] = true;
        }
        if (params.name == "edge") {
            // The stream really reached every edge it was built for.
            EXPECT_EQ(maxSeen.execLatency,
                      std::numeric_limits<uint32_t>::max());
            EXPECT_EQ(maxSeen.drainLatency,
                      std::numeric_limits<uint32_t>::max());
            EXPECT_EQ(maxSeen.depDistance, PackedUop::kMaxDepDistance);
            EXPECT_TRUE(maxSeen.mispredicted);
            EXPECT_EQ(std::count(kinds.begin(), kinds.end(), true), 5);
        }

        // Same (params, seed) acquires the same shared stream; and
        // reset rewinds the replay to uop 0.
        EXPECT_EQ(acquireUopStream(params, seed).get(),
                  acquireUopStream(params, seed).get());
        replay.reset();
        ThreadSource fresh(params, seed);
        const Uop a = fresh.next();
        const Uop b = replay.next();
        EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
        EXPECT_EQ(a.execLatency, b.execLatency);
    }
}

/** ThreadSource::nextWord()'s inline chunk window yields the live
 *  UopGen's words, one for one: across three chunk boundaries, after a
 *  reset() mid-chunk, and after an attachStream() mid-run (on a live
 *  source and on a replaying one), each of which restarts at word 0.
 *  next() decodes the same word. */
TEST(ThreadSourceWords, ReplayWindowMatchesLiveGenerator)
{
    const SmtAppParams &params = smtAppByName("mcf");
    const uint64_t seed = 77;
    const auto stream = std::make_shared<UopStream>(params, seed);
    const auto expectFromStart = [&](ThreadSource &src, uint64_t n,
                                     const char *what) {
        UopGen gen(params, seed);
        for (uint64_t i = 0; i < n; ++i) {
            const uint16_t want = gen.nextWord().w;
            ASSERT_EQ(src.nextWord().w, want) << what << ", word " << i;
        }
    };
    constexpr uint64_t kChunk = UopStream::kChunkWords;

    ThreadSource replay(params, seed);
    replay.attachStream(stream);
    expectFromStart(replay, 3 * kChunk + 5, "fresh replay");
    replay.reset();
    expectFromStart(replay, kChunk + 3, "replay reset mid-chunk");
    replay.attachStream(stream);
    expectFromStart(replay, 2 * kChunk + 1, "replay re-attached mid-chunk");

    ThreadSource live(params, seed);
    expectFromStart(live, kChunk / 2, "live");
    live.reset();
    expectFromStart(live, 1000, "live reset mid-run");
    live.attachStream(stream);
    ASSERT_TRUE(live.replaying());
    expectFromStart(live, 3 * kChunk + 1, "live, then attached mid-run");

    ThreadSource decoded(params, seed);
    decoded.attachStream(stream);
    UopGen gen(params, seed);
    const UopDecoder dec(params);
    for (uint64_t i = 0; i < kChunk + 1; ++i) {
        const Uop a = decoded.next();
        const Uop b = dec.decode(gen.nextWord());
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << i;
        ASSERT_EQ(a.execLatency, b.execLatency) << i;
        ASSERT_EQ(a.drainLatency, b.drainLatency) << i;
        ASSERT_EQ(a.mispredicted, b.mispredicted) << i;
        ASSERT_EQ(a.depDistance, b.depDistance) << i;
    }
}

/** The arena charges 8 bytes per resident record and 2 per uop. */
TEST_F(ReplayTest, ArenaItemsCountEightBytesPerRecord)
{
    const AppProfile app = appByName("lbm06");
    for (const uint64_t n :
         {uint64_t{1000}, MaterializedTrace::kChunkWords,
          2 * MaterializedTrace::kChunkWords + 17}) {
        const auto trace = MaterializedTrace::generate(app, n);
        EXPECT_EQ(trace->bytes(), 8 * n) << n << " records";
    }

    UopStream stream(smtAppCatalog().front(), 7);
    EXPECT_EQ(stream.bytes(), 0u);
    stream.chunk(1);
    EXPECT_EQ(stream.bytes(), 2 * 2 * UopStream::kChunkWords);
}

/**
 * A profile at every packed limit at once — the most phases, the most
 * streams and the largest footprint SyntheticTrace accepts — records
 * and replays exactly, and its records reach the far edge of the PC
 * window.
 */
TEST_F(ReplayTest, ProfileAtEveryPackedLimitReplaysExactly)
{
    AppProfile app;
    app.name = "packed-limits";
    app.seed = 99;
    app.loopPhases = false;
    PatternPhase ph;
    ph.kind = PatternKind::Streaming;
    ph.memFraction = 0.9;
    ph.branchFraction = 0.05;
    ph.accessesPerLine = 1;
    ph.footprintBytes = SyntheticTrace::kMaxFootprintBytes;
    ph.numStreams = SyntheticTrace::kMaxStreams;
    ph.lengthInstrs = 1;
    app.phases.assign(SyntheticTrace::kMaxPhases, ph);
    app.phases.back().lengthInstrs = 8000;

    const uint64_t n = SyntheticTrace::kMaxPhases + 7000;
    SyntheticTrace live(app);
    ReplaySource replay(TraceArena::global().acquireTrace(app, n));
    uint64_t maxPc = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const TraceRecord a = live.next();
        expectSameRecord(a, replay.next(), i, "limits");
        if (HasFatalFailure())
            return;
        maxPc = std::max(maxPc, a.pc);
    }
    EXPECT_EQ(maxPc, kMaxGeneratedPc);
}
