#include <cstring>

#include "cpu/core_model.h"
#include "fuzz/domains.h"
#include "trace/record.h"
#include "trace/replay.h"

namespace mab::fuzz {

namespace {

std::string
diffRecordStreams(SyntheticTrace &live, ReplaySource &replay,
                  uint64_t count, const std::string &phase)
{
    for (uint64_t i = 0; i < count; ++i) {
        const TraceRecord a = live.next();
        const TraceRecord b = replay.next();
        const auto field = [&](const char *name) {
            return phase + " record " + std::to_string(i) + ": " + name +
                " differs between live generation and replay";
        };
        if (a.pc != b.pc)
            return field("pc");
        if (a.addr != b.addr)
            return field("addr");
        if (a.isLoad != b.isLoad)
            return field("isLoad");
        if (a.isStore != b.isStore)
            return field("isStore");
        if (a.isBranch != b.isBranch)
            return field("isBranch");
        if (a.mispredicted != b.mispredicted)
            return field("mispredicted");
        if (a.dependsOnPrevLoad != b.dependsOnPrevLoad)
            return field("dependsOnPrevLoad");
    }
    return "";
}

/** Names of the simCounters() entries (divergence reports). */
const char *const kCoreCounterNames[] = {
    "instructions",   "cycles",           "ipc",
    "l1Hits",         "l2Hits",           "llcHits",
    "dramHits",       "l2DemandAccesses", "llcDemandMisses",
    "prefetchIssued", "prefetchTimely",   "prefetchLate",
    "prefetchWrong"};

/** Exported-counter fingerprint of one run of @p c over @p trace
 *  (every counter the bench helpers report). */
std::vector<uint64_t>
simCounters(const SimCase &c, TraceSource &trace)
{
    std::unique_ptr<Prefetcher> pf = makeCasePrefetcher(c);
    CoreModel core(CoreConfig{}, c.hier, trace, pf.get(), nullptr,
                   c.dram);
    core.run(c.instructions);
    const CacheHierarchy &h = core.hierarchy();
    const PrefetchStats &ps = h.prefetchStats();
    uint64_t ipc_bits = 0;
    const double ipc = core.ipc();
    std::memcpy(&ipc_bits, &ipc, sizeof(ipc_bits));
    return {core.instructions(),
            core.cycles(),
            ipc_bits,
            h.hitsAt(HitLevel::L1),
            h.hitsAt(HitLevel::L2),
            h.hitsAt(HitLevel::Llc),
            h.hitsAt(HitLevel::Dram),
            h.l2DemandAccesses(),
            h.llcDemandMisses(),
            ps.issued,
            ps.timely,
            ps.late,
            ps.wrong};
}

} // namespace

std::string
diffLiveAndReplay(const SimCase &c, const std::string &label)
{
    // Record-level: every field of every record, then again from the
    // top after reset() on both sides (a reseeded generator must
    // equal a rewound replay).
    const uint64_t n = c.instructions;
    const auto mat = std::make_shared<MaterializedTrace>(c.app, n);
    {
        SyntheticTrace live(c.app);
        ReplaySource replay(mat);
        std::string err =
            diffRecordStreams(live, replay, n, label + "fresh");
        if (!err.empty())
            return err;
        live.reset();
        replay.reset();
        err = diffRecordStreams(live, replay, n, label + "post-reset");
        if (!err.empty())
            return err;
    }

    // End-to-end: the same case simulated over the live generator and
    // over the replayed materialization (arena-off vs arena-on
    // delivery) must export identical counters, bit for bit.
    SyntheticTrace live(c.app);
    const std::vector<uint64_t> a = simCounters(c, live);
    ReplaySource replay(mat);
    const std::vector<uint64_t> b = simCounters(c, replay);
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i])
            return label + "counter " + kCoreCounterNames[i] +
                " differs between live and replay delivery";
    }
    return "";
}

std::string
checkReplay(uint64_t seed, bool)
{
    const SimCase c = genSimCase(seed);
    const std::string err = diffLiveAndReplay(c, "");
    return err.empty() ? err : err + " (" + formatSimCase(c) + ")";
}

} // namespace mab::fuzz
