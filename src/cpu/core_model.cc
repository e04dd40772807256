#include "cpu/core_model.h"

#include <algorithm>

#include "cpu/bandit_prefetch.h"
#include "sim/tracing.h"

namespace mab {

CoreModel::CoreModel(const CoreConfig &config,
                     const HierarchyConfig &hconfig, TraceSource &trace,
                     Prefetcher *l2Prefetcher, Prefetcher *l1Prefetcher,
                     const DramConfig &dram)
    : config_(config), hierarchy_(hconfig, dram), trace_(trace),
      l2Prefetcher_(l2Prefetcher), l1Prefetcher_(l1Prefetcher),
      fetchStep_(1.0 / config.fetchWidth),
      commitStep_(1.0 / config.commitWidth),
      robCommit_(config.robSize, 0.0)
{
    cacheConcreteTypes();
}

CoreModel::CoreModel(const CoreConfig &config,
                     const HierarchyConfig &hconfig, Cache *sharedLlc,
                     Dram *sharedDram, TraceSource &trace,
                     Prefetcher *l2Prefetcher, Prefetcher *l1Prefetcher)
    : config_(config), hierarchy_(hconfig, sharedLlc, sharedDram),
      trace_(trace), l2Prefetcher_(l2Prefetcher),
      l1Prefetcher_(l1Prefetcher),
      fetchStep_(1.0 / config.fetchWidth),
      commitStep_(1.0 / config.commitWidth),
      robCommit_(config.robSize, 0.0)
{
    cacheConcreteTypes();
}

void
CoreModel::cacheConcreteTypes()
{
    // One dynamic_cast per simulator instead of one indirect call per
    // instruction (see the member comment in core_model.h).
    replayTrace_ = dynamic_cast<ReplaySource *>(&trace_);
    synthTrace_ = dynamic_cast<SyntheticTrace *>(&trace_);
    banditL2_ = dynamic_cast<BanditPrefetchController *>(l2Prefetcher_);
}

void
CoreModel::issuePrefetches(const PrefetchAccess &access, bool at_l1)
{
    Prefetcher *pf = at_l1 ? l1Prefetcher_ : l2Prefetcher_;
    pfScratch_.clear();
    if (!at_l1 && banditL2_)
        banditL2_->onAccess(access, pfScratch_); // direct (final)
    else
        pf->onAccess(access, pfScratch_);
    const uint64_t issue_cycle = access.cycle +
        config_.prefetchIssueLatency;
    for (uint64_t addr : pfScratch_) {
        if (at_l1)
            hierarchy_.issueL1Prefetch(addr, issue_cycle);
        else
            hierarchy_.issuePrefetch(addr, issue_cycle);
    }
}

namespace {

/** Accessor facade over an unpacked TraceRecord (live sources). */
struct LiveRec
{
    TraceRecord r;
    uint64_t pc() const { return r.pc; }
    uint64_t addr() const { return r.addr; }
    bool isMemory() const { return r.isMemory(); }
    bool isLoad() const { return r.isLoad; }
    bool isStore() const { return r.isStore; }
    bool dependsOnPrevLoad() const { return r.dependsOnPrevLoad; }
    bool
    mispredictedBranch() const
    {
        return r.isBranch && r.mispredicted;
    }
};

/** Accessor facade over a PackedRecord (replay): one word plus the
 *  trace's data base, every flag read a bit test — the record is never
 *  unpacked. */
struct PackedRec
{
    PackedRecord p;
    uint64_t dataBase;
    uint64_t pc() const { return p.pc(); }
    uint64_t addr() const { return p.addr(dataBase); }
    bool isMemory() const { return p.isMemory(); }
    bool isLoad() const { return p.isLoad(); }
    bool isStore() const { return p.isStore(); }
    bool dependsOnPrevLoad() const { return p.dependsOnPrevLoad(); }
    bool mispredictedBranch() const { return p.mispredictedBranch(); }
};

/**
 * std::max by value. std::max returns a reference, and a reference
 * that may point into the run loop's clocks keeps them in memory
 * instead of registers.
 */
template <class T>
T
maxOf(T a, T b)
{
    return std::max(a, b);
}

} // namespace

TraceRecord
CoreModel::nextLive()
{
    return replayTrace_ ? replayTrace_->next()
        : synthTrace_   ? synthTrace_->next()
                        : trace_.next();
}

template <class Rec>
void
CoreModel::stepRec(const Rec &rec, Clocks &c)
{
    const size_t slot = c.robSlot;
    if (++c.robSlot == static_cast<size_t>(config_.robSize))
        c.robSlot = 0;

    // Dispatch: the frontend must have the instruction (fetch clock,
    // possibly stalled by a misprediction) and the ROB entry of
    // instruction i - robSize must have committed. The ROB and stall
    // bounds are combined first, off the fetch clock's dependency
    // chain; max over finite non-negative doubles is exact, so the
    // order changes no bit.
    const double dispatch =
        maxOf(c.fetch, maxOf(robCommit_[slot], c.stall));
    c.fetch = dispatch + fetchStep_;

    double complete = dispatch + 1.0;
    if (rec.isMemory()) {
        uint64_t issue_cycle = static_cast<uint64_t>(dispatch);
        if (rec.dependsOnPrevLoad())
            issue_cycle = maxOf(issue_cycle, c.prevLoadDone);

        const auto res =
            hierarchy_.demandAccess(rec.addr(), rec.isStore(), issue_cycle);
        if (rec.isLoad()) {
            complete = std::max(complete,
                                static_cast<double>(res.readyCycle));
            c.prevLoadDone = res.readyCycle;
        }
        // Stores commit without waiting for memory (store buffer).

        if (l2Prefetcher_ && res.level != HitLevel::L1) {
            PrefetchAccess pa;
            pa.pc = rec.pc();
            pa.addr = rec.addr();
            pa.hit = res.level == HitLevel::L2;
            pa.cycle = issue_cycle;
            pa.instrCount = c.instructions;
            issuePrefetches(pa, false);
        }
        if (l1Prefetcher_) {
            PrefetchAccess pa;
            pa.pc = rec.pc();
            pa.addr = rec.addr();
            pa.hit = res.level == HitLevel::L1;
            pa.cycle = issue_cycle;
            pa.instrCount = c.instructions;
            issuePrefetches(pa, true);
        }
    }

    if (rec.mispredictedBranch()) {
        c.stall = static_cast<double>(static_cast<uint64_t>(complete) +
                                      config_.branchMissPenalty);
    }

    // In-order commit at commitWidth per cycle.
    c.commit = maxOf(c.commit + commitStep_, complete);
    robCommit_[slot] = c.commit;
    c.residency += c.commit - dispatch;
    ++c.instructions;
}

void
CoreModel::stepOne()
{
    Clocks c = clocks_;
    stepRec(LiveRec{nextLive()}, c);
    clocks_ = c;
}

void
CoreModel::run(uint64_t instructions)
{
    const uint64_t granularity =
        tracing::Tracer::global().sampleGranularity();
    if (granularity == 0) {
        // The baseline loop: no sampling. With a ReplaySource the loop
        // consumes packed records directly — no unpacked TraceRecord
        // ever exists on the replay path. Each loop steps its own
        // copy of the clocks: the replay loop inlines its step, so no
        // call ever sees its copy's address and the compiler keeps the
        // fields in registers.
        if (replayTrace_) {
            Clocks c = clocks_;
            const uint64_t base = replayTrace_->dataBase();
            while (c.instructions < instructions)
                stepRec(PackedRec{replayTrace_->nextPacked(), base}, c);
            clocks_ = c;
            return;
        }
        Clocks c = clocks_;
        while (c.instructions < instructions)
            stepRec(LiveRec{nextLive()}, c);
        clocks_ = c;
        return;
    }

    Clocks c = clocks_;
    const auto cycles = [&c] { return static_cast<uint64_t>(c.commit); };
    uint64_t next_sample = (cycles() / granularity + 1) * granularity;
    while (c.instructions < instructions) {
        stepRec(LiveRec{nextLive()}, c);
        if (cycles() >= next_sample) {
            clocks_ = c;
            sampleInterval();
            next_sample = (cycles() / granularity + 1) * granularity;
        }
    }
    clocks_ = c;
    sampleInterval();
}

void
CoreModel::sampleInterval()
{
    tracing::Tracer &tracer = tracing::Tracer::global();
    const uint64_t now = cycles();
    SampleSnapshot cur;
    cur.instructions = clocks_.instructions;
    cur.cycles = now;
    cur.l2Accesses = hierarchy_.l2DemandAccesses();
    cur.l2Hits = hierarchy_.hitsAt(HitLevel::L2);
    cur.pfIssued = hierarchy_.prefetchStats().issued;
    cur.pfUseful = hierarchy_.prefetchStats().timely +
        hierarchy_.prefetchStats().late;
    if (hierarchy_.ownsDram())
        cur.dramBusyCycles = hierarchy_.dram().busBusyCycles();

    const SampleSnapshot &last = lastSample_;
    const uint64_t d_cycles =
        cur.cycles > last.cycles ? cur.cycles - last.cycles : 0;
    if (d_cycles == 0)
        return;

    tracer.counterSample(
        "IPC", now,
        static_cast<double>(cur.instructions - last.instructions) /
            static_cast<double>(d_cycles));
    const uint64_t d_l2 = cur.l2Accesses - last.l2Accesses;
    if (d_l2 > 0) {
        tracer.counterSample(
            "l2HitRate", now,
            static_cast<double>(cur.l2Hits - last.l2Hits) /
                static_cast<double>(d_l2));
    }
    const uint64_t d_issued = cur.pfIssued - last.pfIssued;
    if (d_issued > 0) {
        tracer.counterSample(
            "pfAccuracy", now,
            static_cast<double>(cur.pfUseful - last.pfUseful) /
                static_cast<double>(d_issued));
    }
    if (hierarchy_.ownsDram()) {
        tracer.counterSample(
            "dramBusUtil", now,
            (cur.dramBusyCycles - last.dramBusyCycles) /
                static_cast<double>(d_cycles));
    }
    lastSample_ = cur;
}

void
CoreModel::exportStats(StatsRegistry &reg,
                       const std::string &prefix) const
{
    reg.setCounter(prefix + ".instructions", clocks_.instructions);
    reg.setCounter(prefix + ".cycles", cycles());
    reg.setScalar(prefix + ".ipc", ipc());
    reg.setScalar(prefix + ".robOccupancy", robOccupancy());
    // MLP proxy: mean outstanding DRAM-bound demand misses observed
    // at miss issue.
    reg.setScalar(prefix + ".mlp",
                  hierarchy_.mshrOccupancy().mean());
    hierarchy_.exportStats(reg, prefix + ".mem", cycles());
}

} // namespace mab
