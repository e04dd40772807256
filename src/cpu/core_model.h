#ifndef MAB_CPU_CORE_MODEL_H
#define MAB_CPU_CORE_MODEL_H

#include <cstdint>
#include <vector>

#include "memory/hierarchy.h"
#include "prefetch/prefetcher.h"
#include "trace/generator.h"
#include "trace/replay.h"

namespace mab {

class BanditPrefetchController;

/** Core parameters (Table 4 defaults; Skylake-like). */
struct CoreConfig
{
    /** Instructions entering the window per cycle. */
    int fetchWidth = 6;

    /** Reorder-buffer entries bounding in-flight instructions. */
    int robSize = 256;

    /** In-order commit bandwidth. */
    int commitWidth = 4;

    /** Frontend refill penalty of a mispredicted branch, cycles. */
    uint64_t branchMissPenalty = 14;

    /** Cycles between a prefetch decision and its issue to the
     *  memory system. */
    uint64_t prefetchIssueLatency = 10;
};

/**
 * Trace-driven out-of-order core timing model (the ChampSim stand-in;
 * see DESIGN.md).
 *
 * The model is a ROB-window limit study: instruction i cannot enter
 * the window before instruction i - robSize has committed, independent
 * loads overlap their memory latency within the window (bounded by the
 * hierarchy's MSHRs), dependent loads (pointer chases) serialize, and
 * mispredicted branches stall the frontend. Commit is in-order at
 * commitWidth per cycle. This reproduces the first-order phenomena
 * prefetching interacts with: memory-level parallelism, bandwidth
 * contention, and pollution.
 *
 * The L2 prefetcher is trained on every demand access that reaches
 * the L2 (i.e. on L1 misses) and its requests are issued to the
 * hierarchy, which fills L2 + LLC. An optional L1 prefetcher observes
 * all demand accesses and fills the L1.
 */
class CoreModel
{
  public:
    CoreModel(const CoreConfig &config, const HierarchyConfig &hconfig,
              TraceSource &trace, Prefetcher *l2Prefetcher,
              Prefetcher *l1Prefetcher = nullptr,
              const DramConfig &dram = {});

    /** Hierarchy with shared LLC/DRAM (multi-core experiments). */
    CoreModel(const CoreConfig &config, const HierarchyConfig &hconfig,
              Cache *sharedLlc, Dram *sharedDram, TraceSource &trace,
              Prefetcher *l2Prefetcher,
              Prefetcher *l1Prefetcher = nullptr);

    /** Execute one instruction of the trace: MultiCoreSystem's step.
     *  run() steps its own loops on the same body. */
    void stepOne();

    /** Run until @p instructions have been committed in total. */
    void run(uint64_t instructions);

    uint64_t instructions() const { return clocks_.instructions; }

    /** Core parameters the model was built with (introspection). */
    const CoreConfig &config() const { return config_; }

    /** Committed cycles so far (the in-order commit clock). */
    uint64_t cycles() const
    {
        return static_cast<uint64_t>(clocks_.commit);
    }

    double
    ipc() const
    {
        const uint64_t c = cycles();
        return c == 0 ? 0.0
                      : static_cast<double>(clocks_.instructions) / c;
    }

    CacheHierarchy &hierarchy() { return hierarchy_; }
    const CacheHierarchy &hierarchy() const { return hierarchy_; }

    /**
     * Mean ROB occupancy via Little's law: the summed commit-to-
     * dispatch residency of every instruction divided by the elapsed
     * cycles.
     */
    double robOccupancy() const
    {
        return clocks_.commit <= 0.0 ? 0.0
                                     : clocks_.residency / clocks_.commit;
    }

    /**
     * Export core metrics under @p prefix ("core"): instructions,
     * cycles, IPC, ROB occupancy, the MSHR-parallelism MLP proxy, and
     * the whole memory hierarchy under @p prefix.mem.
     */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix) const;

  private:
    /**
     * The per-instruction state of the timing model. The run loop
     * copies it into a local, steps on the local and stores it back.
     * The out-of-line memory walk and prefetcher calls cannot reach a
     * local, so the compiler keeps its fields in registers instead of
     * storing and reloading them through this around every call.
     */
    struct Clocks
    {
        double fetch = 0.0;
        /** The in-order commit clock (cycles()). */
        double commit = 0.0;
        /** Summed commit-to-dispatch residency (robOccupancy()). */
        double residency = 0.0;
        /** Frontend stalled by a misprediction until this cycle; a
         *  whole number, held as the double dispatch compares it as. */
        double stall = 0.0;
        uint64_t prevLoadDone = 0;
        uint64_t instructions = 0;
        /** instructions % robSize, kept as a wrapping cursor. */
        size_t robSlot = 0;
    };

    /** The next record of a source that is not replayed packed. */
    TraceRecord nextLive();

    /**
     * The step body, templated on a record *view* so the replay loop
     * feeds PackedRecords straight through (flag reads compile to bit
     * tests on one register) while every other source goes through
     * the unpacked TraceRecord facade. Views live in core_model.cc.
     * Every caller passes a local copy of clocks_ as @p c.
     */
    template <class Rec> void stepRec(const Rec &rec, Clocks &c);

    void issuePrefetches(const PrefetchAccess &access, bool at_l1);

    /** Resolve the devirtualization caches (ctor helper). */
    void cacheConcreteTypes();

    /** Last interval-sampler snapshot (sim/tracing.h); deltas between
     *  snapshots become the IPC / hit-rate / accuracy / DRAM-util
     *  counter tracks. */
    struct SampleSnapshot
    {
        uint64_t instructions = 0;
        uint64_t cycles = 0;
        uint64_t l2Accesses = 0;
        uint64_t l2Hits = 0;
        uint64_t pfIssued = 0;
        uint64_t pfUseful = 0;
        double dramBusyCycles = 0.0;
    };

    void sampleInterval();

    CoreConfig config_;
    CacheHierarchy hierarchy_;
    TraceSource &trace_;
    Prefetcher *l2Prefetcher_;
    Prefetcher *l1Prefetcher_;

    /**
     * Devirtualization caches, resolved once at construction: the two
     * virtual calls on the per-instruction path are trace_.next() and
     * l2Prefetcher_->onAccess(). When the dynamic types are the common
     * ones (ReplaySource / SyntheticTrace; BanditPrefetchController,
     * the paper's subject), the hot loop calls them through these
     * pointers — the classes are final, so the calls are direct and
     * inlinable. The replay loop reads ReplaySource::nextPacked(), an
     * in-header compare and 8-byte load that it inlines (only chunk
     * crossings call out), so with the trace arena on the
     * per-instruction trace cost is that load and bit tests on the
     * word. Other dynamic types (a decorating source such as
     * perfbench's TimedTrace, the comparison prefetchers) fall back
     * to the virtual call.
     */
    ReplaySource *replayTrace_ = nullptr;
    SyntheticTrace *synthTrace_ = nullptr;
    BanditPrefetchController *banditL2_ = nullptr;

    Clocks clocks_;

    /**
     * Per-record loop invariants, hoisted out of the step path: the
     * reciprocal issue/commit increments (the divides by fetchWidth /
     * commitWidth are loop-invariant; precomputing the quotient
     * reuses the identical IEEE result every step).
     */
    double fetchStep_ = 0.0;
    double commitStep_ = 0.0;

    /** Commit cycles of the last robSize instructions (ring). */
    std::vector<double> robCommit_;

    std::vector<uint64_t> pfScratch_;

    SampleSnapshot lastSample_;
};

} // namespace mab

#endif // MAB_CPU_CORE_MODEL_H
