#ifndef MAB_SMT_PIPELINE_H
#define MAB_SMT_PIPELINE_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats_registry.h"
#include "smt/fetch_policy.h"
#include "smt/thread_source.h"

namespace mab {

/** SMT pipeline parameters (Table 5 defaults; Skylake-like). */
struct SmtConfig
{
    static constexpr int kThreads = 2;

    int fetchWidth = 6;
    int decodeWidth = 5;
    int commitWidth = 8;

    int iqSize = 97;
    int robSize = 224;
    int lqSize = 72;
    int sqSize = 56;
    int irfSize = 180;
    int frfSize = 164;

    /** Decoded-uop buffer between fetch and rename, per thread. */
    int fetchQueueSize = 24;

    uint64_t mispredictPenalty = 12;

    /**
     * Throw std::invalid_argument naming the first bad field: every
     * width and structure size must be >= 1, and iqSize / sqSize must
     * fit the pipeline's per-slot release counters.
     */
    void validate() const;
};

/** Rename-stage activity accounting (Figure 15). */
struct RenameStats
{
    uint64_t stallRob = 0;
    uint64_t stallIq = 0;
    uint64_t stallLq = 0;
    uint64_t stallSq = 0;
    uint64_t stallRf = 0;

    /** Cycles rename dispatched nothing because a structure was full. */
    uint64_t stalled = 0;
    /** Cycles rename had no incoming uops (e.g. fetch gating). */
    uint64_t idle = 0;
    /** Cycles rename dispatched at least one uop. */
    uint64_t running = 0;

    uint64_t cycles = 0;
};

/**
 * Cycle-level model of a 2-thread SMT out-of-order pipeline with
 * dynamically shared structures (the gem5/SecSMT stand-in; DESIGN.md).
 *
 * Per cycle the model releases the IQ and SQ entries due that cycle,
 * commits (in order, per thread, shared width), renames/dispatches
 * from the per-thread fetch queues (shared width; the stage stalls
 * when the ROB, IQ, LQ, SQ or a register file is exhausted — the
 * Figure 15 taxonomy), and fetches from the single thread chosen by
 * the active fetch Priority & Gating policy. Execution is modeled by
 * computing each uop's completion time at dispatch from its register
 * dependency and sampled latency.
 *
 * Layout (EXPERIMENTS.md "SMT pipeline kernel"): a uop travels from
 * fetch to commit as its 16-bit PackedUop word. The fetch queues hold
 * words and the ROB entries hold (completion cycle, op class); both
 * are fixed power-of-two rings sized from SmtConfig. Each thread has
 * one ClassRow per op class, built from its source's UopDecoder: the
 * latencies and the resources a uop of that class holds until it
 * commits, added at dispatch and subtracted at commit, with the shared
 * totals kept alongside the per-thread counts. IQ entries (freed at
 * issue) and SQ entries (freed when a store drains) are released
 * through a counting calendar — one release count per (slot, IQ|SQ,
 * thread) — so structure backpressure behaves realistically without
 * per-cycle wakeup scans. A slot only decrements counters, so the
 * order in which its releases were scheduled never mattered.
 *
 * advance() runs one cycle and, when no stage acted in it, jumps over
 * the following quiescent cycles to the earliest wake time: nothing
 * can change before the next due release, ROB-head completion or
 * fetch-redirect end, so every statistic equals plain stepping.
 */
class SmtPipeline
{
  public:
    SmtPipeline(const SmtConfig &config,
                std::array<ThreadSource *, SmtConfig::kThreads> sources);

    /** Install the fetch PG policy (a Bandit arm or a static policy). */
    void setPolicy(const PgPolicy &policy);
    const PgPolicy &policy() const { return policy_; }

    /**
     * Install per-thread occupancy shares (from Hill Climbing). A
     * thread whose occupancy of a monitored structure exceeds its
     * share of that structure is fetch-gated.
     */
    void setShares(const std::array<double, SmtConfig::kThreads> &s);

    /**
     * Run one cycle; if no stage acted in it, also skip the quiescent
     * cycles after it, up to the earliest wake time. Advances by at
     * least 1 and at most @p limit cycles (0 when @p limit is 0) and
     * returns the count. Skipped cycles are credited to renameStats()
     * under the class of the cycle that was run.
     */
    uint64_t advance(uint64_t limit);

    /** Advance exactly one cycle. */
    void cycle() { advance(1); }

    /** Run @p n cycles. */
    void run(uint64_t n);

    uint64_t cycles() const { return now_; }
    uint64_t committed(int t) const { return threads_[t].committed; }
    uint64_t fetched(int t) const { return threads_[t].fetched; }

    double
    ipc(int t) const
    {
        return now_ == 0 ? 0.0
                         : static_cast<double>(threads_[t].committed) /
                static_cast<double>(now_);
    }

    double ipcSum() const { return ipc(0) + ipc(1); }

    const RenameStats &renameStats() const { return renameStats_; }

    /** Occupancy introspection (tests, priority metrics). */
    int iqUsed(int t) const { return threads_[t].iqUsed; }
    int robUsed(int t) const { return threads_[t].held[kRob]; }
    int lqUsed(int t) const { return threads_[t].held[kLq]; }
    int sqUsed(int t) const { return threads_[t].sqUsed; }
    int irfUsed(int t) const { return threads_[t].held[kIrf]; }
    int frfUsed(int t) const { return threads_[t].held[kFrf]; }
    int branchesInRob(int t) const { return threads_[t].held[kBr]; }

    /** True if thread @p t is currently fetch-gated. */
    bool
    isGated(int t) const
    {
        const Thread &th = threads_[t];
        const std::array<int, 4> &lim = gateLimit_[t];
        return (th.iqUsed > lim[0]) |
            (th.held[kLq] + th.sqUsed > lim[1]) |
            (th.held[kRob] > lim[2]) | (th.held[kIrf] > lim[3]);
    }

    /**
     * Export pipeline metrics under @p prefix ("smt"): cycles, the
     * rename-stall taxonomy (Figure 15), and per-thread fetch/commit
     * counts and IPC under @p prefix.thread<i>.
     */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix) const;

    static constexpr int kCalendarSize = 32768;

    /** Per-slot release counter; bounds iqSize and sqSize. */
    using ReleaseCount = uint16_t;

  private:
    static constexpr int kDepRing = 64;

    /**
     * Lanes of the resources a uop holds from dispatch until it
     * commits. The IQ entry (freed at issue) and the SQ entry (freed
     * once a store drains) are released through the calendar instead
     * and are counted apart.
     */
    enum Lane
    {
        kRob,
        kLq,
        kIrf,
        kFrf,
        kBr, ///< branches in the ROB (BrC priority), not a structure
        kNumLanes = 8,
    };
    /** One int32 per Lane; the vector type makes a row update two
     *  SSE adds instead of a lane loop. */
    using LaneVec = int32_t __attribute__((vector_size(kNumLanes * 4)));

    /** What a uop of one kind holds: its commit-freed lanes and
     *  whether it takes an SQ entry (every uop takes an IQ entry). */
    struct KindUse
    {
        LaneVec held;
        int32_t sq;
    };
    static const std::array<KindUse, 5> kKindUse;

    /** One op class of one thread: its decoded kind's KindUse and the
     *  latencies UopDecoder gives the class. */
    struct ClassRow
    {
        LaneVec held;
        int32_t sq;
        uint32_t execLatency; ///< without the word's spread
        uint32_t drainLatency;
        /** Spread bits that add to execLatency (UopDecoder::spreadMask). */
        uint32_t spreadMask;
        /** A mispredicted branch: fetch redirects when it resolves. */
        bool mispredicted;
    };
    /** Indexed by the word's 4-bit op class. */
    using ClassTable = std::array<ClassRow, 16>;

    /** Fixed-capacity FIFO over a power-of-two buffer. */
    template <typename T>
    class Ring
    {
      public:
        void
        init(int capacity)
        {
            uint32_t n = 1;
            while (n < static_cast<uint32_t>(capacity))
                n <<= 1;
            buf_.assign(n, T{});
            mask_ = n - 1;
        }

        bool empty() const { return head_ == tail_; }
        uint32_t size() const { return tail_ - head_; }
        const T &front() const { return buf_[head_ & mask_]; }
        void pop() { ++head_; }
        void push(const T &v) { buf_[tail_++ & mask_] = v; }

      private:
        std::vector<T> buf_;
        uint32_t head_ = 0;
        uint32_t tail_ = 0;
        uint32_t mask_ = 0;
    };

    struct RobEntry
    {
        uint64_t completeCycle = 0;
        uint32_t cls = 0; ///< the word's op class
    };

    struct Thread
    {
        LaneVec held{};
        int32_t iqUsed = 0;
        int32_t sqUsed = 0;
        Ring<PackedUop> fetchQueue;
        Ring<RobEntry> rob;
        ClassTable classes;
        std::array<uint64_t, kDepRing> completionRing{};
        uint64_t dispatchedCount = 0;
        uint64_t committed = 0;
        uint64_t fetched = 0;
        uint64_t fetchBlockedUntil = 0;
    };

    /** Release counts due in one cycle, indexed [IQ|SQ][thread]. */
    struct Slot
    {
        ReleaseCount n[2][SmtConfig::kThreads];
    };
    static constexpr int kIqRelease = 0;
    static constexpr int kSqRelease = 1;

    /** Rename class of a cycle: kRenameRunning, kRenameIdle, or the
     *  stall mask of a stalled cycle (bit 0 ROB, 1 IQ, 2 LQ, 3 SQ,
     *  4 register file). */
    static constexpr unsigned kRenameRunning = 1u << 5;
    static constexpr unsigned kRenameIdle = 1u << 6;

    void schedule(uint64_t at, int type, int thread, int count);
    bool releaseStage();
    bool commitStage();
    unsigned renameStage();
    bool fetchStage();
    int pickFetchThread() const;
    bool tryDispatch(int t, unsigned &block_mask);
    void creditRename(unsigned cls, uint64_t n);
    uint64_t quiescentSpan(uint64_t max) const;

    SmtConfig config_;
    std::array<ThreadSource *, SmtConfig::kThreads> sources_;
    std::array<Thread, SmtConfig::kThreads> threads_;
    std::array<double, SmtConfig::kThreads> shares_{0.5, 0.5};
    PgPolicy policy_;

    /**
     * Per-thread gating limits over IQ, LQ+SQ, ROB and IRF: a thread
     * is gated when an occupancy exceeds its limit. An occupancy n
     * exceeds its share x = share * size exactly when n > floor(x),
     * so the limit is floor(x), or INT_MAX when the policy does not
     * monitor the structure. Recomputed by setPolicy and setShares.
     */
    std::array<std::array<int, 4>, SmtConfig::kThreads> gateLimit_{};
    void updateGateLimits();

    /** Shared-structure totals over both threads. */
    LaneVec heldTotal_{};
    int32_t iqTotal_ = 0;
    int32_t sqTotal_ = 0;
    /** Structure capacities, same lanes as LaneVec. */
    LaneVec cap_{};

    std::unique_ptr<Slot[]> calendar_;
    uint64_t now_ = 0;
    int rrNext_ = 0;
    int renameNext_ = 0;
    RenameStats renameStats_;
};

} // namespace mab

#endif // MAB_SMT_PIPELINE_H
