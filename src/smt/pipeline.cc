#include "smt/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "sim/tracing.h"

namespace mab {

void
SmtConfig::validate() const
{
    const auto require = [](bool ok, const char *field, int value,
                            const std::string &rule) {
        if (!ok) {
            throw std::invalid_argument(
                std::string("SmtConfig::") + field + " must be " +
                rule + ", got " + std::to_string(value));
        }
    };
    const std::pair<const char *, int> sizes[] = {
        {"fetchWidth", fetchWidth}, {"decodeWidth", decodeWidth},
        {"commitWidth", commitWidth}, {"iqSize", iqSize},
        {"robSize", robSize},       {"lqSize", lqSize},
        {"sqSize", sqSize},         {"irfSize", irfSize},
        {"frfSize", frfSize},       {"fetchQueueSize", fetchQueueSize},
    };
    for (const auto &[field, value] : sizes)
        require(value >= 1, field, value, ">= 1");
    // A calendar slot may hold a release for every IQ (SQ) entry.
    constexpr int kMaxCount =
        std::numeric_limits<SmtPipeline::ReleaseCount>::max();
    const std::string fits =
        "<= " + std::to_string(kMaxCount) + " (per-slot release counter)";
    require(iqSize <= kMaxCount, "iqSize", iqSize, fits);
    require(sqSize <= kMaxCount, "sqSize", sqSize, fits);
}

// Rows follow the UopKind order; lanes are ROB, LQ, IRF, FRF, branches.
const std::array<SmtPipeline::KindUse, 5> SmtPipeline::kKindUse = {{
    {{1, 0, 1, 0, 0}, 0}, // IntAlu
    {{1, 0, 0, 1, 0}, 0}, // FpAlu
    {{1, 1, 1, 0, 0}, 0}, // Load
    {{1, 0, 0, 0, 0}, 1}, // Store
    {{1, 0, 0, 0, 1}, 0}, // Branch
}};

SmtPipeline::SmtPipeline(
    const SmtConfig &config,
    std::array<ThreadSource *, SmtConfig::kThreads> sources)
    : config_(config), sources_(sources)
{
    config_.validate();
    static_assert(sizeof(Slot) == sizeof(uint64_t));
    static_assert((kCalendarSize & (kCalendarSize - 1)) == 0);
    calendar_ = std::make_unique<Slot[]>(kCalendarSize);
    for (Thread &th : threads_) {
        th.fetchQueue.init(config_.fetchQueueSize);
        th.rob.init(config_.robSize);
    }
    constexpr int32_t kUnbounded = std::numeric_limits<int32_t>::max();
    cap_ = LaneVec{config_.robSize, config_.lqSize,  config_.irfSize,
                   config_.frfSize, kUnbounded,      kUnbounded,
                   kUnbounded,      kUnbounded};
    setPolicy(choiPolicy());
}

void
SmtPipeline::setPolicy(const PgPolicy &policy)
{
    policy_ = policy;
    updateGateLimits();
}

void
SmtPipeline::setShares(const std::array<double, SmtConfig::kThreads> &s)
{
    shares_ = s;
    updateGateLimits();
}

void
SmtPipeline::updateGateLimits()
{
    constexpr int kNever = std::numeric_limits<int>::max();
    const auto limit = [](bool monitored, double x) {
        if (!monitored || !(x < kNever)) // NaN never gates either
            return kNever;
        if (x < std::numeric_limits<int>::min())
            return std::numeric_limits<int>::min();
        return static_cast<int>(std::floor(x));
    };
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        const double s = shares_[t];
        gateLimit_[t] = {
            limit(policy_.gateIq, s * config_.iqSize),
            limit(policy_.gateLsq,
                  s * (config_.lqSize + config_.sqSize)),
            limit(policy_.gateRob, s * config_.robSize),
            limit(policy_.gateIrf, s * config_.irfSize),
        };
    }
}

inline void
SmtPipeline::schedule(uint64_t at, int type, int thread, int count)
{
    // Pathological dependence chains can push an issue time past the
    // calendar horizon; clamp (releasing the entry slightly early)
    // rather than wrap around.
    if (at - now_ >= kCalendarSize)
        at = now_ + kCalendarSize - 1;
    calendar_[at & (kCalendarSize - 1)].n[type][thread] +=
        static_cast<ReleaseCount>(count);
}

inline bool
SmtPipeline::releaseStage()
{
    Slot &slot = calendar_[now_ & (kCalendarSize - 1)];
    uint64_t any;
    std::memcpy(&any, &slot, sizeof(any));
    if (any == 0)
        return false;
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        threads_[t].iqUsed -= slot.n[kIqRelease][t];
        threads_[t].sqUsed -= slot.n[kSqRelease][t];
        iqTotal_ -= slot.n[kIqRelease][t];
        sqTotal_ -= slot.n[kSqRelease][t];
    }
    slot = Slot{};
    return true;
}

inline bool
SmtPipeline::commitStage()
{
    int budget = config_.commitWidth;
    // Alternate which thread gets first claim on commit bandwidth.
    const int first = static_cast<int>(now_ & 1);
    for (int i = 0; i < SmtConfig::kThreads && budget > 0; ++i) {
        const int t = (first + i) % SmtConfig::kThreads;
        Thread &th = threads_[t];
        while (budget > 0 && !th.rob.empty() &&
               th.rob.front().completeCycle <= now_) {
            const RobEntry &e = th.rob.front();
            const KindUse &use = kKindUse[static_cast<int>(e.kind)];
            th.held -= use.held;
            heldTotal_ -= use.held;
            // A store's SQ entry drains to memory after commit; every
            // other kind schedules a zero count.
            schedule(now_ + std::max<uint64_t>(e.drainLatency, 1),
                     kSqRelease, t, use.sq);
            th.rob.pop();
            ++th.committed;
            --budget;
        }
    }
    return budget != config_.commitWidth;
}

inline bool
SmtPipeline::tryDispatch(int t, unsigned &block_mask)
{
    Thread &th = threads_[t];
    if (th.fetchQueue.empty())
        return false;
    const Uop &uop = th.fetchQueue.front();
    const KindUse &use = kKindUse[static_cast<int>(uop.kind)];

    const auto full = [this](int lane) {
        return static_cast<int32_t>(heldTotal_[lane] >= cap_[lane]);
    };
    const unsigned blocked =
        static_cast<unsigned>(full(kRob)) |
        static_cast<unsigned>(iqTotal_ >= config_.iqSize) << 1 |
        static_cast<unsigned>(use.held[kLq] & full(kLq)) << 2 |
        static_cast<unsigned>(use.sq & (sqTotal_ >= config_.sqSize))
            << 3 |
        static_cast<unsigned>((use.held[kIrf] & full(kIrf)) |
                              (use.held[kFrf] & full(kFrf)))
            << 4;
    if (blocked) {
        block_mask |= blocked;
        return false;
    }

    // Dispatch: compute the uop's issue and completion times from its
    // register dependency, then allocate structures.
    const uint64_t n = th.dispatchedCount;
    const uint64_t dist = uop.depDistance;
    const uint64_t producer = th.completionRing[(n - dist) % kDepRing];
    const bool has_dep = dist > 0 && dist <= n && dist <= kDepRing;
    const uint64_t dep_ready = has_dep ? producer : 0;
    const uint64_t issue = std::max(now_ + 1, dep_ready);
    const uint64_t complete = issue + uop.execLatency;
    th.completionRing[n % kDepRing] = complete;
    th.dispatchedCount = n + 1;

    th.held += use.held;
    heldTotal_ += use.held;
    ++th.iqUsed;
    ++iqTotal_;
    th.sqUsed += use.sq;
    sqTotal_ += use.sq;
    schedule(issue, kIqRelease, t, 1); // IQ entry frees at issue
    if (uop.mispredicted && uop.kind == UopKind::Branch) {
        // The frontend redirects when the branch resolves.
        th.fetchBlockedUntil = std::max(
            th.fetchBlockedUntil, complete + config_.mispredictPenalty);
    }

    th.rob.push({complete, uop.drainLatency, uop.kind});
    th.fetchQueue.pop();
    return true;
}

inline unsigned
SmtPipeline::renameStage()
{
    // The threads take turns of two dispatches each, starting with
    // renameNext_. A thread that fails to dispatch stays blocked for
    // the rest of the cycle (its queue only refills at fetch, and
    // dispatches only raise the totals), so the other thread takes
    // the remaining width.
    int budget = config_.decodeWidth;
    bool dispatched = false;
    unsigned block_mask = 0;
    unsigned failed = 0;
    int t = renameNext_;
    int turn = 0;
    while (budget > 0) {
        if (tryDispatch(t, block_mask)) {
            dispatched = true;
            --budget;
            renameNext_ = t ^ 1;
            if (++turn == 2 && !(failed & (1u << (t ^ 1)))) {
                t ^= 1;
                turn = 0;
            }
        } else {
            failed |= 1u << t;
            if (failed == 3u)
                break;
            t ^= 1;
            turn = 0;
        }
    }

    unsigned cls = block_mask;
    if (dispatched)
        cls = kRenameRunning;
    else if (threads_[0].fetchQueue.empty() &&
             threads_[1].fetchQueue.empty())
        cls = kRenameIdle;
    creditRename(cls, 1);
    return cls;
}

inline void
SmtPipeline::creditRename(unsigned cls, uint64_t n)
{
    RenameStats &s = renameStats_;
    s.cycles += n;
    if (cls == kRenameRunning) {
        s.running += n;
        return;
    }
    if (cls == kRenameIdle) {
        s.idle += n;
        return;
    }
    s.stalled += n;
    s.stallRob += (cls & 1u) ? n : 0;
    s.stallIq += (cls & 2u) ? n : 0;
    s.stallLq += (cls & 4u) ? n : 0;
    s.stallSq += (cls & 8u) ? n : 0;
    s.stallRf += (cls & 16u) ? n : 0;
}

inline int
SmtPipeline::pickFetchThread() const
{
    auto eligible = [&](int t) {
        const Thread &th = threads_[t];
        return !isGated(t) && th.fetchBlockedUntil <= now_ &&
            static_cast<int>(th.fetchQueue.size()) <
                config_.fetchQueueSize;
    };

    if (policy_.priority == FetchPriority::RR) {
        for (int i = 0; i < SmtConfig::kThreads; ++i) {
            const int t = (rrNext_ + i) % SmtConfig::kThreads;
            if (eligible(t))
                return t;
        }
        return -1;
    }

    int best = -1;
    int best_metric = 0;
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        if (!eligible(t))
            continue;
        const Thread &th = threads_[t];
        int metric = 0;
        switch (policy_.priority) {
          case FetchPriority::IC:
            metric = th.iqUsed;
            break;
          case FetchPriority::BrC:
            metric = th.held[kBr];
            break;
          case FetchPriority::LSQC:
            metric = th.held[kLq] + th.sqUsed;
            break;
          case FetchPriority::RR:
            break;
        }
        if (best < 0 || metric < best_metric) {
            best = t;
            best_metric = metric;
        }
    }
    return best;
}

inline bool
SmtPipeline::fetchStage()
{
    const int t = pickFetchThread();
    if (t < 0)
        return false;
    if (policy_.priority == FetchPriority::RR)
        rrNext_ = (t + 1) % SmtConfig::kThreads;

    Thread &th = threads_[t];
    const int room = config_.fetchQueueSize -
        static_cast<int>(th.fetchQueue.size());
    const int count = std::min(config_.fetchWidth, room);
    for (int i = 0; i < count; ++i) {
        const Uop uop = sources_[t]->next();
        th.fetchQueue.push(uop);
        ++th.fetched;
        if (uop.mispredicted && uop.kind == UopKind::Branch) {
            // Conservative frontend bubble until the branch resolves
            // (extended at dispatch once the resolve time is known).
            th.fetchBlockedUntil = std::max(
                th.fetchBlockedUntil, now_ + config_.mispredictPenalty);
            break;
        }
    }
    return true;
}

uint64_t
SmtPipeline::quiescentSpan(uint64_t max) const
{
    // The cycle just run (now_ - 1) changed nothing, so the state is
    // frozen until one of three timed events: a ROB head completing,
    // a fetch redirect ending, or a calendar slot releasing entries.
    // Occupancies, queue heads, gating and the rename stall mask can
    // only move after one of them.
    uint64_t span = max;
    for (const Thread &th : threads_) {
        // A head that did not commit in the cycle just run completes
        // at now_ or later.
        if (!th.rob.empty())
            span = std::min(span, th.rob.front().completeCycle - now_);
        if (th.fetchBlockedUntil >= now_)
            span = std::min(span, th.fetchBlockedUntil - now_);
    }
    // Every pending release lies within kCalendarSize - 1 slots.
    const uint64_t horizon =
        std::min<uint64_t>(span, kCalendarSize - 1);
    for (uint64_t d = 0; d < horizon; ++d) {
        uint64_t any;
        std::memcpy(&any, &calendar_[(now_ + d) & (kCalendarSize - 1)],
                    sizeof(any));
        if (any != 0)
            return d;
    }
    return span;
}

uint64_t
SmtPipeline::advance(uint64_t limit)
{
    if (limit == 0)
        return 0;
    // Branch outside the RAII scope: when profiling is off the hot
    // path must carry no ScopedPhase cleanup at all.
    if (tracing::Tracer::profileActive()) {
        tracing::ScopedPhase phase(tracing::Phase::SmtCycle);
        return advanceImpl(limit);
    }
    return advanceImpl(limit);
}

uint64_t
SmtPipeline::advanceImpl(uint64_t limit)
{
    bool acted = releaseStage();
    acted |= commitStage();
    const unsigned cls = renameStage();
    acted |= cls == kRenameRunning;
    acted |= fetchStage();
    ++now_;
    if (acted || limit == 1)
        return 1;

    const uint64_t skip = quiescentSpan(limit - 1);
    now_ += skip;
    creditRename(cls, skip);
    return 1 + skip;
}

void
SmtPipeline::run(uint64_t n)
{
    while (n > 0)
        n -= advance(n);
}

void
SmtPipeline::exportStats(StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.setCounter(prefix + ".cycles", now_);
    reg.setScalar(prefix + ".ipcSum", ipcSum());

    reg.setCounter(prefix + ".rename.stallRob", renameStats_.stallRob);
    reg.setCounter(prefix + ".rename.stallIq", renameStats_.stallIq);
    reg.setCounter(prefix + ".rename.stallLq", renameStats_.stallLq);
    reg.setCounter(prefix + ".rename.stallSq", renameStats_.stallSq);
    reg.setCounter(prefix + ".rename.stallRf", renameStats_.stallRf);
    reg.setCounter(prefix + ".rename.stalled", renameStats_.stalled);
    reg.setCounter(prefix + ".rename.idle", renameStats_.idle);
    reg.setCounter(prefix + ".rename.running", renameStats_.running);

    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        const std::string th =
            prefix + ".thread" + std::to_string(t);
        reg.setCounter(th + ".fetched", threads_[t].fetched);
        reg.setCounter(th + ".committed", threads_[t].committed);
        reg.setScalar(th + ".ipc", ipc(t));
    }
}

} // namespace mab
