#include <array>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "fuzz/domains.h"
#include "fuzz/shrink.h"
#include "sim/rng.h"
#include "smt/fetch_policy.h"
#include "smt/pipeline.h"
#include "smt/thread_source.h"

namespace mab::fuzz {

namespace {

/** Planted faults for --self-test, each in the reference pipeline. */
enum class SmtMutation
{
    None,
    /** Every load adds the top of the DRAM spread (kDramSpread - 1
     *  cycles), DRAM loads on top of their own spread. (A spread mask
     *  merely widened to every load class would be invisible: generated
     *  words carry spread bits on DRAM loads only.) */
    DramSpreadOnEveryLoad,
    /** A store's SQ entry frees at commit instead of after its drain. */
    SqFreedAtCommit,
    /** A mispredicted branch no longer redirects fetch when it
     *  resolves (only the fetch-time bubble is left). */
    DropMispredictRedirect,
    /** Commit retires one uop more per cycle than commitWidth. */
    CommitWidthPlusOne,
};

const char *
toString(SmtMutation m)
{
    switch (m) {
      case SmtMutation::None: return "None";
      case SmtMutation::DramSpreadOnEveryLoad: return "DramSpreadOnEveryLoad";
      case SmtMutation::SqFreedAtCommit: return "SqFreedAtCommit";
      case SmtMutation::DropMispredictRedirect:
        return "DropMispredictRedirect";
      case SmtMutation::CommitWidthPlusOne: return "CommitWidthPlusOne";
    }
    return "?";
}

/**
 * Plain reference for SmtPipeline: fetch decodes every uop through
 * ThreadSource::next() into a deque of Uops, dispatch and commit look
 * the uop's kind up in a KindUse row, ROB entries carry (completion
 * cycle, drain latency, kind), pending IQ/SQ releases sit in an
 * ordered map, gating compares each occupancy with share x size in
 * double, and every cycle is stepped. Deliberately slow and obvious;
 * never optimize this class.
 */
class ReferenceSmtPipeline
{
  public:
    ReferenceSmtPipeline(const SmtConfig &config,
                         std::array<ThreadSource *, SmtConfig::kThreads>
                             sources,
                         SmtMutation mutation)
        : config_(config), sources_(sources), mutation_(mutation)
    {
    }

    void setPolicy(const PgPolicy &policy) { policy_ = policy; }
    void
    setShares(const std::array<double, SmtConfig::kThreads> &s)
    {
        shares_ = s;
    }

    /** Step every cycle up to @p cycle. */
    void
    stepUntil(uint64_t cycle)
    {
        while (now_ < cycle)
            step();
    }

    uint64_t cycles() const { return now_; }
    uint64_t committed(int t) const { return threads_[t].committed; }
    uint64_t fetched(int t) const { return threads_[t].fetched; }
    int iqUsed(int t) const { return threads_[t].iq; }
    int robUsed(int t) const { return threads_[t].held[kRob]; }
    int lqUsed(int t) const { return threads_[t].held[kLq]; }
    int sqUsed(int t) const { return threads_[t].sq; }
    int irfUsed(int t) const { return threads_[t].held[kIrf]; }
    int frfUsed(int t) const { return threads_[t].held[kFrf]; }
    int branchesInRob(int t) const { return threads_[t].held[kBr]; }
    const RenameStats &renameStats() const { return stats_; }

  private:
    enum Lane
    {
        kRob,
        kLq,
        kIrf,
        kFrf,
        kBr,
        kLanes
    };

    /** Per UopKind: the lanes held until commit, and the SQ entry. */
    struct KindUse
    {
        std::array<int, kLanes> held;
        int sq;
    };
    static constexpr std::array<KindUse, 5> kKindUse = {{
        {{1, 0, 1, 0, 0}, 0}, // IntAlu
        {{1, 0, 0, 1, 0}, 0}, // FpAlu
        {{1, 1, 1, 0, 0}, 0}, // Load
        {{1, 0, 0, 0, 0}, 1}, // Store
        {{1, 0, 0, 0, 1}, 0}, // Branch
    }};

    struct RobEntry
    {
        uint64_t completeCycle;
        uint32_t drainLatency;
        UopKind kind;
    };

    struct Thread
    {
        std::array<int, kLanes> held{};
        int iq = 0;
        int sq = 0;
        std::deque<Uop> fetchQueue;
        std::deque<RobEntry> rob;
        /** Completion cycle of every dispatched uop, in order. */
        std::vector<uint64_t> completions;
        uint64_t committed = 0;
        uint64_t fetched = 0;
        uint64_t fetchBlockedUntil = 0;
    };

    static const KindUse &use(UopKind k) { return kKindUse[static_cast<int>(k)]; }

    int
    total(Lane lane) const
    {
        return threads_[0].held[lane] + threads_[1].held[lane];
    }

    /** Queue a release of one IQ (type 0) or SQ (type 1) entry of
     *  thread @p t at cycle @p at, no further ahead than the kernel's
     *  calendar reaches. */
    void
    release(uint64_t at, int type, int t)
    {
        const uint64_t horizon = now_ + SmtPipeline::kCalendarSize - 1;
        ++pending_[std::min(at, horizon)][type][t];
    }

    void
    step()
    {
        // Release the IQ and SQ entries due this cycle.
        if (auto it = pending_.find(now_); it != pending_.end()) {
            for (int t = 0; t < SmtConfig::kThreads; ++t) {
                threads_[t].iq -= it->second[0][t];
                threads_[t].sq -= it->second[1][t];
            }
            pending_.erase(it);
        }
        commit();
        rename();
        fetch();
        ++now_;
    }

    void
    commit()
    {
        int budget = config_.commitWidth +
            (mutation_ == SmtMutation::CommitWidthPlusOne ? 1 : 0);
        const int first = static_cast<int>(now_ % 2);
        for (int i = 0; i < SmtConfig::kThreads; ++i) {
            const int t = (first + i) % SmtConfig::kThreads;
            Thread &th = threads_[t];
            while (budget > 0 && !th.rob.empty() &&
                   th.rob.front().completeCycle <= now_) {
                const RobEntry e = th.rob.front();
                th.rob.pop_front();
                for (int l = 0; l < kLanes; ++l)
                    th.held[l] -= use(e.kind).held[l];
                if (e.kind == UopKind::Store) {
                    if (mutation_ == SmtMutation::SqFreedAtCommit)
                        --th.sq;
                    else
                        release(now_ + std::max<uint64_t>(e.drainLatency, 1),
                                1, t);
                }
                ++th.committed;
                --budget;
            }
        }
    }

    /** The stall mask of @p t's queue head, 0 when it can dispatch
     *  (bit 0 ROB, 1 IQ, 2 LQ, 3 SQ, 4 register file). */
    unsigned
    stallMask(int t) const
    {
        const KindUse &u = use(threads_[t].fetchQueue.front().kind);
        unsigned mask = 0;
        if (total(kRob) >= config_.robSize)
            mask |= 1;
        if (threads_[0].iq + threads_[1].iq >= config_.iqSize)
            mask |= 2;
        if (u.held[kLq] && total(kLq) >= config_.lqSize)
            mask |= 4;
        if (u.sq && threads_[0].sq + threads_[1].sq >= config_.sqSize)
            mask |= 8;
        if ((u.held[kIrf] && total(kIrf) >= config_.irfSize) ||
            (u.held[kFrf] && total(kFrf) >= config_.frfSize))
            mask |= 16;
        return mask;
    }

    void
    dispatch(int t)
    {
        Thread &th = threads_[t];
        const Uop uop = th.fetchQueue.front();
        th.fetchQueue.pop_front();
        const uint64_t n = th.completions.size();
        uint64_t issue = now_ + 1;
        if (uop.depDistance > 0 && uop.depDistance <= n)
            issue = std::max(issue, th.completions[n - uop.depDistance]);
        uint64_t latency = uop.execLatency;
        if (mutation_ == SmtMutation::DramSpreadOnEveryLoad &&
            uop.kind == UopKind::Load)
            latency += PackedUop::kDramSpread - 1;
        const uint64_t complete = issue + latency;
        th.completions.push_back(complete);
        for (int l = 0; l < kLanes; ++l)
            th.held[l] += use(uop.kind).held[l];
        ++th.iq;
        th.sq += use(uop.kind).sq;
        release(issue, 0, t);
        if (uop.kind == UopKind::Branch && uop.mispredicted &&
            mutation_ != SmtMutation::DropMispredictRedirect)
            th.fetchBlockedUntil = std::max(
                th.fetchBlockedUntil, complete + config_.mispredictPenalty);
        th.rob.push_back({complete, uop.drainLatency, uop.kind});
    }

    void
    rename()
    {
        // Turns of two dispatches per thread, starting with
        // renameNext_; a thread that fails once is done for the cycle.
        int budget = config_.decodeWidth;
        bool dispatched = false;
        unsigned mask = 0;
        std::array<bool, SmtConfig::kThreads> failed{};
        int t = renameNext_;
        int turn = 0;
        while (budget > 0 && !(failed[0] && failed[1])) {
            const Thread &th = threads_[t];
            const unsigned stall =
                th.fetchQueue.empty() ? 0 : stallMask(t);
            if (th.fetchQueue.empty() || stall != 0) {
                mask |= stall;
                failed[t] = true;
                t ^= 1;
                turn = 0;
                continue;
            }
            dispatch(t);
            dispatched = true;
            --budget;
            renameNext_ = t ^ 1;
            if (++turn == 2 && !failed[t ^ 1]) {
                t ^= 1;
                turn = 0;
            }
        }
        ++stats_.cycles;
        if (dispatched) {
            ++stats_.running;
        } else if (threads_[0].fetchQueue.empty() &&
                   threads_[1].fetchQueue.empty()) {
            ++stats_.idle;
        } else {
            ++stats_.stalled;
            stats_.stallRob += (mask & 1) ? 1 : 0;
            stats_.stallIq += (mask & 2) ? 1 : 0;
            stats_.stallLq += (mask & 4) ? 1 : 0;
            stats_.stallSq += (mask & 8) ? 1 : 0;
            stats_.stallRf += (mask & 16) ? 1 : 0;
        }
    }

    bool
    gated(int t) const
    {
        const Thread &th = threads_[t];
        const double s = shares_[t];
        return (policy_.gateIq && th.iq > s * config_.iqSize) ||
            (policy_.gateLsq &&
             th.held[kLq] + th.sq > s * (config_.lqSize + config_.sqSize)) ||
            (policy_.gateRob && th.held[kRob] > s * config_.robSize) ||
            (policy_.gateIrf && th.held[kIrf] > s * config_.irfSize);
    }

    bool
    eligible(int t) const
    {
        const Thread &th = threads_[t];
        return !gated(t) && th.fetchBlockedUntil <= now_ &&
            static_cast<int>(th.fetchQueue.size()) < config_.fetchQueueSize;
    }

    int
    pickThread()
    {
        if (policy_.priority == FetchPriority::RR) {
            for (int i = 0; i < SmtConfig::kThreads; ++i) {
                const int t = (rrNext_ + i) % SmtConfig::kThreads;
                if (eligible(t)) {
                    rrNext_ = (t + 1) % SmtConfig::kThreads;
                    return t;
                }
            }
            return -1;
        }
        int best = -1;
        int best_metric = 0;
        for (int t = 0; t < SmtConfig::kThreads; ++t) {
            if (!eligible(t))
                continue;
            const Thread &th = threads_[t];
            const int metric = policy_.priority == FetchPriority::IC
                ? th.iq
                : policy_.priority == FetchPriority::BrC
                ? th.held[kBr]
                : th.held[kLq] + th.sq;
            if (best < 0 || metric < best_metric) {
                best = t;
                best_metric = metric;
            }
        }
        return best;
    }

    void
    fetch()
    {
        const int t = pickThread();
        if (t < 0)
            return;
        Thread &th = threads_[t];
        const int room =
            config_.fetchQueueSize - static_cast<int>(th.fetchQueue.size());
        for (int i = 0; i < std::min(config_.fetchWidth, room); ++i) {
            const Uop uop = sources_[t]->next();
            th.fetchQueue.push_back(uop);
            ++th.fetched;
            if (uop.kind == UopKind::Branch && uop.mispredicted) {
                th.fetchBlockedUntil = std::max(
                    th.fetchBlockedUntil, now_ + config_.mispredictPenalty);
                break;
            }
        }
    }

    SmtConfig config_;
    std::array<ThreadSource *, SmtConfig::kThreads> sources_;
    SmtMutation mutation_;
    PgPolicy policy_ = choiPolicy();
    std::array<double, SmtConfig::kThreads> shares_{0.5, 0.5};
    std::array<Thread, SmtConfig::kThreads> threads_;
    /** cycle -> release counts [IQ|SQ][thread] due then. */
    std::map<uint64_t, std::array<std::array<int, SmtConfig::kThreads>, 2>>
        pending_;
    uint64_t now_ = 0;
    int rrNext_ = 0;
    int renameNext_ = 0;
    RenameStats stats_;
};

/**
 * An SMT pipeline case: two random thread profiles, a random geometry
 * and fetch PG policy, and a share schedule applied at epoch edges
 * (the way Hill Climbing moves the gating thresholds).
 */
struct SmtCase
{
    std::array<SmtAppParams, SmtConfig::kThreads> apps;
    std::array<uint64_t, SmtConfig::kThreads> seeds{1, 2};
    SmtConfig config;
    PgPolicy policy;
    uint64_t cycles = 4000;
    uint64_t epoch = 500;
    /** Shares installed at edge k: shares[k % size()]. */
    std::vector<std::array<double, SmtConfig::kThreads>> shares;
};

std::string
formatSmtCase(const SmtCase &c)
{
    std::ostringstream os;
    os << "smt case: cycles=" << c.cycles << " epoch=" << c.epoch
       << " policy=" << c.policy.name() << " widths{fetch="
       << c.config.fetchWidth << " decode=" << c.config.decodeWidth
       << " commit=" << c.config.commitWidth << "} sizes{iq="
       << c.config.iqSize << " rob=" << c.config.robSize
       << " lq=" << c.config.lqSize << " sq=" << c.config.sqSize
       << " irf=" << c.config.irfSize << " frf=" << c.config.frfSize
       << " fq=" << c.config.fetchQueueSize
       << "} penalty=" << c.config.mispredictPenalty << " shares{";
    for (const auto &s : c.shares)
        os << ' ' << s[0] << '/' << s[1];
    os << " }";
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        const SmtAppParams &p = c.apps[t];
        os << " t" << t << "{seed=" << c.seeds[t] << " ld=" << p.loadFrac
           << " st=" << p.storeFrac << " br=" << p.branchFrac
           << " fp=" << p.fpFrac << " mp=" << p.mispredictRate
           << " l1m=" << p.l1MissRate << " dram=" << p.dramRate
           << " l2lat=" << p.l2Latency << " dramlat=" << p.dramLatency
           << " dep=" << p.depProb << '/' << p.depMeanDistance
           << " drain=" << p.storeDrainDramRate << '}';
    }
    return os.str();
}

/** Generate an SMT case: mixes from serial DRAM chains to branchy
 *  compute, widths and structure sizes down to 1, any of the 64
 *  fetch PG policies, DRAM latencies past the calendar horizon. */
SmtCase
genSmtCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 150));
    SmtCase c;
    // Sizes skew small (down to 1) so full structures, stalls and
    // gating are common.
    const auto size = [&rng](int hi) {
        return rng.bernoulli(0.15)
            ? 1 + static_cast<int>(rng.below(4))
            : 1 + static_cast<int>(rng.below(static_cast<uint64_t>(hi)));
    };
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        SmtAppParams &p = c.apps[t];
        p.name = "fuzz_smt" + std::to_string(t);
        // Random kind mix covering up to all of the uops.
        const double w[4] = {rng.uniform(), rng.uniform(), rng.uniform(),
                             rng.uniform()};
        const double scale =
            rng.uniform(0.3, 1.0) / (w[0] + w[1] + w[2] + w[3] + 1e-9);
        p.loadFrac = w[0] * scale;
        p.storeFrac = w[1] * scale;
        p.branchFrac = w[2] * scale;
        p.fpFrac = w[3] * scale;
        p.mispredictRate = rng.uniform(0.0, 0.15);
        p.l1MissRate = rng.uniform();
        p.dramRate = rng.uniform();
        p.l2Latency = 1 + static_cast<uint32_t>(rng.below(40));
        // 1 in 8 threads gets DRAM latencies whose dependence chains
        // run past the calendar horizon.
        p.dramLatency = rng.bernoulli(0.125)
            ? 2000 + static_cast<uint32_t>(rng.below(3000))
            : 20 + static_cast<uint32_t>(rng.below(600));
        p.depProb = rng.uniform();
        p.depMeanDistance = 1 + static_cast<int>(rng.below(30));
        p.storeDrainDramRate = rng.uniform();
        c.seeds[t] = subSeed(seed, 151 + static_cast<uint64_t>(t));
    }
    c.config.fetchWidth = 1 + static_cast<int>(rng.below(8));
    c.config.decodeWidth = 1 + static_cast<int>(rng.below(8));
    c.config.commitWidth = 1 + static_cast<int>(rng.below(10));
    c.config.iqSize = size(128);
    c.config.robSize = size(320);
    c.config.lqSize = size(96);
    c.config.sqSize = size(64);
    c.config.irfSize = size(200);
    c.config.frfSize = size(200);
    c.config.fetchQueueSize = size(32);
    c.config.mispredictPenalty = rng.below(30);
    const std::vector<PgPolicy> policies = allPgPolicies();
    c.policy = policies[rng.below(policies.size())];
    c.cycles = 2000 + rng.below(18000);
    c.epoch = 50 + rng.below(3000);
    const size_t n_shares = 1 + rng.below(6);
    for (size_t i = 0; i < n_shares; ++i) {
        const double s0 = rng.uniform();
        c.shares.push_back({s0, rng.bernoulli(0.8) ? 1.0 - s0
                                                   : rng.uniform()});
    }
    return c;
}

/** Per-thread values of smtSnapshot, in order. */
constexpr const char *kSmtThreadFields[] = {
    "committed", "fetched", "iqUsed",  "robUsed",      "lqUsed",
    "sqUsed",    "irfUsed", "frfUsed", "branchesInRob"};
/** RenameStats values of smtSnapshot, after the per-thread ones. */
constexpr const char *kSmtRenameFields[] = {
    "rename.stallRob", "rename.stallIq", "rename.stallLq",
    "rename.stallSq",  "rename.stallRf", "rename.stalled",
    "rename.idle",     "rename.running", "rename.cycles"};
constexpr size_t kSmtPerThread = std::size(kSmtThreadFields);
constexpr size_t kSmtFields = 1 + SmtConfig::kThreads * kSmtPerThread +
    std::size(kSmtRenameFields);

/** Every observable value of a pipeline: cycles, then each thread's
 *  kSmtThreadFields, then kSmtRenameFields. */
template <typename P>
std::array<uint64_t, kSmtFields>
smtSnapshot(const P &p)
{
    const RenameStats &r = p.renameStats();
    const auto u = [](int v) { return static_cast<uint64_t>(v); };
    return {p.cycles(),
            p.committed(0), p.fetched(0), u(p.iqUsed(0)), u(p.robUsed(0)),
            u(p.lqUsed(0)), u(p.sqUsed(0)), u(p.irfUsed(0)),
            u(p.frfUsed(0)), u(p.branchesInRob(0)),
            p.committed(1), p.fetched(1), u(p.iqUsed(1)), u(p.robUsed(1)),
            u(p.lqUsed(1)), u(p.sqUsed(1)), u(p.irfUsed(1)),
            u(p.frfUsed(1)), u(p.branchesInRob(1)),
            r.stallRob, r.stallIq, r.stallLq, r.stallSq, r.stallRf,
            r.stalled, r.idle, r.running, r.cycles};
}

/** First difference between two pipelines' snapshots, named
 *  "@p an X vs @p bn Y"; "" when they agree. */
template <typename A, typename B>
std::string
diffSmtState(const A &a, const char *an, const B &b, const char *bn)
{
    const auto x = smtSnapshot(a);
    const auto y = smtSnapshot(b);
    for (size_t i = 0; i < kSmtFields; ++i) {
        if (x[i] == y[i])
            continue;
        std::ostringstream os;
        if (i == 0) {
            os << "cycles";
        } else if (i <= SmtConfig::kThreads * kSmtPerThread) {
            os << kSmtThreadFields[(i - 1) % kSmtPerThread] << " (thread "
               << (i - 1) / kSmtPerThread << ")";
        } else {
            os << kSmtRenameFields[i - 1 - SmtConfig::kThreads *
                                               kSmtPerThread];
        }
        os << ": " << an << ' ' << x[i] << " vs " << bn << ' ' << y[i];
        return os.str();
    }
    return "";
}

/**
 * Drive one SmtPipeline with advance(1), a twin with free-running
 * advance(edge - cycles()) calls, and the ReferenceSmtPipeline (with
 * @p m planted) cycle by cycle, applying the same share change to all
 * three at every epoch edge. Both kernels replay one UopStream per
 * thread through attachStream; the reference generates live. The
 * stepped kernel is compared with the reference after every cycle, so
 * a failure names the first cycle that diverged (and the case cut to
 * that many cycles still fails), and with the free-running twin at
 * each edge: cycles, per-thread committed/fetched, every per-thread
 * occupancy and all RenameStats fields. Also checks that no advance
 * overruns its limit. Returns "" on agreement, else the first
 * divergence; @p diverged (when given) gets its cycle.
 */
std::string
diffSmtCase(const SmtCase &c, SmtMutation m, uint64_t *diverged = nullptr)
{
    std::array<std::shared_ptr<UopStream>, SmtConfig::kThreads> streams;
    for (int t = 0; t < SmtConfig::kThreads; ++t)
        streams[t] = std::make_shared<UopStream>(c.apps[t], c.seeds[t]);
    ThreadSource a0(c.apps[0], c.seeds[0]), a1(c.apps[1], c.seeds[1]);
    ThreadSource b0(c.apps[0], c.seeds[0]), b1(c.apps[1], c.seeds[1]);
    ThreadSource r0(c.apps[0], c.seeds[0]), r1(c.apps[1], c.seeds[1]);
    a0.attachStream(streams[0]);
    a1.attachStream(streams[1]);
    b0.attachStream(streams[0]);
    b1.attachStream(streams[1]);
    SmtPipeline stepped(c.config, {&a0, &a1});
    SmtPipeline free_run(c.config, {&b0, &b1});
    ReferenceSmtPipeline ref(c.config, {&r0, &r1}, m);
    stepped.setPolicy(c.policy);
    free_run.setPolicy(c.policy);
    ref.setPolicy(c.policy);
    const uint64_t epoch = std::max<uint64_t>(c.epoch, 1);
    uint64_t edge = 0;
    for (uint64_t k = 0; edge < c.cycles; ++k) {
        edge = std::min(edge + epoch, c.cycles);
        while (stepped.cycles() < edge) {
            stepped.advance(1);
            ref.stepUntil(stepped.cycles());
            const std::string err =
                diffSmtState(stepped, "kernel", ref, "reference");
            if (!err.empty()) {
                if (diverged)
                    *diverged = stepped.cycles();
                return "at cycle " + std::to_string(stepped.cycles()) +
                    ": " + err + " (" + formatSmtCase(c) + ")";
            }
        }
        while (free_run.cycles() < edge) {
            const uint64_t limit = edge - free_run.cycles();
            const uint64_t n = free_run.advance(limit);
            if (n == 0 || n > limit)
                return "advance(" + std::to_string(limit) +
                    ") moved " + std::to_string(n) + " cycles at cycle " +
                    std::to_string(free_run.cycles()) + " (" +
                    formatSmtCase(c) + ")";
        }
        const std::string err =
            diffSmtState(stepped, "stepped", free_run, "free-running");
        if (!err.empty()) {
            if (diverged)
                *diverged = edge;
            return "at edge " + std::to_string(edge) + ": " + err + " (" +
                formatSmtCase(c) + ")";
        }
        if (!c.shares.empty()) {
            const auto &s = c.shares[k % c.shares.size()];
            stepped.setShares(s);
            free_run.setShares(s);
            ref.setShares(s);
        }
    }
    return "";
}

/** Shrink a case failing under @p m: cut the run at its first
 *  divergence and halve it, then default the geometry, policy, share
 *  schedule and thread profiles, cutting again after each knob. */
SmtCase
shrinkSmtCase(const SmtCase &c, SmtMutation m)
{
    const auto cut = [m](SmtCase &t) {
        uint64_t at = t.cycles;
        diffSmtCase(t, m, &at);
        if (at >= t.cycles)
            return false;
        t.cycles = at;
        return true;
    };
    const std::vector<std::function<void(SmtCase &)>> defaults = {
        [](SmtCase &t) { t.config = SmtConfig{}; },
        [](SmtCase &t) { t.policy = icountPolicy(); },
        [](SmtCase &t) { t.shares.clear(); },
        [](SmtCase &t) { t.epoch = t.cycles; },
        [](SmtCase &t) { t.apps[0] = SmtAppParams{.name = t.apps[0].name}; },
        [](SmtCase &t) { t.apps[1] = SmtAppParams{.name = t.apps[1].name}; },
    };
    std::vector<std::function<void(SmtCase &)>> knobs;
    for (const auto &knob : defaults) {
        knobs.push_back([knob, cut](SmtCase &t) {
            knob(t);
            cut(t);
        });
    }
    return shrinkCase(
        c, [m](const SmtCase &t) { return !diffSmtCase(t, m).empty(); },
        {cut, [](SmtCase &t) { return halveAbove(t.cycles, 64); }}, knobs);
}

} // namespace

std::string
checkSmt(uint64_t seed, bool shrink)
{
    const SmtCase c = genSmtCase(seed);
    std::string err = diffSmtCase(c, SmtMutation::None);
    if (!err.empty() && shrink)
        err += "\nminimized: " +
            formatSmtCase(shrinkSmtCase(c, SmtMutation::None));
    return err;
}

std::string
describeSmt(uint64_t seed)
{
    return formatSmtCase(genSmtCase(seed));
}

/**
 * Every planted reference fault must be caught by the differential
 * within a bounded number of case seeds and shrunk to a short repro:
 * the standing proof that the domain would notice the kernel's word
 * path, dispatch or commit breaking the reference's rules.
 */
bool
selfTestSmt(uint64_t seedBase, uint64_t lane, std::string &log)
{
    constexpr int kMaxSeeds = 100;
    constexpr uint64_t kMaxShrunkCycles = 200;
    bool ok = true;
    char line[160];
    for (const SmtMutation m :
         {SmtMutation::DramSpreadOnEveryLoad, SmtMutation::SqFreedAtCommit,
          SmtMutation::DropMispredictRedirect,
          SmtMutation::CommitWidthPlusOne}) {
        bool caught = false;
        for (int i = 0; i < kMaxSeeds && !caught; ++i) {
            const SmtCase c =
                genSmtCase(subSeed(iterationSeed(seedBase, i), lane));
            if (diffSmtCase(c, m).empty())
                continue;
            caught = true;
            const SmtCase min = shrinkSmtCase(c, m);
            std::snprintf(line, sizeof line,
                          "mutant %-28s caught at seed #%d, shrunk "
                          "%llu -> %llu cycles\n",
                          toString(m), i,
                          static_cast<unsigned long long>(c.cycles),
                          static_cast<unsigned long long>(min.cycles));
            log += line;
            if (min.cycles > kMaxShrunkCycles) {
                std::snprintf(line, sizeof line,
                              "  ERROR: shrunk repro exceeds %llu cycles\n",
                              static_cast<unsigned long long>(
                                  kMaxShrunkCycles));
                log += line;
                ok = false;
            }
        }
        if (!caught) {
            std::snprintf(line, sizeof line,
                          "mutant %-28s NOT caught in %d seeds\n",
                          toString(m), kMaxSeeds);
            log += line;
            ok = false;
        }
    }
    return ok;
}

} // namespace mab::fuzz
