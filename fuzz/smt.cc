#include <array>
#include <sstream>

#include "fuzz/domains.h"
#include "fuzz/shrink.h"
#include "sim/rng.h"
#include "smt/fetch_policy.h"
#include "smt/pipeline.h"
#include "smt/thread_source.h"

namespace mab::fuzz {

namespace {

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

/** First difference between two pipelines' observable state. */
std::string
diffSmtState(const SmtPipeline &a, const SmtPipeline &b)
{
    std::ostringstream os;
    const auto cmp = [&os](const char *what, int t, uint64_t x,
                           uint64_t y) {
        if (x != y && os.tellp() == 0) {
            os << what;
            if (t >= 0)
                os << " (thread " << t << ")";
            os << ": stepped " << x << " vs free-running " << y;
        }
    };
    cmp("cycles", -1, a.cycles(), b.cycles());
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        cmp("committed", t, a.committed(t), b.committed(t));
        cmp("fetched", t, a.fetched(t), b.fetched(t));
        cmp("iqUsed", t, a.iqUsed(t), b.iqUsed(t));
        cmp("robUsed", t, a.robUsed(t), b.robUsed(t));
        cmp("lqUsed", t, a.lqUsed(t), b.lqUsed(t));
        cmp("sqUsed", t, a.sqUsed(t), b.sqUsed(t));
        cmp("irfUsed", t, a.irfUsed(t), b.irfUsed(t));
        cmp("frfUsed", t, a.frfUsed(t), b.frfUsed(t));
        cmp("branchesInRob", t, a.branchesInRob(t), b.branchesInRob(t));
    }
    const RenameStats &x = a.renameStats();
    const RenameStats &y = b.renameStats();
    cmp("rename.stallRob", -1, x.stallRob, y.stallRob);
    cmp("rename.stallIq", -1, x.stallIq, y.stallIq);
    cmp("rename.stallLq", -1, x.stallLq, y.stallLq);
    cmp("rename.stallSq", -1, x.stallSq, y.stallSq);
    cmp("rename.stallRf", -1, x.stallRf, y.stallRf);
    cmp("rename.stalled", -1, x.stalled, y.stalled);
    cmp("rename.idle", -1, x.idle, y.idle);
    cmp("rename.running", -1, x.running, y.running);
    cmp("rename.cycles", -1, x.cycles, y.cycles);
    return os.str();
}

/**
 * Drive one SmtPipeline with advance(1) and a twin with free-running
 * advance(edge - cycles()) calls, applying the same share change to
 * both at every epoch edge, and compare at each edge: cycles,
 * per-thread committed/fetched, every per-thread occupancy and all
 * RenameStats fields. Also checks that no advance overruns its limit.
 * Returns "" on agreement, else the first divergence.
 */
std::string
diffSmtCase(const SmtCase &c)
{
    ThreadSource a0(c.apps[0], c.seeds[0]), a1(c.apps[1], c.seeds[1]);
    ThreadSource b0(c.apps[0], c.seeds[0]), b1(c.apps[1], c.seeds[1]);
    SmtPipeline stepped(c.config, {&a0, &a1});
    SmtPipeline free_run(c.config, {&b0, &b1});
    stepped.setPolicy(c.policy);
    free_run.setPolicy(c.policy);
    const uint64_t epoch = std::max<uint64_t>(c.epoch, 1);
    uint64_t edge = 0;
    for (uint64_t k = 0; edge < c.cycles; ++k) {
        edge = std::min(edge + epoch, c.cycles);
        while (stepped.cycles() < edge)
            stepped.advance(1);
        while (free_run.cycles() < edge) {
            const uint64_t limit = edge - free_run.cycles();
            const uint64_t n = free_run.advance(limit);
            if (n == 0 || n > limit)
                return "advance(" + std::to_string(limit) +
                    ") moved " + std::to_string(n) + " cycles at cycle " +
                    std::to_string(free_run.cycles()) + " (" +
                    formatSmtCase(c) + ")";
        }
        const std::string err = diffSmtState(stepped, free_run);
        if (!err.empty())
            return "at edge " + std::to_string(edge) + ": " + err + " (" +
                formatSmtCase(c) + ")";
        if (!c.shares.empty()) {
            const auto &s = c.shares[k % c.shares.size()];
            stepped.setShares(s);
            free_run.setShares(s);
        }
    }
    return "";
}

/** Shrink a failing SMT case: halve the run, then default the
 *  geometry, policy, share schedule and thread profiles. */
SmtCase
shrinkSmtCase(const SmtCase &c)
{
    std::vector<std::function<void(SmtCase &)>> knobs = {
        [](SmtCase &t) { t.config = SmtConfig{}; },
        [](SmtCase &t) { t.policy = icountPolicy(); },
        [](SmtCase &t) { t.shares.clear(); },
        [](SmtCase &t) { t.epoch = t.cycles; }};
    for (int i = 0; i < SmtConfig::kThreads; ++i) {
        knobs.push_back([i](SmtCase &t) {
            SmtAppParams p;
            p.name = t.apps[i].name;
            t.apps[i] = p;
        });
    }
    return shrinkCase(
        c, [](const SmtCase &t) { return !diffSmtCase(t).empty(); },
        {[](SmtCase &t) { return halveAbove(t.cycles, 64); }}, knobs);
}

} // namespace

std::string
checkSmt(uint64_t seed, bool shrink)
{
    const SmtCase c = genSmtCase(seed);
    std::string err = diffSmtCase(c);
    if (!err.empty() && shrink)
        err += "\nminimized: " + formatSmtCase(shrinkSmtCase(c));
    return err;
}

std::string
describeSmt(uint64_t seed)
{
    return formatSmtCase(genSmtCase(seed));
}

} // namespace mab::fuzz
