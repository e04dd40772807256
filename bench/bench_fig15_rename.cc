/**
 * Figure 15: rename-stage activity breakdown (stalled by ROB / IQ /
 * LQ / SQ / RF, stalled-any, idle, running) for the Choi policy and
 * the Bandit, averaged over the SMT mixes.
 *
 * Paper: Bandit cuts both rename stalls (notably SQ-full stalls,
 * thanks to LSQ-aware arms) and idle cycles (less conservative
 * gating), raising the running fraction by ~2.6%.
 */
#include <array>

#include "common.h"
#include "smt/smt_sim.h"

using namespace mab;
using namespace mab::bench;

namespace {

struct Breakdown
{
    double rob = 0, iq = 0, lq = 0, sq = 0, rf = 0;
    double stalled = 0, idle = 0, running = 0;

    void
    add(const RenameStats &s)
    {
        const double n = static_cast<double>(std::max<uint64_t>(
            s.cycles, 1));
        rob += 100.0 * static_cast<double>(s.stallRob) / n;
        iq += 100.0 * static_cast<double>(s.stallIq) / n;
        lq += 100.0 * static_cast<double>(s.stallLq) / n;
        sq += 100.0 * static_cast<double>(s.stallSq) / n;
        rf += 100.0 * static_cast<double>(s.stallRf) / n;
        stalled += 100.0 * static_cast<double>(s.stalled) / n;
        idle += 100.0 * static_cast<double>(s.idle) / n;
        running += 100.0 * static_cast<double>(s.running) / n;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    SmtRunConfig run_cfg;
    run_cfg.maxCycles = scaled(600'000);

    const auto mixes = smtMixes(226);

    // One task per mix: both regime runs on the task's simulator.
    struct MixStats
    {
        RenameStats choi;
        RenameStats bandit;
    };
    const std::vector<MixStats> results = sweepMap<MixStats>(
        jobs, mixes.size(), [&](size_t i) {
            const auto &[a, b] = mixes[i];
            SmtSimulator sim(a, b, run_cfg);
            MixStats s;
            s.choi = sim.runStatic(choiPolicy()).rename;
            s.bandit = sim.runBandit().rename;
            return s;
        });

    Breakdown choi, bandit;
    for (const MixStats &s : results) {
        choi.add(s.choi);
        bandit.add(s.bandit);
    }

    const double n = static_cast<double>(mixes.size());
    std::printf("Figure 15: rename-stage cycle breakdown (%% of "
                "cycles, avg over %zu mixes)\n", mixes.size());
    std::printf("%-9s %8s %8s %8s %8s %8s %9s %8s %8s\n", "", "ROB",
                "IQ", "LQ", "SQ", "RF", "stalled", "idle", "running");
    rule(80);
    std::printf("%-9s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.1f%% "
                "%7.1f%% %7.1f%%\n", "Choi", choi.rob / n, choi.iq / n,
                choi.lq / n, choi.sq / n, choi.rf / n, choi.stalled / n,
                choi.idle / n, choi.running / n);
    std::printf("%-9s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.1f%% "
                "%7.1f%% %7.1f%%\n", "Bandit", bandit.rob / n,
                bandit.iq / n, bandit.lq / n, bandit.sq / n,
                bandit.rf / n, bandit.stalled / n, bandit.idle / n,
                bandit.running / n);
    rule(80);
    std::printf("running delta: %+.1f%% (paper: +2.6%%; Bandit cuts "
                "SQ-full stalls and idle/gating cycles)\n",
                (bandit.running - choi.running) / n);
    return 0;
}
