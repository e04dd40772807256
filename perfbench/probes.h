#ifndef MAB_PERFBENCH_PROBES_H
#define MAB_PERFBENCH_PROBES_H

/**
 * @file
 * Outside-in timing for the traced benchmark run. Every probe here is a
 * decorator over a public layer interface (TraceSource, Prefetcher,
 * MabPolicy) or a span around a public call made from the benchmark's
 * own code; nothing inside src/ is instrumented.
 *
 * Per-call layers (trace delivery, prefetcher training, bandit
 * select/update) cost a few to a few hundred nanoseconds, comparable to
 * one steady_clock read, so they are timed on a fixed sample of calls
 * and the measured cost of an empty clock pair is subtracted. A layer's
 * total is estimated as mean sampled cost x call count.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mab_policy.h"
#include "prefetch/prefetcher.h"
#include "trace/replay.h"

namespace mab::perfbench {

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Median cost of an empty nowNs() pair, measured once per process. */
double clockOverheadNs();

/** Call count plus the summed cost of the sampled calls. */
struct SampleStats
{
    uint64_t calls = 0;
    uint64_t samples = 0;
    double sampledNs = 0.0;

    void
    add(uint64_t ns)
    {
        ++samples;
        sampledNs += static_cast<double>(ns);
    }

    SampleStats &
    operator+=(const SampleStats &o)
    {
        calls += o.calls;
        samples += o.samples;
        sampledNs += o.sampledNs;
        return *this;
    }

    /** Mean cost of one call, clock overhead removed (0 if unsampled). */
    double meanNs() const;

    /** Estimated total cost of all calls. */
    double totalNs() const { return meanNs() * static_cast<double>(calls); }
};

/**
 * TraceSource decorator timing one next() call in kPeriod. Samples
 * taken while the wrapped ReplaySource holds the arena's recorder role
 * (first-touch generation) are kept apart from replay reads.
 */
class TimedTrace final : public TraceSource
{
  public:
    static constexpr uint64_t kPeriod = 61;

    explicit TimedTrace(TraceSource &inner)
        : inner_(inner),
          replaySource_(dynamic_cast<ReplaySource *>(&inner))
    {
    }

    TraceRecord
    next() override
    {
        if (++calls_ % kPeriod != 0)
            return inner_.next();
        const uint64_t t0 = nowNs();
        const TraceRecord rec = inner_.next();
        const uint64_t dt = nowNs() - t0;
        if (replaySource_ && replaySource_->recording())
            record_.add(dt);
        else
            replay_.add(dt);
        return rec;
    }

    void reset() override { inner_.reset(); }
    const std::string &name() const override { return inner_.name(); }

    /** Replay reads; total calls apportioned by the sample split. */
    SampleStats replayStats() const { return apportion(replay_); }

    /** Recording (first-touch generating) reads. */
    SampleStats recordStats() const { return apportion(record_); }

  private:
    SampleStats apportion(SampleStats s) const;

    TraceSource &inner_;
    ReplaySource *replaySource_;
    uint64_t calls_ = 0;
    SampleStats replay_;
    SampleStats record_;
};

/** Prefetcher decorator timing one onAccess() call in kPeriod and
 *  counting the candidates every call returns. */
class TimedPrefetcher final : public Prefetcher
{
  public:
    static constexpr uint64_t kPeriod = 17;

    explicit TimedPrefetcher(Prefetcher &inner) : inner_(inner) {}

    void
    onAccess(const PrefetchAccess &access,
             std::vector<uint64_t> &out) override
    {
        const size_t before = out.size();
        if (++stats_.calls % kPeriod != 0) {
            inner_.onAccess(access, out);
        } else {
            const uint64_t t0 = nowNs();
            inner_.onAccess(access, out);
            stats_.add(nowNs() - t0);
        }
        candidates_ += out.size() - before;
    }

    std::string name() const override { return inner_.name(); }
    uint64_t storageBytes() const override { return inner_.storageBytes(); }
    void reset() override { inner_.reset(); }

    void
    attachSystemProbes(const SystemProbes &probes) override
    {
        inner_.attachSystemProbes(probes);
    }

    const SampleStats &stats() const { return stats_; }
    uint64_t candidates() const { return candidates_; }

  private:
    Prefetcher &inner_;
    SampleStats stats_;
    uint64_t candidates_ = 0;
};

/**
 * MabPolicy decorator timing selectArm() and observeReward() of one
 * step in kPeriod, and counting arm switches. Only the two protocol
 * calls are forwarded; read the policy's own state from the wrapped
 * policy.
 */
class TimedPolicy final : public MabPolicy
{
  public:
    static constexpr uint64_t kPeriod = 13;

    explicit TimedPolicy(MabPolicy &inner)
        : MabPolicy(inner.config()), inner_(inner)
    {
    }

    ArmId
    selectArm() override
    {
        sampling_ = ++select_.calls % kPeriod == 0;
        ArmId arm = kNoArm;
        if (sampling_) {
            const uint64_t t0 = nowNs();
            arm = inner_.selectArm();
            select_.add(nowNs() - t0);
        } else {
            arm = inner_.selectArm();
        }
        if (last_ != kNoArm && arm != last_)
            ++switches_;
        last_ = arm;
        return arm;
    }

    void
    observeReward(double r_step) override
    {
        ++update_.calls;
        if (!sampling_) {
            inner_.observeReward(r_step);
            return;
        }
        const uint64_t t0 = nowNs();
        inner_.observeReward(r_step);
        update_.add(nowNs() - t0);
    }

    std::string name() const override { return inner_.name(); }

    const SampleStats &selectStats() const { return select_; }
    const SampleStats &updateStats() const { return update_; }
    uint64_t armSwitches() const { return switches_; }

  protected:
    /** Unreachable: selectArm() is forwarded whole. */
    ArmId nextArm() override { return inner_.currentArm(); }

  private:
    MabPolicy &inner_;
    SampleStats select_;
    SampleStats update_;
    bool sampling_ = false;
    ArmId last_ = kNoArm;
    uint64_t switches_ = 0;
};

} // namespace mab::perfbench

#endif // MAB_PERFBENCH_PROBES_H
