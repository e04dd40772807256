#include <algorithm>
#include <chrono>

#include "fuzz/domains.h"
#include "sim/parallel.h"

namespace mab::fuzz {

namespace {

/**
 * The domain registry: adding a domain is one source file and one row
 * here. Rows run in this order within an iteration and print in this
 * order in the summary. A lane, once published, is permanent: it
 * decides which case a `bench_fuzz --replay` seed reproduces.
 */
const Domain kDomains[] = {
    {"cache", 1, checkCache, describeCache, selfTestCache},
    {"bandit", 2, checkBandit, describeBandit, nullptr},
    {"sim", 3, checkSim, describeSim, nullptr},
    // Replay checks a case of the sim generator, drawn on its own lane.
    {"replay", 64, checkReplay, describeSim, nullptr},
    {"drift", 5, checkDrift, describeDrift, nullptr},
    {"smt", 6, checkSmt, describeSmt, selfTestSmt},
    {"prefetch", 7, checkPrefetch, describePrefetch, selfTestPrefetch},
    {"generate", 8, checkGenerate, describeGenerate, selfTestGenerate},
};

} // namespace

uint64_t
subSeed(uint64_t seed, uint64_t lane)
{
    // splitmix64 over the (seed, lane) pair.
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (lane + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
iterationSeed(uint64_t seedBase, uint64_t index)
{
    return subSeed(seedBase, index);
}

std::span<const Domain>
domains()
{
    return kDomains;
}

const Domain *
findDomain(std::string_view name)
{
    for (const Domain &d : kDomains) {
        if (name == d.name)
            return &d;
    }
    return nullptr;
}

std::string
domainNames()
{
    std::string names;
    for (const Domain &d : kDomains)
        names += (names.empty() ? "" : ", ") + std::string(d.name);
    return names;
}

void
FuzzReport::merge(const FuzzReport &other)
{
    iterations += other.iterations;
    for (size_t i = 0; i < cases.size(); ++i)
        cases[i] += other.cases[i];
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
}

void
runFuzzIteration(uint64_t caseSeed, FuzzReport &report, bool shrink,
                 const std::string &domain)
{
    ++report.iterations;
    for (size_t i = 0; i < std::size(kDomains); ++i) {
        const Domain &d = kDomains[i];
        if (!domain.empty() && domain != d.name)
            continue;
        ++report.cases[i];
        std::string err = d.check(subSeed(caseSeed, d.lane), shrink);
        if (!err.empty())
            report.failures.push_back(
                {caseSeed, d.name, std::move(err),
                 "bench_fuzz --replay " + std::to_string(caseSeed) +
                     " --shrink"});
    }
}

FuzzReport
runFuzz(const FuzzOptions &opt)
{
    FuzzReport total;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    const int jobs = std::max(1, opt.jobs);
    const uint64_t batch =
        jobs <= 1 ? 16 : static_cast<uint64_t>(jobs) * 8;
    SweepRunner runner(jobs);
    uint64_t index = 0;
    while (total.ok()) {
        uint64_t count = batch;
        if (opt.maxSeconds > 0.0) {
            if (elapsed() >= opt.maxSeconds)
                break;
        } else {
            if (index >= opt.iters)
                break;
            count = std::min(batch, opt.iters - index);
        }
        const std::vector<FuzzReport> reports =
            runner.runAll<FuzzReport>(count, [&](size_t k) {
                FuzzReport r;
                runFuzzIteration(
                    iterationSeed(opt.seedBase, index + k), r,
                    opt.shrink, opt.domain);
                return r;
            });
        for (const FuzzReport &r : reports)
            total.merge(r);
        index += count;
    }
    return total;
}

} // namespace mab::fuzz
