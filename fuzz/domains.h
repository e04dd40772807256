#ifndef MAB_FUZZ_DOMAINS_H
#define MAB_FUZZ_DOMAINS_H

// Entry points of the domain files for the registry table
// (fuzz/registry.cc), and the simulation helpers the sim, replay and
// drift domains share. Not part of the public fuzz API.

#include <memory>
#include <string>

#include "fuzz/fuzz.h"
#include "prefetch/prefetcher.h"

namespace mab::fuzz {

std::string checkCache(uint64_t seed, bool shrink);
std::string describeCache(uint64_t seed);
bool selfTestCache(uint64_t seedBase, uint64_t lane, std::string &log);

std::string checkBandit(uint64_t seed, bool shrink);
std::string describeBandit(uint64_t seed);

std::string checkSim(uint64_t seed, bool shrink);
std::string describeSim(uint64_t seed);

std::string checkReplay(uint64_t seed, bool shrink);

std::string checkDrift(uint64_t seed, bool shrink);
std::string describeDrift(uint64_t seed);

std::string checkSmt(uint64_t seed, bool shrink);
std::string describeSmt(uint64_t seed);
bool selfTestSmt(uint64_t seedBase, uint64_t lane, std::string &log);

std::string checkPrefetch(uint64_t seed, bool shrink);
std::string describePrefetch(uint64_t seed);
bool selfTestPrefetch(uint64_t seedBase, uint64_t lane, std::string &log);

std::string checkGenerate(uint64_t seed, bool shrink);
std::string describeGenerate(uint64_t seed);
bool selfTestGenerate(uint64_t seedBase, uint64_t lane, std::string &log);

/** The prefetcher @p c names, built by the bench harness's factory
 *  with a 50-access bandit step, so the agent takes many decisions
 *  within a short fuzz run. */
std::unique_ptr<Prefetcher> makeCasePrefetcher(const SimCase &c);

/**
 * Live generation vs materialized replay of @p c's workload over
 * c.instructions records: every field of every record, fresh and
 * again after reset() on both sides; two consumers of one trace on one
 * thread, interleaved in random bursts over at least two chunks; then
 * every exported counter of the case's CoreModel run over each source.
 * Returns "" on agreement, else the first divergence, prefixed by
 * @p label.
 */
std::string diffLiveAndReplay(const SimCase &c, const std::string &label);

} // namespace mab::fuzz

#endif // MAB_FUZZ_DOMAINS_H
