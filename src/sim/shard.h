#ifndef MAB_SIM_SHARD_H
#define MAB_SIM_SHARD_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.h"

namespace mab {

/**
 * Multi-process sweep sharding (the bench `--shards N` fabric).
 *
 * A sweep grid's cells are embarrassingly parallel, but one process
 * caps out at the machine's cores and regenerates every trace it
 * needs. Sharding splits the *grid* across worker processes — spawned
 * by a driver run of the same binary, or launched independently (CI
 * matrix jobs, several machines over a shared filesystem) — that each
 * simulate the cells they own and emit a partial report. A merge pass
 * recombines partials into the final report.
 *
 * Deterministic partition: worker K of N owns cell i of every sweep
 * iff i % N == K. The assignment depends only on (N, K, grid), never
 * on timing, so any scheduling of the workers produces the same
 * partials.
 *
 * Byte-identical merge — the invariant the identity gate
 * (scripts/check_arena_identity.sh) enforces: the merged report equals
 * the unsharded one to the byte, modulo the meta block, at every shard
 * count. It holds by construction: per-cell results are pure functions
 * of the cell (sim/parallel.h), workers encode them losslessly
 * (integers natively, doubles as 64-bit hex bit patterns — the JSON
 * writer would round non-finite doubles to null), and the merge run
 * replays the decoded values through the binary's *own* aggregation
 * and printing code instead of reimplementing it.
 *
 * The session is process-global state configured once by
 * bench::benchShards() before any sweep runs, mirroring
 * parallelMeta():
 *
 *  - Off:    every sweep runs locally (the unsharded path).
 *  - Worker: sweeps run only their owned cells and record encoded
 *            results, in sweep call order; writePartial() emits them.
 *  - Merge:  sweeps run nothing; takeSweep() hands back each sweep's
 *            decoded cell values assembled from the loaded partials.
 */

/** Resolved sharding request: @p shards-way split, this process being
 *  worker @p shardId (-1 = not a worker: off, or the spawning driver). */
struct ShardSpec
{
    int shards = 1;
    int shardId = -1;
};

/** Lossless double transport: the bit pattern as "x%016x" hex. */
std::string encodeDouble(double v);
double decodeDouble(const std::string &s);

class ShardSession
{
  public:
    enum class Mode
    {
        Off,
        Worker,
        Merge,
    };

    static ShardSession &global();

    Mode mode() const { return mode_; }
    int shards() const { return shards_; }
    int shardId() const { return shardId_; }

    /**
     * Enter worker mode: this process owns cell i iff
     * i % @p shards == @p shardId. @p bench (the binary's basename)
     * and @p scaleHex (encodeDouble of the run scale) are stamped into
     * the partial so a merge of mismatched partials fails loudly.
     */
    void configureWorker(int shards, int shardId, std::string bench,
                         std::string scaleHex);

    /** Does this worker own cell @p index? (Off/Merge: owns all.) */
    bool owns(size_t index) const
    {
        return mode_ != Mode::Worker ||
            static_cast<int>(index % static_cast<size_t>(shards_)) ==
            shardId_;
    }

    /** The cell indices of a @p cells-cell sweep this worker owns. */
    std::vector<size_t> ownedIndices(size_t cells) const;

    /**
     * Record one executed sweep (worker mode): the full grid size, the
     * owned indices and their encoded results, in sweep call order —
     * the order is the implicit sweep identity the merge relies on,
     * exactly like the registry's submission-order aggregation.
     */
    void recordSweep(size_t cells, std::vector<size_t> indices,
                     std::vector<json::Value> values);

    /**
     * Write the worker's partial report to @p path: a `shardPartial`
     * document carrying identity (bench, scale, shards, shardId) and
     * every recorded sweep, plus @p meta for provenance. Returns false
     * with @p err set on I/O failure.
     */
    bool writePartial(const std::string &path, json::Value meta,
                      std::string *err) const;

    /**
     * Enter merge mode from the partial reports at @p paths (one per
     * shard, any order). Validates the set: consistent bench/scale/
     * shard count, every shard id present exactly once, per-sweep cell
     * counts agreeing, and the index sets of each sweep partitioning
     * its grid. Returns false with @p err set on any mismatch.
     */
    bool loadPartials(const std::vector<std::string> &paths,
                      const std::string &bench,
                      const std::string &scaleHex, std::string *err);

    /**
     * The next sweep's decoded cell values (merge mode), in cell
     * order. Throws std::runtime_error when the caller's grid size
     * disagrees with the partials or the partials hold fewer sweeps —
     * the binary and the partials must execute the same sweep
     * sequence.
     */
    std::vector<json::Value> takeSweep(size_t cells);

    /** Recorded (worker) or loaded (merge) sweep count. */
    size_t sweeps() const { return sweeps_.size(); }

    /** Back to Off and drop all state (tests). */
    void reset();

  private:
    ShardSession() = default;

    struct Sweep
    {
        size_t cells = 0;
        std::vector<size_t> indices;     ///< worker mode
        std::vector<json::Value> values; ///< worker: owned; merge: all
    };

    Mode mode_ = Mode::Off;
    int shards_ = 1;
    int shardId_ = -1;
    std::string bench_;
    std::string scaleHex_;
    std::vector<Sweep> sweeps_;
    size_t cursor_ = 0; ///< next sweep takeSweep() hands out
};

/**
 * Driver-spawn fan-out (the `--shards N` mode without `--shard-id`):
 * re-execute this binary @p shards times via /proc/self/exe with
 * `--shards N --shard-id K --json <tmp>/part-K.json` appended to
 * @p argv (its own --shards/--shard-id/--json/--merge-reports
 * stripped), workers' stdout+stderr captured to per-worker log files.
 * When @p shareArena is true (the caller's trace arena is enabled) and
 * MAB_TRACE_ARENA_DIR is unset, a temporary shared arena directory is
 * exported to the workers so they spill each trace once between them.
 * Blocks until all workers exit.
 *
 * On success returns "" and fills @p partialPaths (ordered by shard
 * id) and @p tmpDir (the caller merges, then removes the tree);
 * prints nothing — the merge run's output must stay byte-identical
 * to the unsharded run. On failure returns a diagnostic (including
 * the tail of a failed worker's log) and cleans up after itself.
 */
std::string spawnShardWorkers(int argc, char **argv, int shards,
                              bool shareArena,
                              std::vector<std::string> *partialPaths,
                              std::string *tmpDir);

} // namespace mab

#endif // MAB_SIM_SHARD_H
