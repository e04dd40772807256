#ifndef MAB_TRACE_ARENA_FILE_H
#define MAB_TRACE_ARENA_FILE_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/generator.h"
#include "trace/replay.h"

namespace mab {
namespace arena_file {

/**
 * On-disk persistence of materialized traces (MAB_TRACE_ARENA_DIR).
 *
 * One file per (workload fingerprint, instruction count) pair, named
 * by a hash of the arena key and laid out for mmap replay:
 *
 *   offset  size  field
 *   ------  ----  -----
 *        0     4  magic "MABA"
 *        4     4  format version (u32, currently 2)
 *        8     8  record count (u64)
 *       16     8  payload checksum (u64, FNV-1a over payload words)
 *       24     4  key length (u32)
 *       28     4  payload offset (u32, = keyLen + 32 rounded up to 16)
 *       32     -  key bytes (the exact arena key, fingerprint#count)
 *   payload  n*8  PackedRecords (one 64-bit word each, see
 *                 trace/replay.h), 16-byte aligned
 *
 * Version 1 files (16-byte records) fail the version check and are
 * regenerated like any other Rejected file.
 *
 * The full arena key is stored and compared verbatim on load — the
 * hashed filename only locates the file, it never decides identity —
 * so a loaded payload can only ever be the workload asked for.
 * tryLoad() re-validates everything (magic, version, key, count,
 * exact file size, checksum) and reports a corrupt or foreign file as
 * Rejected so the caller regenerates; it never throws on bad bytes.
 *
 * save() writes to a process-unique temp name in the same directory
 * and publishes with std::rename, so concurrent writers race benignly
 * (both write identical bytes; the loser's rename simply replaces the
 * winner's file) and readers can never observe a partial file.
 */

enum class LoadStatus
{
    Ok,      ///< trace mapped and fully validated
    NoFile,  ///< nothing on disk for this key (clean cold start)
    Rejected ///< present but invalid: truncated, corrupt, stale
             ///< version or wrong key — caller must regenerate
};

struct LoadResult
{
    LoadStatus status = LoadStatus::NoFile;
    std::shared_ptr<MaterializedTrace> trace; ///< set iff Ok
};

/** The file a trace with arena key @p key lives at under @p dir. */
std::string filePath(const std::string &dir, const std::string &key);

/**
 * mmap and validate the trace for (@p key, @p profile, @p count)
 * under @p dir. The mapping is read-only and owned by the returned
 * MaterializedTrace (unmapped with the last shared_ptr).
 */
LoadResult tryLoad(const std::string &dir, const std::string &key,
                   const AppProfile &profile, uint64_t count);

/**
 * Spill the fully-materialized @p trace under @p dir (created if
 * absent) as key @p key. Returns false — never throws — when the
 * trace is incomplete or any filesystem step fails; the arena then
 * simply stays in-memory for this run.
 */
bool save(const std::string &dir, const std::string &key,
          const MaterializedTrace &trace);

} // namespace arena_file
} // namespace mab

#endif // MAB_TRACE_ARENA_FILE_H
