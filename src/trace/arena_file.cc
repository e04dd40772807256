#include "trace/arena_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define MAB_ARENA_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mab {
namespace arena_file {
namespace {

constexpr char kMagic[4] = {'M', 'A', 'B', 'A'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytes = 32;

/** Header scatter/gather in the host's byte order (arena files are
 *  per-machine caches, not interchange — a foreign-endian file fails
 *  the checksum). */
struct Header
{
    uint64_t count = 0;
    uint64_t checksum = 0;
    uint32_t keyLen = 0;
    uint32_t payloadOffset = 0;
};

uint32_t
payloadOffsetFor(size_t keyLen)
{
    return static_cast<uint32_t>((kHeaderBytes + keyLen + 15) & ~15ull);
}

/** FNV-1a folded over the payload's 64-bit words, one per
 *  PackedRecord. */
uint64_t
checksumWords(const uint64_t *words, uint64_t n, uint64_t h)
{
    for (uint64_t i = 0; i < n; ++i) {
        h ^= words[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t
fnv1a(const std::string &s, uint64_t h)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

#ifdef MAB_ARENA_MMAP
/** RAII mapping: keeps the file's pages alive for every ReplaySource
 *  still holding the MaterializedTrace built over them. */
class MappedFile final : public PayloadOwner
{
  public:
    MappedFile(void *base, size_t len) : base_(base), len_(len) {}
    ~MappedFile() override { ::munmap(base_, len_); }
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

  private:
    void *base_;
    size_t len_;
};
#endif

/** Heap fallback when mmap is unavailable: the payload is read into
 *  one contiguous allocation the owner keeps alive. */
class HeapPayload final : public PayloadOwner
{
  public:
    explicit HeapPayload(uint64_t records)
        : buf_(records ? new PackedRecord[records] : nullptr)
    {
    }
    PackedRecord *data() { return buf_.get(); }

  private:
    std::unique_ptr<PackedRecord[]> buf_;
};

} // namespace

std::string
filePath(const std::string &dir, const std::string &key)
{
    // Two independent FNV passes (different bases) name the file;
    // identity is still decided by the key stored *inside* it, so a
    // name collision degrades to a Rejected load, never a wrong trace.
    const uint64_t h1 = fnv1a(key, kFnvBasis);
    const uint64_t h2 = fnv1a(key, h1 ^ 0x9e3779b97f4a7c15ull);
    char name[48];
    std::snprintf(name, sizeof(name), "trace-%016llx%016llx.maba",
                  static_cast<unsigned long long>(h1),
                  static_cast<unsigned long long>(h2));
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += name;
    return path;
}

LoadResult
tryLoad(const std::string &dir, const std::string &key,
        const AppProfile &profile, uint64_t count)
{
    const std::string path = filePath(dir, key);
    LoadResult res;

#ifdef MAB_ARENA_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        res.status = errno == ENOENT ? LoadStatus::NoFile
                                     : LoadStatus::Rejected;
        return res;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
        static_cast<uint64_t>(st.st_size) < kHeaderBytes) {
        ::close(fd);
        res.status = LoadStatus::Rejected;
        return res;
    }
    const size_t len = static_cast<size_t>(st.st_size);
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping holds its own reference
    if (base == MAP_FAILED) {
        res.status = LoadStatus::Rejected;
        return res;
    }
    auto owner = std::make_shared<MappedFile>(base, len);
    const unsigned char *bytes =
        static_cast<const unsigned char *>(base);

    Header h;
    if (std::memcmp(bytes, kMagic, 4) != 0) {
        res.status = LoadStatus::Rejected;
        return res;
    }
    uint32_t version = 0;
    std::memcpy(&version, bytes + 4, 4);
    std::memcpy(&h.count, bytes + 8, 8);
    std::memcpy(&h.checksum, bytes + 16, 8);
    std::memcpy(&h.keyLen, bytes + 24, 4);
    std::memcpy(&h.payloadOffset, bytes + 28, 4);

    // Every field re-validated against what the caller *wants*, not
    // what the file claims: a stale version, a foreign workload, a
    // truncated tail and a flipped payload bit all land in Rejected.
    if (version != kVersion || h.count != count ||
        h.keyLen != key.size() ||
        h.payloadOffset != payloadOffsetFor(key.size()) ||
        len != h.payloadOffset + count * sizeof(PackedRecord) ||
        std::memcmp(bytes + kHeaderBytes, key.data(), key.size()) !=
            0) {
        res.status = LoadStatus::Rejected;
        return res;
    }
    const uint64_t *words = reinterpret_cast<const uint64_t *>(
        bytes + h.payloadOffset);
    if (checksumWords(words, count, kFnvBasis) != h.checksum) {
        res.status = LoadStatus::Rejected;
        return res;
    }

    res.status = LoadStatus::Ok;
    res.trace = std::make_shared<MaterializedTrace>(
        profile, count,
        reinterpret_cast<const PackedRecord *>(bytes +
                                               h.payloadOffset),
        std::move(owner));
    return res;
#else
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) {
        res.status = LoadStatus::NoFile;
        return res;
    }
    unsigned char head[kHeaderBytes];
    if (std::fread(head, 1, sizeof(head), f.get()) != sizeof(head) ||
        std::memcmp(head, kMagic, 4) != 0) {
        res.status = LoadStatus::Rejected;
        return res;
    }
    Header h;
    uint32_t version = 0;
    std::memcpy(&version, head + 4, 4);
    std::memcpy(&h.count, head + 8, 8);
    std::memcpy(&h.checksum, head + 16, 8);
    std::memcpy(&h.keyLen, head + 24, 4);
    std::memcpy(&h.payloadOffset, head + 28, 4);
    std::string storedKey(h.keyLen, '\0');
    if (version != kVersion || h.count != count ||
        h.keyLen != key.size() ||
        h.payloadOffset != payloadOffsetFor(key.size()) ||
        std::fread(storedKey.data(), 1, h.keyLen, f.get()) !=
            h.keyLen ||
        storedKey != key ||
        std::fseek(f.get(), static_cast<long>(h.payloadOffset),
                   SEEK_SET) != 0) {
        res.status = LoadStatus::Rejected;
        return res;
    }
    auto payload = std::make_shared<HeapPayload>(count);
    const size_t want =
        static_cast<size_t>(count) * sizeof(PackedRecord);
    if (std::fread(payload->data(), 1, want, f.get()) != want ||
        std::fgetc(f.get()) != EOF) {
        res.status = LoadStatus::Rejected;
        return res;
    }
    if (checksumWords(
            reinterpret_cast<const uint64_t *>(payload->data()), count,
            kFnvBasis) != h.checksum) {
        res.status = LoadStatus::Rejected;
        return res;
    }
    const PackedRecord *data = payload->data();
    res.status = LoadStatus::Ok;
    res.trace = std::make_shared<MaterializedTrace>(
        profile, count, data, std::move(payload));
    return res;
#endif
}

bool
save(const std::string &dir, const std::string &key,
     const MaterializedTrace &trace)
{
    if (trace.available() < trace.size())
        return false; // only complete traces are spilled
    const uint64_t count = trace.size();

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return false;

    // First pass: checksum the payload chunk by chunk, so the header
    // can be written before the records.
    uint64_t checksum = kFnvBasis;
    for (uint64_t c = 0; c < trace.numChunks(); ++c) {
        checksum = checksumWords(
            reinterpret_cast<const uint64_t *>(trace.chunkPtr(c)),
            trace.chunkLength(c), checksum);
    }

    const std::string path = filePath(dir, key);
    std::string tmp = path;
    tmp += ".tmp.";
#ifdef MAB_ARENA_MMAP
    tmp += std::to_string(static_cast<long long>(::getpid()));
#else
    tmp += "w";
#endif

    {
        FilePtr f(std::fopen(tmp.c_str(), "wb"));
        if (!f)
            return false;
        const uint32_t payloadOffset = payloadOffsetFor(key.size());
        unsigned char head[kHeaderBytes] = {};
        std::memcpy(head, kMagic, 4);
        std::memcpy(head + 4, &kVersion, 4);
        std::memcpy(head + 8, &count, 8);
        std::memcpy(head + 16, &checksum, 8);
        const uint32_t keyLen = static_cast<uint32_t>(key.size());
        std::memcpy(head + 24, &keyLen, 4);
        std::memcpy(head + 28, &payloadOffset, 4);

        const std::vector<unsigned char> pad(
            payloadOffset - kHeaderBytes - key.size(), 0);
        bool ok =
            std::fwrite(head, 1, sizeof(head), f.get()) ==
                sizeof(head) &&
            std::fwrite(key.data(), 1, key.size(), f.get()) ==
                key.size() &&
            (pad.empty() ||
             std::fwrite(pad.data(), 1, pad.size(), f.get()) ==
                 pad.size());
        for (uint64_t c = 0; ok && c < trace.numChunks(); ++c) {
            const size_t bytes = static_cast<size_t>(
                trace.chunkLength(c) * sizeof(PackedRecord));
            ok = std::fwrite(trace.chunkPtr(c), 1, bytes, f.get()) ==
                bytes;
        }
        if (!ok || std::fflush(f.get()) != 0) {
            f.reset();
            std::remove(tmp.c_str());
            return false;
        }
    }

    // Atomic publish: a racing writer produced identical bytes (same
    // key, deterministic generator), so last-rename-wins is benign.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace arena_file
} // namespace mab
