#include "sim/cache_store.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/atomic_file.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/fault_injector.hh"

namespace dmdc
{

namespace fs = std::filesystem;

namespace
{

/** Caps on quarantine/: corpses are kept for post-mortems, but chaos
 *  campaigns would otherwise grow it without bound. */
constexpr std::size_t kQuarantineMaxEntries = 32;
constexpr std::uint64_t kQuarantineMaxBytes = 8ull * 1024 * 1024;

/** One `*.json` file found by scanEntries(). */
struct EntryFile
{
    fs::path path;
    std::uint64_t bytes;
    fs::file_time_type mtime;
};

/**
 * The `*.json` files directly in @p dir. A missing @p dir is empty,
 * and a file that vanishes mid-scan (another process evicting or
 * quarantining it) is skipped.
 */
std::vector<EntryFile>
scanEntries(const fs::path &dir)
{
    std::vector<EntryFile> found;
    std::error_code ec;
    for (fs::directory_iterator it(
             dir, fs::directory_options::skip_permission_denied, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
        std::error_code fec;
        if (!it->is_regular_file(fec) ||
            it->path().extension() != ".json")
            continue;
        const std::uint64_t bytes = it->file_size(fec);
        const fs::file_time_type mtime = it->last_write_time(fec);
        if (!fec)
            found.push_back({it->path(), bytes, mtime});
    }
    return found;
}

std::uint64_t
totalBytes(const std::vector<EntryFile> &files)
{
    std::uint64_t total = 0;
    for (const EntryFile &f : files)
        total += f.bytes;
    return total;
}

/**
 * Remove files in LRU order (oldest mtime first, ties broken by file
 * name) while @p over(count, bytes) holds, where count and bytes
 * describe what is still on disk. A file another process already
 * removed counts as gone; one that cannot be removed stays counted.
 * Returns how many files this call removed.
 */
template <typename Over>
std::size_t
removeOldestWhile(std::vector<EntryFile> files, Over over)
{
    std::size_t count = files.size();
    std::uint64_t bytes = totalBytes(files);
    if (!over(count, bytes))
        return 0;
    std::sort(files.begin(), files.end(),
              [](const EntryFile &a, const EntryFile &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    std::size_t removed = 0;
    for (const EntryFile &f : files) {
        if (!over(count, bytes))
            break;
        std::error_code ec;
        if (fs::remove(f.path, ec))
            ++removed;
        if (ec)
            continue;
        --count;
        bytes -= f.bytes;
    }
    return removed;
}

/**
 * Set @p path's mtime from the fine clock. The kernel may stamp
 * writes from a coarse (per-tick) clock, which gives back-to-back
 * stores one identical mtime and would leave their LRU order to the
 * file-name tiebreak.
 */
void
touchNow(const std::string &path)
{
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

std::string
entryFileName(const std::string &key)
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(
                      hashBytes(key.data(), key.size())));
    return name;
}

} // namespace

CacheStore::CacheStore(CacheStoreConfig config)
    : config_(std::move(config))
{
}

std::string
CacheStore::entryPath(const std::string &key) const
{
    return config_.dir + "/" + entryFileName(key);
}

CacheStore::Load
CacheStore::load(const std::string &key, std::string &payload)
{
    std::lock_guard<std::mutex> guard(mutex_);
    const std::string path = entryPath(key);
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        ++stats_.misses;
        return Load::Miss;
    }
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    // v3 layout: a one-line CRC header followed by the JSON payload.
    //   {"dmdc_cache":3,"crc":"xxxxxxxx","len":N}\n{...payload...}\n
    if (text.empty()) {
        quarantinePath(path, "is zero-byte");
        return Load::Corrupt;
    }
    const std::size_t nl = text.find('\n');
    if (nl == std::string::npos) {
        quarantinePath(path, "has no header line");
        return Load::Corrupt;
    }
    const std::string headerLine = text.substr(0, nl);
    unsigned version = 0;
    char crcBuf[16] = {0};
    unsigned long long expectedLen = 0;
    if (std::sscanf(headerLine.c_str(),
                    "{\"dmdc_cache\":%u,\"crc\":\"%8[^\"]\","
                    "\"len\":%llu}",
                    &version, crcBuf, &expectedLen) != 3) {
        quarantinePath(path, "has an unrecognized header (old format?)");
        return Load::Corrupt;
    }
    if (version != kCacheFormatVersion) {
        quarantinePath(path, "has a mismatched format version");
        return Load::Corrupt;
    }
    std::string body = text.substr(nl + 1);
    if (body.size() != expectedLen) {
        quarantinePath(path, "is truncated");
        return Load::Corrupt;
    }
    const std::uint32_t expectedCrc = static_cast<std::uint32_t>(
        std::strtoul(crcBuf, nullptr, 16));
    if (crc32(body.data(), body.size()) != expectedCrc) {
        quarantinePath(path, "fails its checksum");
        return Load::Corrupt;
    }
    payload = std::move(body);
    ++stats_.hits;
    if (config_.maxBytes)
        touchNow(path); // a hit is a use: refresh its LRU position
    return Load::Hit;
}

void
CacheStore::store(const std::string &key, const std::string &payloadIn)
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    if (ec) {
        warn("cannot create cache dir '%s': %s", config_.dir.c_str(),
             ec.message().c_str());
        return;
    }

    std::string payload = payloadIn;
    char header[64];
    std::snprintf(header, sizeof(header),
                  "{\"dmdc_cache\":%u,\"crc\":\"%08x\",\"len\":%llu}\n",
                  kCacheFormatVersion,
                  crc32(payload.data(), payload.size()),
                  static_cast<unsigned long long>(payload.size()));

    // Deterministic chaos: emit a truncated payload under the intact
    // header, exactly what a torn write or disk fault produces. The
    // next reader must quarantine and recompute.
    if (FaultInjector::global().injectCacheCorrupt(key))
        payload.resize(payload.size() / 2);

    const std::string path = entryPath(key);
    // Concurrent processes share the cache directory and must never
    // observe a torn file.
    if (!writeFileAtomic(path, header + payload)) {
        warn("cannot write cache file '%s'", path.c_str());
        return;
    }
    touchNow(path);
    ++stats_.stored;
}

void
CacheStore::quarantineKey(const std::string &key, const char *reason)
{
    std::lock_guard<std::mutex> guard(mutex_);
    quarantinePath(entryPath(key), reason);
}

void
CacheStore::quarantinePath(const std::string &path, const char *reason)
{
    std::error_code ec;
    const fs::path src(path);
    const fs::path dir = fs::path(config_.dir) / "quarantine";
    fs::create_directories(dir, ec);
    fs::rename(src, dir / src.filename(), ec);
    if (ec) {
        // Rename failed (e.g. cross-device); never trust the entry —
        // drop it instead.
        fs::remove(src, ec);
    }
    warn("cache entry '%s' %s; quarantined and recomputing",
         path.c_str(), reason);
    ++stats_.quarantined;
    // Age out the oldest corpses: recent quarantines are the ones
    // someone is likely to want for a post-mortem.
    stats_.quarantineEvicted += removeOldestWhile(
        scanEntries(fs::path(config_.dir) / "quarantine"),
        [](std::size_t count, std::uint64_t bytes) {
            return count > kQuarantineMaxEntries ||
                   bytes > kQuarantineMaxBytes;
        });
}

std::size_t
CacheStore::evictToCap()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (!config_.maxBytes)
        return 0;
    const std::size_t evicted = removeOldestWhile(
        scanEntries(config_.dir),
        [this](std::size_t, std::uint64_t bytes) {
            return bytes > config_.maxBytes;
        });
    stats_.evicted += evicted;
    return evicted;
}

std::uint64_t
CacheStore::liveBytes() const
{
    return totalBytes(scanEntries(config_.dir));
}

std::size_t
CacheStore::liveEntries() const
{
    return scanEntries(config_.dir).size();
}

} // namespace dmdc
