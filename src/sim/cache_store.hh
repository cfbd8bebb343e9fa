/**
 * @file
 * The `.dmdc_cache/` storage engine.
 *
 * The directory is the index. Each key is one CRC-framed JSON file
 * (`<hash>.json`), published with an atomic rename and quarantined to
 * `quarantine/` when damaged; nothing else is written to the cache
 * directory and there are no lock files. Content reads never trust
 * anything but the entry itself: load() opens the file and verifies
 * its CRC frame, so a process can share the directory with writers it
 * has never synchronized with. That is what makes one warm cache
 * safely shareable by shard workers, bench binaries, and the
 * dmdc_serve daemon at the same time.
 *
 * The `--cache-max-mb` cap is LRU by file mtime: store() and capped
 * hits stamp the entry's mtime from the fine clock, and evictToCap()
 * (run after each campaign) scans `*.json` and removes the oldest
 * entries until the rest fit. Uncapped stores never scan. An
 * `index.log`/`index.lock` (or `tickets.log`) pair left by an older
 * build is inert and may be deleted.
 */

#ifndef DMDC_SIM_CACHE_STORE_HH
#define DMDC_SIM_CACHE_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>

namespace dmdc
{

/**
 * On-disk run-cache format version. Bump when the key schema or the
 * entry JSON layout changes; mismatched entries quarantine and
 * recompute. v3: entries carry a CRC32 header line.
 */
constexpr unsigned kCacheFormatVersion = 3;

/** Knobs of one CacheStore (a strict subset of CampaignConfig). */
struct CacheStoreConfig
{
    /** Directory holding entries and quarantine/. Nothing is created
     *  until the first store or quarantine. */
    std::string dir = ".dmdc_cache";

    /** Live-entry byte cap enforced by evictToCap(); LRU entries go
     *  first. 0 = unlimited (and hits skip the mtime touch). */
    std::uint64_t maxBytes = 0;
};

/** Monotonic operation counters (lifetime of this store instance). */
struct CacheStoreStats
{
    std::size_t hits = 0;        ///< frame-verified entry reads
    std::size_t misses = 0;      ///< absent entries
    std::size_t stored = 0;      ///< entries published
    std::size_t quarantined = 0; ///< damaged entries set aside
    std::size_t evicted = 0;     ///< entries removed by the byte cap
    std::size_t quarantineEvicted = 0; ///< quarantine files aged out
};

/**
 * One shared-directory cache store. Thread-safe: campaign workers
 * store concurrently, and any number of processes may point a store
 * at the same directory.
 */
class CacheStore
{
  public:
    explicit CacheStore(CacheStoreConfig config);

    /** Outcome of a load() probe. */
    enum class Load
    {
        Hit,    ///< @p payload holds the verified entry body
        Miss,   ///< no entry on disk
        Corrupt ///< entry was damaged; quarantined and forgotten
    };

    /**
     * Probe @p key. On Hit, @p payload receives the entry body (the
     * bytes that were stored), already CRC- and length-verified.
     * Callers still own payload-level validation (key match, schema);
     * use quarantineKey() when that deeper check fails.
     */
    Load load(const std::string &key, std::string &payload);

    /**
     * Publish @p payload under @p key: CRC-framed, written atomically
     * (two fsyncs: the entry and its directory), its mtime stamped
     * for LRU. Never evicts; see evictToCap().
     */
    void store(const std::string &key, const std::string &payload);

    /** Quarantine the entry of @p key (payload-level corruption found
     *  by the caller after a frame-valid load). */
    void quarantineKey(const std::string &key, const char *reason);

    /**
     * Evict entries, oldest mtime first (ties by file name), until
     * live bytes fit the cap. One directory scan, and none at all
     * when uncapped; files another process already removed are
     * skipped. Returns the number of entries this call removed.
     */
    std::size_t evictToCap();

    /** Totals over the `*.json` entries on disk (0 when the
     *  directory does not exist). */
    std::uint64_t liveBytes() const;
    std::size_t liveEntries() const;

    const CacheStoreStats &stats() const { return stats_; }
    const CacheStoreConfig &config() const { return config_; }

    /** Entry file path of @p key (hash-named inside dir). */
    std::string entryPath(const std::string &key) const;

  private:
    /** Move a damaged entry to quarantine/ and apply its caps. Assumes
     *  mutex_ is held. */
    void quarantinePath(const std::string &path, const char *reason);

    CacheStoreConfig config_;
    CacheStoreStats stats_;
    std::mutex mutex_;
};

} // namespace dmdc

#endif // DMDC_SIM_CACHE_STORE_HH
