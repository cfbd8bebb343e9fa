/**
 * @file
 * Tests of the cache storage engine (sim/cache_store.hh): directory
 * totals, mtime-LRU eviction, the two-fsync store, the quarantine
 * caps, inert legacy index files, threads sharing one store, and —
 * the part that cannot be faked in-process — two real processes
 * sharing one directory: simultaneous same-key writers and a reader
 * racing an evictor must see no torn entry and quarantine nothing
 * that isn't corrupt.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "sim/cache_store.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

std::size_t
countEntries(const std::string &dir)
{
    std::size_t n = 0;
    if (!fs::exists(dir))
        return 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".json")
            ++n;
    }
    return n;
}

CacheStoreConfig
storeConfig(const std::string &dir, std::uint64_t maxBytes = 0)
{
    CacheStoreConfig cfg;
    cfg.dir = dir;
    cfg.maxBytes = maxBytes;
    return cfg;
}

class CacheStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::string("cache_store_test_") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()->name();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(CacheStoreTest, StoreLoadRoundTrip)
{
    CacheStore store(storeConfig(dir_));
    const std::string payload = "{\"v\":1,\"data\":\"hello\"}";
    store.store("key-a", payload);

    std::string out;
    EXPECT_EQ(store.load("key-a", out), CacheStore::Load::Hit);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(store.load("key-b", out), CacheStore::Load::Miss);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.liveEntries(), 1u);
}

TEST_F(CacheStoreTest, RunningByteTotalMatchesDirectory)
{
    CacheStore store(storeConfig(dir_));
    for (int i = 0; i < 5; ++i)
        store.store("key-" + std::to_string(i),
                    std::string(100 + i, 'x'));

    std::uintmax_t on_disk = 0;
    for (const auto &e : fs::directory_iterator(dir_)) {
        if (e.path().extension() == ".json")
            on_disk += fs::file_size(e.path());
    }
    EXPECT_EQ(store.liveBytes(), on_disk);
    EXPECT_EQ(store.liveEntries(), 5u);
}

TEST_F(CacheStoreTest, EvictionUsesIndexNotDirectoryScans)
{
    CacheStore store(storeConfig(dir_, /*maxBytes=*/1));
    for (int i = 0; i < 4; ++i)
        store.store("key-" + std::to_string(i),
                    std::string(64, 'p'));
    store.evictToCap();

    // A 1-byte cap can hold nothing: one eviction pass empties the
    // directory, and the totals must agree with it.
    EXPECT_EQ(countEntries(dir_), 0u);
    EXPECT_EQ(store.liveBytes(), 0u);
    EXPECT_GE(store.stats().evicted, 3u);
}

TEST_F(CacheStoreTest, StoreSyncsEntryAndDirectoryOnly)
{
    const bool was = durableSyncEnabled();
    setDurableSync(true);
    CacheStore store(storeConfig(dir_));
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t before = durableSyncCount();
        store.store("key-" + std::to_string(i), "payload");
        // The entry's temp file and the directory's rename entry.
        EXPECT_EQ(durableSyncCount(), before + 2) << "store " << i;
    }
    setDurableSync(was);

    // Nothing but entries: no index, no lock files.
    for (const auto &e : fs::directory_iterator(dir_)) {
        EXPECT_TRUE(e.is_regular_file()) << e.path();
        EXPECT_EQ(e.path().extension(), ".json") << e.path();
    }
    EXPECT_EQ(countEntries(dir_), 3u);
}

TEST_F(CacheStoreTest, LruEvictsOldestFirst)
{
    CacheStore store(storeConfig(dir_));
    store.store("old", std::string(64, 'a'));
    store.store("mid", std::string(64, 'b'));
    store.store("new", std::string(64, 'c'));

    // Touch "old" so "mid" becomes the least recently used entry.
    // Touch records are only appended under a byte cap, so rebuild a
    // capped store over the same directory first. Each entry file is
    // 107 bytes (43-byte CRC header + 64-byte payload); a 250-byte
    // cap holds two of the three.
    CacheStore capped(storeConfig(dir_, /*maxBytes=*/250));
    std::string out;
    EXPECT_EQ(capped.load("old", out), CacheStore::Load::Hit);
    capped.evictToCap();

    EXPECT_EQ(capped.load("old", out), CacheStore::Load::Hit);
    EXPECT_EQ(capped.load("mid", out), CacheStore::Load::Miss);
}

TEST_F(CacheStoreTest, StoreStampsFineClockMtime)
{
    // Without fsyncs, back-to-back stores land within one tick of the
    // kernel's coarse file clock. Their LRU order must still be their
    // store order, so each store stamps its mtime from the fine clock.
    const bool was = durableSyncEnabled();
    setDurableSync(false);
    CacheStore store(storeConfig(dir_));
    constexpr int kStores = 8;
    for (int i = 0; i < kStores; ++i)
        store.store("key-" + std::to_string(i), "payload");
    setDurableSync(was);

    fs::file_time_type last = fs::file_time_type::min();
    for (int i = 0; i < kStores; ++i) {
        const fs::file_time_type mtime = fs::last_write_time(
            store.entryPath("key-" + std::to_string(i)));
        EXPECT_GT(mtime, last) << "store " << i;
        last = mtime;
    }
}

TEST_F(CacheStoreTest, LegacyIndexFilesAreInert)
{
    // Older builds kept an index log, its lock file and a daemon
    // ticket log beside the entries. None of them may confuse a
    // store, and eviction must never remove them.
    {
        CacheStore store(storeConfig(dir_));
        store.store("key-a", "payload-a");
        store.store("key-b", "payload-b");
    }
    const char *legacy[] = {"index.log", "index.lock", "tickets.log"};
    for (const char *name : legacy)
        std::ofstream(fs::path(dir_) / name) << "{\"v\":1,garbage\n";

    CacheStore fresh(storeConfig(dir_, /*maxBytes=*/1));
    std::string out;
    EXPECT_EQ(fresh.load("key-a", out), CacheStore::Load::Hit);
    EXPECT_EQ(out, "payload-a");
    EXPECT_EQ(fresh.load("key-b", out), CacheStore::Load::Hit);
    EXPECT_EQ(fresh.liveEntries(), 2u);

    EXPECT_EQ(fresh.evictToCap(), 2u);
    EXPECT_EQ(fresh.liveEntries(), 0u);
    EXPECT_EQ(fresh.liveBytes(), 0u);
    for (const char *name : legacy)
        EXPECT_TRUE(fs::exists(fs::path(dir_) / name)) << name;
    EXPECT_EQ(fresh.stats().quarantined, 0u);
}

TEST_F(CacheStoreTest, MissingDirectoryIsEmpty)
{
    CacheStore store(storeConfig(dir_, /*maxBytes=*/1));
    EXPECT_EQ(store.liveEntries(), 0u);
    EXPECT_EQ(store.liveBytes(), 0u);
    EXPECT_EQ(store.evictToCap(), 0u);
    std::string out;
    EXPECT_EQ(store.load("key-a", out), CacheStore::Load::Miss);
    // Probes create nothing.
    EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(CacheStoreTest, SiblingInstanceSeesStores)
{
    // Two in-process instances model two processes politely taking
    // turns: writes through one are visible to the other at once,
    // because the directory is the only shared state.
    CacheStore a(storeConfig(dir_));
    CacheStore b(storeConfig(dir_));
    a.store("key-a", "payload-a");

    std::string out;
    EXPECT_EQ(b.load("key-a", out), CacheStore::Load::Hit);
    EXPECT_EQ(out, "payload-a");
    b.store("key-b", "payload-b");
    EXPECT_EQ(a.load("key-b", out), CacheStore::Load::Hit);
    EXPECT_EQ(a.liveEntries(), 2u);
    EXPECT_EQ(b.liveEntries(), 2u);
}

TEST_F(CacheStoreTest, DamagedEntryQuarantined)
{
    CacheStore store(storeConfig(dir_));
    store.store("key-a", "{\"v\":1,\"data\":\"abcdefgh\"}");

    // Damage the entry in place (flip payload bytes, keep the size).
    fs::path victim;
    for (const auto &e : fs::directory_iterator(dir_)) {
        if (e.path().extension() == ".json")
            victim = e.path();
    }
    ASSERT_FALSE(victim.empty());
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-4, std::ios::end);
    f.write("!!!!", 4);
    f.close();

    CacheStore fresh(storeConfig(dir_));
    std::string out;
    EXPECT_EQ(fresh.load("key-a", out), CacheStore::Load::Corrupt);
    EXPECT_EQ(fresh.stats().quarantined, 1u);
    EXPECT_EQ(countEntries(dir_), 0u);
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));
    // Quarantined means forgotten: the next probe is a clean miss.
    EXPECT_EQ(fresh.load("key-a", out), CacheStore::Load::Miss);
}

TEST_F(CacheStoreTest, QuarantineCapAgesOutOldestFiles)
{
    // 33 damaged tiny entries, each a minute older than the next:
    // the 32-file cap keeps every corpse but the oldest.
    CacheStore store(storeConfig(dir_));
    fs::create_directories(dir_);
    const auto now = fs::file_time_type::clock::now();
    constexpr int kDamaged = 33;
    for (int i = 0; i < kDamaged; ++i) {
        const std::string path = store.entryPath("key-" +
                                                 std::to_string(i));
        std::ofstream(path) << "ruined";
        fs::last_write_time(path,
                            now - std::chrono::minutes(kDamaged - i));
    }
    std::string out;
    for (int i = kDamaged - 1; i >= 0; --i) {
        EXPECT_EQ(store.load("key-" + std::to_string(i), out),
                  CacheStore::Load::Corrupt);
    }
    const fs::path quarantine = fs::path(dir_) / "quarantine";
    EXPECT_EQ(store.stats().quarantined, 33u);
    EXPECT_EQ(store.stats().quarantineEvicted, 1u);
    EXPECT_EQ(countEntries(quarantine.string()), 32u);
    EXPECT_FALSE(fs::exists(
        quarantine / fs::path(store.entryPath("key-0")).filename()));
    EXPECT_TRUE(fs::exists(
        quarantine / fs::path(store.entryPath("key-1")).filename()));
}

TEST_F(CacheStoreTest, OversizedCorpseLeavesQuarantineEmpty)
{
    // One damaged entry above the 8 MiB byte cap is aged out at once.
    CacheStore store(storeConfig(dir_));
    fs::create_directories(dir_);
    std::ofstream(store.entryPath("big"))
        << std::string(8 * 1024 * 1024 + 1, 'x');
    std::string out;
    EXPECT_EQ(store.load("big", out), CacheStore::Load::Corrupt);
    EXPECT_EQ(store.stats().quarantineEvicted, 1u);
    EXPECT_TRUE(fs::is_empty(fs::path(dir_) / "quarantine"));
}

TEST_F(CacheStoreTest, ThreadsShareOneStore)
{
    // Campaign workers share their runner's store: four threads
    // store, load and evict through one capped instance. No load may
    // see a torn or foreign entry, and nothing is quarantined.
    const bool was = durableSyncEnabled();
    setDurableSync(false);
    CacheStore store(storeConfig(dir_, /*maxBytes=*/600));
    constexpr int kThreads = 4;
    constexpr int kIters = 40;
    std::vector<int> bad(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &bad, t] {
            std::string out;
            for (int i = 0; i < kIters; ++i) {
                const std::string key = "key-" + std::to_string(i % 6);
                const std::string payload = "payload-" + key;
                store.store(key, payload);
                const CacheStore::Load r = store.load(key, out);
                if (r == CacheStore::Load::Corrupt ||
                    (r == CacheStore::Load::Hit && out != payload))
                    ++bad[t];
                store.evictToCap();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    setDurableSync(was);

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
    EXPECT_EQ(store.stats().quarantined, 0u);
    EXPECT_EQ(store.stats().stored,
              static_cast<std::size_t>(kThreads * kIters));
    EXPECT_LE(store.liveBytes(), 600u);
}

// ---- real multi-process concurrency ----------------------------------

/** Start @p child in a forked process and return its pid at once,
 *  so parent and child really run concurrently (-1 on failure). The
 *  child must _exit(), never return through gtest. */
template <typename Fn>
pid_t
startForked(Fn child)
{
    const pid_t pid = fork();
    if (pid == 0)
        child(); // must _exit()
    return pid;
}

/** Exit status of the startForked() child @p pid (-1 on failure). */
int
waitForked(pid_t pid)
{
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(CacheStoreTest, TwoProcessSameKeyWriters)
{
    // Parent and child both hammer the same keys with identical
    // payloads (the only legal concurrent-writer case: cache entries
    // are deterministic functions of their key). No load on either
    // side may ever see a torn entry, and nothing may be quarantined.
    const std::string dir = dir_;
    constexpr int kIters = 60;
    auto payloadOf = [](int i) {
        return "{\"v\":1,\"data\":\"" + std::string(20 + i % 7, 'd') +
               "\"}";
    };
    auto hammer = [&](CacheStore &store) -> int {
        std::string out;
        for (int i = 0; i < kIters; ++i) {
            const std::string key = "key-" + std::to_string(i % 3);
            const std::string payload = payloadOf(i % 3);
            store.store(key, payload);
            const CacheStore::Load r = store.load(key, out);
            if (r == CacheStore::Load::Corrupt)
                return 2;
            if (r == CacheStore::Load::Hit && out != payload)
                return 3;
        }
        return store.stats().quarantined == 0 ? 0 : 4;
    };

    const pid_t child = startForked([&] {
        CacheStore store(storeConfig(dir));
        _exit(hammer(store));
    });
    CacheStore store(storeConfig(dir));
    const int parent_status = hammer(store);
    const int child_status = waitForked(child);

    EXPECT_EQ(child_status, 0);
    EXPECT_EQ(parent_status, 0);

    CacheStore fresh(storeConfig(dir));
    std::string out;
    for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(fresh.load("key-" + std::to_string(k), out),
                  CacheStore::Load::Hit)
            << "entry " << k << " lost";
        EXPECT_EQ(out, payloadOf(k));
    }
    EXPECT_EQ(fresh.stats().quarantined, 0u);
}

TEST_F(CacheStoreTest, ReaderSurvivesConcurrentEviction)
{
    // Child evicts in a loop under a small cap while the parent keeps
    // storing and loading: an entry may vanish (a miss) but no load
    // may ever see a torn one, and nothing is quarantined.
    const std::string dir = dir_;
    constexpr int kKeys = 16;
    constexpr std::uint64_t kCap = 4 * 60; // ~4 of the 16 entries
    auto keyOf = [](int i) { return "key-" + std::to_string(i); };
    auto payloadOf = [](int i) {
        return "payload-" + std::to_string(i);
    };
    {
        CacheStore store(storeConfig(dir));
        for (int i = 0; i < kKeys; ++i)
            store.store(keyOf(i), payloadOf(i));
    }

    // The child evicts until the parent drops the stop file (or a
    // generous bound, so a dead parent cannot leave it spinning).
    const fs::path stop = dir + ".stop";
    fs::remove(stop);
    const pid_t child = startForked([&] {
        CacheStore store(storeConfig(dir, kCap));
        std::size_t evicted = 0;
        for (int iter = 0; iter < 200000 && !fs::exists(stop); ++iter)
            evicted += store.evictToCap();
        _exit(store.stats().quarantined != 0 ? 2
              : evicted == 0                 ? 3
                                             : 0);
    });

    CacheStore store(storeConfig(dir));
    std::string out;
    for (int iter = 0; iter < 40; ++iter) {
        store.store(keyOf(iter % kKeys), payloadOf(iter % kKeys));
        for (int i = 0; i < kKeys; ++i) {
            const CacheStore::Load r = store.load(keyOf(i), out);
            EXPECT_NE(r, CacheStore::Load::Corrupt);
            if (r == CacheStore::Load::Hit) {
                EXPECT_EQ(out, payloadOf(i));
            }
        }
    }
    std::ofstream(stop).put('\n');
    EXPECT_EQ(waitForked(child), 0);
    fs::remove(stop);
    EXPECT_EQ(store.stats().quarantined, 0u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "quarantine"));

    CacheStore capped(storeConfig(dir, kCap));
    capped.evictToCap();
    EXPECT_LE(capped.liveBytes(), kCap);
}

} // namespace
} // namespace dmdc
