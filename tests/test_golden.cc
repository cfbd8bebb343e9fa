/**
 * @file
 * Golden-value regression test: every pre-existing scheme must produce
 * bit-identical SimResults across refactors of the dispatch machinery.
 *
 * The expected values below were captured from the seed implementation
 * (per-scheme switch dispatch inside LsqUnit) before the policy layer
 * existed; the policy-based implementation must reproduce them
 * exactly. Integer counters are compared exactly; IPC and energy are
 * doubles and compared to 1e-9 relative tolerance only to stay robust
 * against compiler FMA-contraction differences, not against behaviour
 * changes.
 *
 * If a deliberate behaviour change invalidates these values, recapture
 * them AND bump the changed scheme's SchemeInfo::revision so stale
 * run-cache entries self-invalidate.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/cache_store.hh"
#include "sim/campaign_runner.hh"
#include "sim/simulator.hh"

namespace dmdc
{
namespace
{

struct GoldenRun
{
    const char *benchmark;
    const char *scheme;
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t lqSearches;
    std::uint64_t lqSearchesFiltered;
    std::uint64_t sqSearches;
    std::uint64_t dmdcReplays;
    std::uint64_t baselineReplays;
    std::uint64_t trueViolations;
    std::uint64_t ageTableReplays;
    double ipc;
    double energyLqCam;
    double energyYla;
    double energyChecking;
};

// Captured at the seed (commit 9eeac7a), config 2, warmup 10000,
// run 60000.
const GoldenRun kGolden[] = {
    {"gzip", "baseline", 60000ull, 90253ull, 5909ull, 0ull, 15842ull,
     0ull, 5ull, 5ull, 0ull,
     0.66479784605497882, 3059977.3081568582, 5776.192, 0},
    {"gzip", "yla", 60000ull, 90253ull, 359ull, 5550ull, 15842ull,
     0ull, 5ull, 5ull, 0ull,
     0.66479784605497882, 1759329.3830294567, 30933.311999999998, 0},
    {"gzip", "dmdc-global", 60000ull, 90171ull, 0ull, 0ull, 15949ull,
     4ull, 0ull, 4ull, 0ull,
     0.66540240210267154, 0, 31099.583999999999, 219495.44342289196},
    {"gzip", "dmdc-local", 60000ull, 90171ull, 0ull, 0ull, 15949ull,
     4ull, 0ull, 4ull, 0ull,
     0.66540240210267154, 0, 31099.583999999999, 218964.99606289197},
    {"gzip", "dmdc-queue", 60000ull, 90171ull, 0ull, 0ull, 15949ull,
     4ull, 0ull, 4ull, 0ull,
     0.66540240210267154, 0, 31099.583999999999, 178362.60470289196},
    {"gzip", "age-table", 60000ull, 90150ull, 0ull, 0ull, 15894ull,
     0ull, 0ull, 4ull, 11ull,
     0.66555740432612309, 0, 5769.6000000000004, 1963886.6863999995},
    {"swim", "baseline", 60000ull, 82151ull, 4945ull, 0ull, 27239ull,
     0ull, 11ull, 11ull, 0ull,
     0.73036238146827182, 2867914.2464785054, 5257.6639999999998, 0},
    {"swim", "yla", 60000ull, 82151ull, 228ull, 4717ull, 27239ull,
     0ull, 11ull, 11ull, 0ull,
     0.73036238146827182, 1762480.6856089644, 32182.464, 0},
    {"swim", "dmdc-global", 60000ull, 82132ull, 0ull, 0ull, 27401ull,
     14ull, 0ull, 11ull, 0ull,
     0.73053133979447715, 0, 32533.248, 239829.63808602825},
    {"swim", "dmdc-local", 60000ull, 82181ull, 0ull, 0ull, 27413ull,
     13ull, 0ull, 11ull, 0ull,
     0.73009576422774125, 0, 32500.543999999998, 238559.08153802337},
    {"swim", "dmdc-queue", 60000ull, 82155ull, 0ull, 0ull, 27355ull,
     11ull, 0ull, 11ull, 0ull,
     0.73032682125251047, 0, 32408, 207618.91960763338},
    {"swim", "age-table", 60000ull, 82075ull, 0ull, 0ull, 27292ull,
     0ull, 0ull, 10ull, 13ull,
     0.73103868413036854, 0, 5252.8000000000002, 2114217.8479999993},
    // bloom-yla captured later (pre-kernel-refactor tree) so every
    // registered scheme is pinned; same config/warmup/run as above.
    {"gzip", "bloom-yla", 60000ull, 90253ull, 36ull, 5873ull, 15842ull,
     0ull, 5ull, 5ull, 0ull,
     0.66479784605497882, 1683634.0172968169, 30933.311999999998,
     583551.09279999998},
    {"swim", "bloom-yla", 60000ull, 82151ull, 43ull, 4902ull, 27239ull,
     0ull, 11ull, 11ull, 0ull,
     0.73036238146827182, 1719125.7547713844, 32182.464,
     597412.10528000002},
};

/**
 * 64-bit FNV-1a of each kGolden row's run-cache entry payload (the
 * key plus every SimResult field and all 14 energy components, as
 * CacheStore::load returns it), in kGolden order. The journal pins
 * only ipc and cycles per run; these pin every cached counter,
 * byte for byte. Captured at commit 3c61555.
 */
const std::uint64_t kPayloadDigest[] = {
    0x573f8dac24107e6full, // gzip baseline
    0x5dbedb39c6a12e7dull, // gzip yla
    0x616f39c632a1868cull, // gzip dmdc-global
    0x7b2b94ecec802e77ull, // gzip dmdc-local
    0x21b8090c91c2d651ull, // gzip dmdc-queue
    0xcc58f4d825b90272ull, // gzip age-table
    0xd52a00907daef759ull, // swim baseline
    0x44174291d7e452b7ull, // swim yla
    0x5be0099488f0f70cull, // swim dmdc-global
    0xbcaf1c83d454a6daull, // swim dmdc-local
    0xefb72b7a0609df95ull, // swim dmdc-queue
    0xea6bc7462ebf4314ull, // swim age-table
    0xe828de0f2c1dec57ull, // gzip bloom-yla
    0x05f8ac6c24fc7ce0ull, // swim bloom-yla
};
static_assert(std::size(kPayloadDigest) == std::size(kGolden));

SimOptions
goldenOptions(const GoldenRun &g)
{
    SimOptions opt;
    opt.benchmark = g.benchmark;
    opt.scheme = g.scheme;
    opt.configLevel = 2;
    opt.warmupInsts = 10000;
    opt.runInsts = 60000;
    return opt;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

class GoldenValues : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(GoldenValues, MatchesSeedCapture)
{
    const GoldenRun &g = GetParam();
    const SimResult r = runSimulation(goldenOptions(g));

    EXPECT_EQ(r.scheme, g.scheme);
    EXPECT_EQ(r.instructions, g.instructions);
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.lqSearches, g.lqSearches);
    EXPECT_EQ(r.lqSearchesFiltered, g.lqSearchesFiltered);
    EXPECT_EQ(r.sqSearches, g.sqSearches);
    EXPECT_EQ(r.dmdcReplays, g.dmdcReplays);
    EXPECT_EQ(r.baselineReplays, g.baselineReplays);
    EXPECT_EQ(r.trueViolations, g.trueViolations);
    EXPECT_EQ(r.ageTableReplays, g.ageTableReplays);

    auto near = [](double expected, double actual) {
        const double tol = 1e-9 * std::max(1.0, std::abs(expected));
        EXPECT_NEAR(actual, expected, tol);
    };
    near(g.ipc, r.ipc);
    near(g.energyLqCam, r.energy.lqCam);
    near(g.energyYla, r.energy.yla);
    near(g.energyChecking, r.energy.checking);
}

TEST(GoldenPayload, CacheEntryPayloadGolden)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
        ("dmdc_golden_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    std::vector<SimOptions> runs;
    for (const GoldenRun &g : kGolden)
        runs.push_back(goldenOptions(g));
    CampaignConfig cfg;
    cfg.cacheDir = dir.string();
    CampaignRunner runner(cfg);
    ASSERT_TRUE(runner.runChecked(runs).allOk());

    CacheStoreConfig sc;
    sc.dir = dir.string();
    CacheStore store(sc);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        std::string payload;
        ASSERT_EQ(store.load(cacheKey(runs[i]), payload),
                  CacheStore::Load::Hit);
        EXPECT_EQ(fnv1a64(payload), kPayloadDigest[i])
            << runs[i].benchmark << " / " << runs[i].scheme;
    }
    fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    SeedCapture, GoldenValues, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRun> &info) {
        std::string name = std::string(info.param.benchmark) + "_" +
            info.param.scheme;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace dmdc
