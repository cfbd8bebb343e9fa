/**
 * @file
 * Tests of the fault-tolerance layer: structured errors and option
 * validation, the deterministic fault injector, per-run isolation and
 * retries in the campaign engine, watchdog timeouts, cache corruption
 * handling (quarantine + recompute), LRU eviction, resume over the
 * run cache with bit-identical journals, and the two-stage
 * SIGINT/SIGTERM drain of a real dmdc_sim campaign process (the
 * binary's location comes from CMake via DMDC_SIM_BIN).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/cache_store.hh"
#include "sim/campaign_runner.hh"
#include "sim/campaign_shard.hh"
#include "sim/cli_options.hh"
#include "sim/fault_injector.hh"
#include "sim/run_error.hh"
#include "sim/simulator.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

SimOptions
quickOptions(const std::string &bench, const std::string &scheme)
{
    SimOptions opt;
    opt.benchmark = bench;
    opt.scheme = scheme;
    opt.warmupInsts = 2000;
    opt.runInsts = 20000;
    return opt;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::size_t
countFiles(const fs::path &dir, const char *ext = ".json")
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (de.is_regular_file() && de.path().extension() == ext)
            ++n;
    }
    return n;
}

/** The single cache entry in @p dir (fails the test if not single). */
fs::path
soleCacheEntry(const fs::path &dir)
{
    fs::path found;
    for (const auto &de : fs::directory_iterator(dir)) {
        if (de.is_regular_file() && de.path().extension() == ".json") {
            EXPECT_TRUE(found.empty()) << "more than one cache entry";
            found = de.path();
        }
    }
    EXPECT_FALSE(found.empty()) << "no cache entry in " << dir;
    return found;
}

/**
 * Every test gets a scratch directory and leaves the process-global
 * injector and journal disabled behind it.
 */
class FaultTolerance : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scratch_ = fs::temp_directory_path() /
            ("dmdc_ft_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
        fs::remove_all(scratch_);
        fs::create_directories(scratch_);
        FaultInjector::global().configure({});
    }

    void
    TearDown() override
    {
        FaultInjector::global().configure({});
        setCampaignJournal("");
        fs::remove_all(scratch_);
    }

    CampaignConfig
    cachedConfig() const
    {
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache").string();
        return cfg;
    }

    fs::path scratch_;
};

// ---- fault spec parsing ----------------------------------------------

TEST(FaultSpecParse, FullSpecification)
{
    const FaultSpec spec = parseFaultSpec(
        "cache-corrupt:p=0.1,run-throw:p=0.05,run-hang:p=0.01,seed=42");
    EXPECT_DOUBLE_EQ(spec.cacheCorruptP, 0.1);
    EXPECT_DOUBLE_EQ(spec.runThrowP, 0.05);
    EXPECT_DOUBLE_EQ(spec.runHangP, 0.01);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_TRUE(spec.any());
}

TEST(FaultSpecParse, EmptyDisables)
{
    EXPECT_FALSE(parseFaultSpec("").any());
}

TEST(FaultSpecParse, RejectsUnknownSite)
{
    for (const char *spec : {"disk-on-fire:p=0.5", "worker-crash:p=0.5"}) {
        try {
            (void)parseFaultSpec(spec);
            FAIL() << "expected RunError for " << spec;
        } catch (const RunError &e) {
            EXPECT_EQ(e.category(), RunErrorCategory::Config) << spec;
        }
    }
}

TEST(FaultSpecParse, RejectsBadProbability)
{
    EXPECT_THROW((void)parseFaultSpec("run-throw:p=1.5"), RunError);
    EXPECT_THROW((void)parseFaultSpec("run-throw:p=-0.1"), RunError);
    EXPECT_THROW((void)parseFaultSpec("run-throw:p=banana"), RunError);
    EXPECT_THROW((void)parseFaultSpec("run-throw"), RunError);
}

// ---- injector determinism --------------------------------------------

TEST_F(FaultTolerance, InjectorDecisionsAreDeterministic)
{
    FaultSpec spec;
    spec.runThrowP = 0.5;
    spec.seed = 9;
    FaultInjector::global().configure(spec);
    const FaultInjector &inj = FaultInjector::global();

    // Same (key, attempt) -> same answer, every time.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(inj.injectRunThrow("k1", 0),
                  inj.injectRunThrow("k1", 0));
        EXPECT_EQ(inj.injectRunHang("k1"), inj.injectRunHang("k1"));
    }
    // Decisions vary across keys/attempts at p=0.5 (not stuck).
    bool saw_true = false, saw_false = false;
    for (int i = 0; i < 64; ++i) {
        const bool d = inj.injectRunThrow("key" + std::to_string(i), 0);
        (d ? saw_true : saw_false) = true;
    }
    EXPECT_TRUE(saw_true);
    EXPECT_TRUE(saw_false);
}

TEST_F(FaultTolerance, InjectorProbabilityEndpoints)
{
    FaultSpec spec;
    spec.runThrowP = 1.0;
    FaultInjector::global().configure(spec);
    EXPECT_TRUE(FaultInjector::global().injectRunThrow("x", 0));
    EXPECT_FALSE(FaultInjector::global().injectRunHang("x"));
    spec.runThrowP = 0.0;
    FaultInjector::global().configure(spec);
    EXPECT_FALSE(FaultInjector::global().injectRunThrow("x", 0));
}

// ---- option validation -----------------------------------------------

TEST_F(FaultTolerance, ValidationRejectsBadOptions)
{
    auto expect_config_error = [](SimOptions opt, const char *what) {
        try {
            validateSimOptions(opt);
            FAIL() << "expected RunError for " << what;
        } catch (const RunError &e) {
            EXPECT_EQ(e.category(), RunErrorCategory::Config) << what;
            EXPECT_FALSE(e.transient()) << what;
        }
    };
    SimOptions good = quickOptions("gzip", "dmdc-global");
    EXPECT_NO_THROW(validateSimOptions(good));

    SimOptions opt = good;
    opt.benchmark = "no-such-bench";
    expect_config_error(opt, "unknown benchmark");
    opt = good;
    opt.scheme = "no-such-scheme";
    expect_config_error(opt, "unknown scheme");
    opt = good;
    opt.configLevel = 7;
    expect_config_error(opt, "bad config level");
    opt = good;
    opt.runInsts = 0;
    expect_config_error(opt, "zero instructions");
    opt = good;
    opt.numYlaQw = 3;
    expect_config_error(opt, "non-power-of-two YLA count");
    opt = good;
    opt.tableEntriesOverride = 100;
    expect_config_error(opt, "non-power-of-two table");
    opt = good;
    opt.queueEntries = 0;
    expect_config_error(opt, "zero queue entries");
    opt = good;
    opt.invalidationsPer1kCycles = -1.0;
    expect_config_error(opt, "negative invalidation rate");
    opt = good;
    opt.timeoutMs = -5.0;
    expect_config_error(opt, "negative timeout");
}

// ---- run isolation ---------------------------------------------------

TEST_F(FaultTolerance, RunCheckedCapturesFailuresWithoutAborting)
{
    FaultSpec spec;
    spec.runThrowP = 1.0;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 0;
    CampaignRunner runner(cfg);
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "yla"),
    };
    const CampaignResult cr = runner.runChecked(runs);
    ASSERT_EQ(cr.outcomes.size(), 2u);
    EXPECT_FALSE(cr.allOk());
    for (const RunOutcome &oc : cr.outcomes) {
        EXPECT_EQ(oc.status, RunStatus::Failed);
        EXPECT_EQ(oc.category, RunErrorCategory::SimInvariant);
        EXPECT_EQ(oc.attempts, 1u);
        EXPECT_NE(oc.error.find("run-throw"), std::string::npos);
    }
    EXPECT_EQ(runner.lastStats().failed, 2u);
}

TEST_F(FaultTolerance, BadRunDegradesGoodCampaign)
{
    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    CampaignRunner runner(cfg);
    std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("gzip", "baseline"),
    };
    runs[1].configLevel = 9; // config error at Simulator construction
    const CampaignResult cr = runner.runChecked(runs);
    EXPECT_EQ(cr.outcomes[0].status, RunStatus::Ok);
    EXPECT_GT(cr.results[0].instructions, 0u);
    EXPECT_EQ(cr.outcomes[1].status, RunStatus::Failed);
    EXPECT_EQ(cr.outcomes[1].category, RunErrorCategory::Config);
    // Config errors are not transient: no retries burned.
    EXPECT_EQ(cr.outcomes[1].attempts, 1u);
}

TEST_F(FaultTolerance, TransientFailuresRetryPredictably)
{
    FaultSpec spec;
    spec.runThrowP = 0.5;
    spec.seed = 1234;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 4;
    CampaignRunner runner(cfg);
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "baseline"),
        quickOptions("vpr", "baseline"),
        quickOptions("gcc", "baseline"),
    };
    const CampaignResult cr = runner.runChecked(runs);

    // The injector is a pure function, so the expected attempt count
    // of every run is computable up front.
    const FaultInjector &inj = FaultInjector::global();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        unsigned expected_attempts = 0;
        bool expected_ok = false;
        for (unsigned a = 0; a <= cfg.maxRetries; ++a) {
            ++expected_attempts;
            if (!inj.injectRunThrow(runIdentity(runs[i]), a)) {
                expected_ok = true;
                break;
            }
        }
        EXPECT_EQ(cr.outcomes[i].attempts, expected_attempts);
        EXPECT_EQ(cr.outcomes[i].ok(), expected_ok);
    }
}

TEST_F(FaultTolerance, FailFastSkipsLaterRuns)
{
    FaultSpec spec;
    spec.runThrowP = 1.0;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 0;
    cfg.failFast = true;
    cfg.jobs = 1; // serial: deterministic skip set
    CampaignRunner runner(cfg);
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "baseline"),
        quickOptions("vpr", "baseline"),
    };
    const CampaignResult cr = runner.runChecked(runs);
    EXPECT_EQ(cr.outcomes[0].status, RunStatus::Failed);
    EXPECT_EQ(cr.outcomes[1].status, RunStatus::Skipped);
    EXPECT_EQ(cr.outcomes[2].status, RunStatus::Skipped);
    EXPECT_EQ(runner.lastStats().skipped, 2u);
}

// ---- watchdogs -------------------------------------------------------

TEST_F(FaultTolerance, InjectedHangBecomesTimeout)
{
    FaultSpec spec;
    spec.runHangP = 1.0;
    FaultInjector::global().configure(spec);

    SimOptions opt = quickOptions("gzip", "baseline");
    opt.stallCycleLimit = 2000; // keep the spin cheap
    try {
        (void)runSimulation(opt);
        FAIL() << "expected RunError(Timeout)";
    } catch (const RunError &e) {
        EXPECT_EQ(e.category(), RunErrorCategory::Timeout);
        EXPECT_NE(std::string(e.what()).find("run-hang"),
                  std::string::npos);
    }
}

TEST_F(FaultTolerance, HangSurfacesAsTimedOutOutcome)
{
    FaultSpec spec;
    spec.runHangP = 1.0;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 0;
    CampaignRunner runner(cfg);
    SimOptions opt = quickOptions("gzip", "baseline");
    opt.stallCycleLimit = 2000;
    const CampaignResult cr = runner.runChecked({opt});
    EXPECT_EQ(cr.outcomes[0].status, RunStatus::TimedOut);
    EXPECT_EQ(cr.outcomes[0].category, RunErrorCategory::Timeout);
    EXPECT_EQ(runner.lastStats().timedOut, 1u);
}

TEST_F(FaultTolerance, WallClockDeadlineFires)
{
    SimOptions opt = quickOptions("gzip", "baseline");
    opt.runInsts = 5000000; // far more work than the budget allows
    opt.timeoutMs = 0.01;
    try {
        (void)runSimulation(opt);
        FAIL() << "expected RunError(Timeout)";
    } catch (const RunError &e) {
        EXPECT_EQ(e.category(), RunErrorCategory::Timeout);
        EXPECT_NE(std::string(e.what()).find("wall-clock"),
                  std::string::npos);
    }
}

// ---- cache robustness ------------------------------------------------

class CacheCorruption : public FaultTolerance
{
  protected:
    /**
     * Populate the cache with one entry, damage it with @p damage,
     * then re-run with a fresh runner (no in-process memo) and verify
     * quarantine + bit-identical recompute.
     */
    void
    roundTrip(const std::function<void(const fs::path &)> &damage)
    {
        const SimOptions opt = quickOptions("gzip", "dmdc-global");
        SimResult reference;
        {
            CampaignRunner runner(cachedConfig());
            reference = runner.runChecked({opt}).results.front();
        }
        const fs::path dir = scratch_ / "cache";
        const fs::path entry = soleCacheEntry(dir);
        damage(entry);

        CampaignRunner runner(cachedConfig());
        const CampaignResult cr = runner.runChecked({opt});
        ASSERT_TRUE(cr.allOk());
        EXPECT_EQ(runner.lastStats().quarantined, 1u);
        EXPECT_EQ(runner.lastStats().simulated, 1u); // recomputed
        EXPECT_EQ(cr.results.front().cycles, reference.cycles);
        EXPECT_EQ(cr.results.front().ipc, reference.ipc);
        // The bad bytes moved to quarantine/ and a good entry took
        // their place.
        EXPECT_EQ(countFiles(dir / "quarantine"), 1u);
        // The rewritten entry must now hit.
        CampaignRunner again(cachedConfig());
        (void)again.runChecked({opt});
        EXPECT_EQ(again.lastStats().diskHits, 1u);
    }

    /**
     * roundTrip() with a frame-valid entry: the payload, rewritten by
     * @p edit, is re-stored through CacheStore::store so its CRC
     * header checks out and only the runner's payload reader can
     * catch it.
     */
    void
    payloadRoundTrip(const std::function<std::string(std::string)> &edit)
    {
        roundTrip([&](const fs::path &entry) {
            const std::string text = slurp(entry);
            CacheStoreConfig sc;
            sc.dir = entry.parent_path().string();
            CacheStore store(sc);
            store.store(cacheKey(quickOptions("gzip", "dmdc-global")),
                        edit(text.substr(text.find('\n') + 1)));
        });
    }

    /** @p payload with the "cycles" value token replaced by @p token. */
    static std::string
    withCycles(std::string payload, const std::string &token)
    {
        const std::string tag = "\"cycles\":";
        const std::size_t at = payload.find(tag);
        EXPECT_NE(at, std::string::npos);
        const std::size_t from = at + tag.size();
        payload.replace(from, payload.find(',', from) - from, token);
        return payload;
    }
};

TEST_F(CacheCorruption, TruncatedEntryQuarantines)
{
    roundTrip([](const fs::path &entry) {
        const std::string text = slurp(entry);
        std::ofstream os(entry, std::ios::trunc);
        os << text.substr(0, text.size() / 2);
    });
}

TEST_F(CacheCorruption, BitFlipFailsChecksum)
{
    roundTrip([](const fs::path &entry) {
        std::string text = slurp(entry);
        ASSERT_GT(text.size(), 200u);
        // Flip a digit inside the payload, past the header line.
        const std::size_t pos = text.find('\n') + 50;
        text[pos] = text[pos] == '0' ? '1' : '0';
        std::ofstream os(entry, std::ios::trunc);
        os << text;
    });
}

TEST_F(CacheCorruption, WrongVersionQuarantines)
{
    roundTrip([](const fs::path &entry) {
        std::string text = slurp(entry);
        const std::string tag = "{\"dmdc_cache\":";
        ASSERT_EQ(text.rfind(tag, 0), 0u);
        text[tag.size()] = '1'; // pretend an old format version
        std::ofstream os(entry, std::ios::trunc);
        os << text;
    });
}

TEST_F(CacheCorruption, ZeroByteEntryQuarantines)
{
    roundTrip([](const fs::path &entry) {
        std::ofstream os(entry, std::ios::trunc);
    });
}

TEST_F(CacheCorruption, LegacyHeaderlessEntryQuarantines)
{
    roundTrip([](const fs::path &entry) {
        // v2 files were the bare payload with no CRC header.
        const std::string text = slurp(entry);
        std::ofstream os(entry, std::ios::trunc);
        os << text.substr(text.find('\n') + 1);
    });
}

TEST_F(CacheCorruption, UnparsablePayloadQuarantines)
{
    payloadRoundTrip([](std::string) { return std::string("not json\n"); });
}

TEST_F(CacheCorruption, StringResultFieldQuarantines)
{
    // Must not read back as 0 cycles.
    payloadRoundTrip([](std::string payload) {
        return withCycles(std::move(payload), "\"abc\"");
    });
}

TEST_F(CacheCorruption, NegativeResultFieldQuarantines)
{
    // Must not read back as 2^64-1 cycles.
    payloadRoundTrip([](std::string payload) {
        return withCycles(std::move(payload), "-1");
    });
}

TEST_F(FaultTolerance, InjectedCacheCorruptionHealsOnReload)
{
    FaultSpec spec;
    spec.cacheCorruptP = 1.0;
    FaultInjector::global().configure(spec);
    const SimOptions opt = quickOptions("swim", "baseline");
    {
        CampaignRunner runner(cachedConfig());
        ASSERT_TRUE(runner.runChecked({opt}).allOk());
    }
    FaultInjector::global().configure({});
    CampaignRunner runner(cachedConfig());
    ASSERT_TRUE(runner.runChecked({opt}).allOk());
    EXPECT_EQ(runner.lastStats().quarantined, 1u);
    EXPECT_EQ(runner.lastStats().simulated, 1u);
}

TEST_F(FaultTolerance, CacheCapEvictsLru)
{
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "baseline"),
        quickOptions("vpr", "baseline"),
    };
    {
        CampaignRunner runner(cachedConfig());
        ASSERT_TRUE(runner.runChecked(runs).allOk());
    }
    const fs::path dir = scratch_ / "cache";
    EXPECT_EQ(countFiles(dir), 3u);

    CampaignConfig cfg = cachedConfig();
    cfg.cacheMaxBytes = 1; // evict everything written so far
    CampaignRunner capped(cfg);
    ASSERT_TRUE(capped.runChecked({runs[0]}).allOk());
    EXPECT_GE(capped.lastStats().evicted, 3u);
    EXPECT_EQ(countFiles(dir), 0u);
}

// ---- resume over the run cache -------------------------------------

TEST_F(FaultTolerance, ResumeMatchesUninterruptedRunBitForBit)
{
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("gzip", "yla"),
        quickOptions("swim", "baseline"),
        quickOptions("swim", "yla"),
    };
    const std::string ref_path = (scratch_ / "ref.json").string();
    const std::string res_path = (scratch_ / "res.json").string();

    // Reference: uninterrupted serial campaign.
    {
        setCampaignJournal(ref_path, /*deterministic=*/true);
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache_ref").string();
        cfg.jobs = 1;
        CampaignRunner runner(cfg);
        ASSERT_TRUE(runner.runChecked(runs).allOk());
        flushCampaignJournal();
    }

    // Interrupted: chaos kills some runs mid-campaign.
    std::size_t ok_runs = 0;
    {
        setCampaignJournal("");
        FaultSpec spec;
        spec.runThrowP = 0.5;
        spec.seed = 5;
        FaultInjector::global().configure(spec);
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache_res").string();
        cfg.maxRetries = 0;
        CampaignRunner runner(cfg);
        const CampaignResult cr = runner.runChecked(runs);
        // A mixed outcome exercises both resume paths: served-from-
        // cache for the survivors, fresh execution for the casualties.
        for (const RunOutcome &oc : cr.outcomes)
            ok_runs += oc.ok();
        ASSERT_FALSE(cr.allOk()) << "chaos seed produced no failures; "
                                    "pick another seed";
        ASSERT_GT(ok_runs, 0u) << "chaos seed killed every run; "
                                  "pick another seed";
        FaultInjector::global().configure({});
    }

    // Resume = the same campaign over the same cache: survivors come
    // from disk, only the casualties execute.
    {
        setCampaignJournal(res_path, /*deterministic=*/true);
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache_res").string();
        CampaignRunner runner(cfg);
        ASSERT_TRUE(runner.runChecked(runs).allOk());
        flushCampaignJournal();
        EXPECT_EQ(runner.lastStats().simulated, runs.size() - ok_runs);
        EXPECT_EQ(runner.lastStats().diskHits, ok_runs);
    }

    const std::string ref = slurp(ref_path);
    const std::string res = slurp(res_path);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(ref, res);
}

// ---- SIGINT/SIGTERM drain of a dmdc_sim campaign ----------------------

/** Start dmdc_sim with @p args, stdout/stderr discarded. */
pid_t
spawnSim(std::vector<std::string> args)
{
    args.insert(args.begin(), DMDC_SIM_BIN);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        if (null >= 0) {
            ::dup2(null, 1);
            ::dup2(null, 2);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    return pid;
}

/** Reap @p pid: its exit code, 128+sig if killed, -1 on error. */
int
waitExit(pid_t pid)
{
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid)
        return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : -1;
}

/** Poll until @p cache holds a first entry; false (child reaped) if
 *  @p pid exits first or nothing appears within a minute. */
bool
waitForFirstEntry(const fs::path &cache, pid_t pid)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        if (countFiles(cache) > 0)
            return true;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid, SIGKILL);
    waitExit(pid);
    return false;
}

/** The 8-run campaign the drain test interrupts and resumes. */
std::vector<std::string>
drainCampaign(const fs::path &cache, const fs::path &journal)
{
    return {"--bench=gzip,swim,vpr,mcf", "--scheme=baseline,dmdc-global",
            "--insts=200000", "--jobs=1", "--json-deterministic",
            "--cache-dir=" + cache.string(), "--json=" + journal.string()};
}

TEST_F(FaultTolerance, SigtermDrainsAndRerunConverges)
{
    const fs::path ref = scratch_ / "serial.json";
    ASSERT_EQ(waitExit(spawnSim(drainCampaign(scratch_ / "ref_cache",
                                              ref))),
              0);

    // SIGTERM once the first run is cached: the in-flight run
    // finishes, pending ones skip, the journal flushes, exit 5.
    const fs::path cache = scratch_ / "cache";
    const fs::path res = scratch_ / "resumed.json";
    const pid_t pid = spawnSim(drainCampaign(cache, res));
    ASSERT_TRUE(waitForFirstEntry(cache, pid));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    EXPECT_EQ(waitExit(pid), kExitInterrupted);
    const std::size_t cached = countFiles(cache);
    EXPECT_GE(cached, 1u);
    EXPECT_LT(cached, 8u) << "the interrupt skipped no run";

    // Rerunning the same command over the same cache completes the
    // campaign without losing the drained process's work.
    ASSERT_EQ(waitExit(spawnSim(drainCampaign(cache, res))), 0);
    const std::string serial = slurp(ref);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(slurp(res), serial);
}

TEST_F(FaultTolerance, SecondSigtermExitsAtOnce)
{
    // Long runs keep the first signal's drain far from done when the
    // second one lands. The first signal waits until the second run
    // is in flight: one landing between runs drains at once.
    const fs::path cache = scratch_ / "cache";
    const pid_t pid = spawnSim(
        {"--bench=gzip,swim,vpr,mcf", "--scheme=baseline",
         "--insts=1000000", "--jobs=1",
         "--cache-dir=" + cache.string()});
    ASSERT_TRUE(waitForFirstEntry(cache, pid));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    const std::size_t cached = countFiles(cache);
    // Repeat the signal until the process is gone: one sent before
    // the first was handled can merge with it (pending signals do not
    // queue, and TSan defers handlers).
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ::kill(pid, SIGTERM);
    }
    ASSERT_EQ(reaped, pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);
    // The in-flight run was abandoned, not finished and cached.
    EXPECT_EQ(countFiles(cache), cached);
}

} // namespace
} // namespace dmdc
