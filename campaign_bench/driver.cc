/**
 * @file
 * Executor of one campaign-benchmark plan.
 *
 * run.py writes the plan: the workload, its seeded run order and
 * campaigns, and the directories to use. This program drives the
 * simulator only through public entry points (CampaignRunner,
 * Simulator, Pipeline, makeSpecWorkload, CacheStore, ServiceClient
 * and the dmdc_serve binary), checks every result, and writes the raw
 * samples as JSON. run.py turns the samples into metrics.
 *
 *   campaign_driver setup  <plan>   print the steady-clock time (ns)
 *                                   at which the first run would be
 *                                   handed to the runner, and the
 *                                   time spent reading the plan
 *   campaign_driver run    <plan> <pass> <seconds> <trace 0|1> <out>
 *                                   in-process workloads: one pass
 *                                   (traced: two untraced and two
 *                                   traced); serve-mixed: daemon
 *                                   passes for <seconds>
 *   campaign_driver record <plan> <out>
 *                                   write the digest of every run's
 *                                   simulated result
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "layers.hh"
#include "sim/cache_store.hh"
#include "sim/campaign.hh"
#include "sim/campaign_runner.hh"
#include "sim/service.hh"

extern char **environ;

using namespace dmdc;
using campaign_bench::LayerRun;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---- plan ------------------------------------------------------------

struct Plan
{
    std::string workload;
    bool serve = false;
    unsigned jobs = 1;
    std::string workDir;
    std::string expectedPath;
    std::string serveBin;
    /** The campaigns of the pass this process runs. */
    std::vector<std::vector<SimOptions>> campaigns;
    /** serve: the unique runs, and those seeded into the daemon cache. */
    std::vector<SimOptions> pool;
    std::vector<SimOptions> precached;
};

const JsonValue &
field(const JsonValue &v, const char *name)
{
    const JsonValue *f = v.find(name);
    if (!f)
        throw std::runtime_error(std::string("plan: missing field ") +
                                 name);
    return *f;
}

SimOptions
parseRun(const JsonValue &v)
{
    SimOptions opt;
    opt.benchmark = field(v, "benchmark").text;
    opt.scheme = field(v, "scheme").text;
    opt.configLevel =
        static_cast<unsigned>(std::stoul(field(v, "config").text));
    opt.warmupInsts = std::stoull(field(v, "warmup").text);
    opt.runInsts = std::stoull(field(v, "insts").text);
    validateSimOptions(opt);
    return opt;
}

std::vector<SimOptions>
parseRuns(const JsonValue &v)
{
    std::vector<SimOptions> out;
    for (const JsonValue &r : v.items)
        out.push_back(parseRun(r));
    return out;
}

/** The plan at @p path, with the campaigns of pass @p pass. */
Plan
loadPlan(const std::string &path, std::size_t pass = 0)
{
    JsonValue root;
    std::string err;
    if (!parseJson(readFile(path), root, err))
        throw std::runtime_error("plan " + path + ": " + err);
    Plan p;
    p.workload = field(root, "workload").text;
    p.serve = field(root, "serve").boolean;
    p.jobs = static_cast<unsigned>(std::stoul(field(root, "jobs").text));
    p.workDir = field(root, "work_dir").text;
    p.expectedPath = field(root, "expected").text;
    const std::vector<JsonValue> &passes = field(root, "passes").items;
    if (passes.empty())
        throw std::runtime_error("plan: no passes");
    for (const JsonValue &c : passes[pass % passes.size()].items)
        p.campaigns.push_back(parseRuns(c));
    if (p.serve) {
        p.serveBin = field(root, "serve_bin").text;
        p.pool = parseRuns(field(root, "pool"));
        p.precached = parseRuns(field(root, "precached"));
    }
    return p;
}

std::string
runKey(const SimOptions &o)
{
    return o.benchmark + "/" + o.scheme + "/c" +
        std::to_string(o.configLevel) + "/" +
        std::to_string(o.warmupInsts) + "+" + std::to_string(o.runInsts);
}

/** Hash of the deterministic simulated results of one run. */
std::string
resultDigest(const SimResult &r)
{
    std::ostringstream os;
    os << std::setprecision(17) << r.benchmark << '|' << r.scheme << '|'
       << r.configLevel << '|' << r.instructions << '|' << r.cycles << '|'
       << r.ipc << '|' << r.lqSearches << '|' << r.lqSearchesFiltered
       << '|' << r.sqSearches << '|' << r.sqSearchesFiltered << '|'
       << r.committedLoads << '|' << r.committedStores << '|'
       << r.baselineReplays << '|' << r.dmdcReplays << '|'
       << r.ageTableReplays << '|' << r.trueViolations << '|'
       << r.trueReplays << '|' << r.falseReplays() << '|'
       << r.energy.total() << '|' << r.energy.lqFunction();
    const std::string s = os.str();
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                  hashBytes(s.data(), s.size()));
    return hex;
}

std::map<std::string, std::string>
loadExpected(const std::string &path)
{
    JsonValue root;
    std::string err;
    if (!parseJson(readFile(path), root, err))
        throw std::runtime_error("expected digests " + path + ": " + err);
    std::map<std::string, std::string> out;
    for (const auto &f : field(root, "digests").fields)
        out[f.first] = f.second.text;
    return out;
}

// ---- correctness bookkeeping ------------------------------------------

/** Runs attempted and failed, with the first few failure messages. */
struct Check
{
    std::mutex mutex;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    void
    fail(const std::string &msg, std::uint64_t runs = 1)
    {
        std::lock_guard<std::mutex> lock(mutex);
        failed += runs;
        if (messages.size() < 20)
            messages.push_back(msg);
    }
};

void
checkDigest(const std::map<std::string, std::string> &expected,
            const SimOptions &opt, const SimResult &r, Check &check)
{
    const auto it = expected.find(runKey(opt));
    if (it == expected.end())
        check.fail(runKey(opt) + ": no recorded digest");
    else if (it->second != resultDigest(r))
        check.fail(runKey(opt) + ": simulated results differ from the "
                   "recorded digest");
}

double
vmHwmMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

// ---- JSON output -----------------------------------------------------

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string
numList(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s.append(i ? "," : "").append(num(v[i]));
    return s + "]";
}

std::string
quoted(const std::string &s)
{
    return std::string("\"").append(jsonEscapeString(s)).append("\"");
}

/** Sum of LayerRun fields over runs: counts exactly, times in ns. */
struct LayerTotals
{
    std::map<std::string, double> counts;
    std::map<std::string, double> times;

    void
    add(const LayerRun &r)
    {
        auto c = [&](const char *k, std::uint64_t v) {
            counts[k] += static_cast<double>(v);
        };
        c("runs", 1);
        c("committed_total", r.committedTotal);
        c("cycles_total", r.cyclesTotal);
        c("ticks", r.ticks);
        c("skipped_cycles", r.skippedCycles);
        c("op_calls", r.opCalls);
        c("wrong_path_ops", r.wrongPathOps);
        c("dispatched", r.dispatched);
        c("issued", r.issued);
        c("insts", r.insts);
        c("mispredicts", r.mispredicts);
        c("lq_searches", r.lqSearches);
        c("lq_searches_filtered", r.lqSearchesFiltered);
        c("sq_searches", r.sqSearches);
        c("replays", r.baselineReplays + r.dmdcReplays + r.ageTableReplays);
        c("false_replays", r.falseReplays);
        c("load_rejections", r.loadRejections);
        c("l1d_accesses", r.l1dAccesses);
        c("l1d_misses", r.l1dMisses);
        c("l2_accesses", r.l2Accesses);
        c("l2_misses", r.l2Misses);
        times["simulator_ctor_ns"] += r.simulatorCtorNs;
        times["build_ns"] += r.buildNs;
        times["gen_ns"] += r.genNs;
        times["tick_self_ns"] += r.tickSelfNs;
        times["skip_ns"] += r.skipNs;
        times["energy_ns"] += r.energyNs;
    }

    static std::string
    object(const std::map<std::string, double> &m)
    {
        std::string s = "{";
        for (const auto &[k, v] : m)
            s.append(s.size() > 1 ? "," : "")
                .append(quoted(k))
                .append(":")
                .append(num(v));
        return s + "}";
    }
};

// ---- traced replica ---------------------------------------------------

/**
 * Replicate @p campaigns with the layer replica on @p jobs threads,
 * keeping the runner's per-campaign barrier, and check every run
 * against the untraced result of the same run.
 */
LayerTotals
runReplica(const std::vector<std::vector<SimOptions>> &campaigns,
           unsigned jobs,
           const std::unordered_map<std::string, SimResult> &untraced,
           Check &check, double &wallS)
{
    LayerTotals totals;
    std::mutex mutex;
    const Clock::time_point t0 = Clock::now();
    for (const std::vector<SimOptions> &runs : campaigns) {
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (std::size_t i; (i = next++) < runs.size();) {
                const std::string key = runKey(runs[i]);
                try {
                    const LayerRun lr = campaign_bench::runLayered(runs[i]);
                    const auto it = untraced.find(key);
                    const std::string diff = it == untraced.end()
                        ? "no untraced result"
                        : campaign_bench::compareLayerRun(lr, it->second);
                    if (!diff.empty())
                        check.fail(key + ": traced replica differs: " +
                                   diff);
                    std::lock_guard<std::mutex> lock(mutex);
                    totals.add(lr);
                } catch (const std::exception &e) {
                    check.fail(key + ": " + e.what());
                }
            }
        };
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < jobs; ++t)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
    }
    wallS = msSince(t0) / 1000.0;
    return totals;
}

/** Traced passes must repeat their deterministic counts exactly. */
void
checkRepeat(const std::vector<LayerTotals> &passes, Check &check)
{
    for (std::size_t i = 1; i < passes.size(); ++i) {
        if (passes[i].counts != passes[0].counts)
            check.fail("per-layer counts differ between traced passes");
    }
}

std::string
tracedJson(const std::vector<LayerTotals> &passes,
           const std::vector<double> &wallS)
{
    std::string s = "\"traced\":{\"wall_s\":" + numList(wallS) +
        ",\"counts\":" + LayerTotals::object(passes.front().counts) +
        ",\"times\":[";
    for (std::size_t i = 0; i < passes.size(); ++i)
        s.append(i ? "," : "").append(LayerTotals::object(passes[i].times));
    return s + "]}";
}

// ---- in-process workloads (fig4-cold, suite-long) ---------------------

struct InProcessPass
{
    double wallS = 0;
    std::vector<double> campaignMs;
    std::string runsJson; ///< per-run records
    std::uint64_t fsyncs = 0;
    std::size_t runs = 0;
    double runWallMs = 0; ///< sum of per-run wall times
    double openMs = 0;
    std::vector<double> loadUs;
    std::unordered_map<std::string, SimResult> results;
    std::vector<SimResult> ordered; ///< plan order
};

InProcessPass
runInProcessPass(const Plan &plan,
                 const std::map<std::string, std::string> &expected,
                 Check &check)
{
    InProcessPass pass;
    const std::string cacheDir = plan.workDir + "/cache";
    fs::remove_all(cacheDir);

    CampaignConfig cfg;
    cfg.jobs = plan.jobs;
    cfg.cacheDir = cacheDir;
    const std::uint64_t fsyncs0 = durableSyncCount();
    const Clock::time_point t0 = Clock::now();
    CampaignRunner runner(cfg);
    pass.openMs = msSince(t0);
    std::ostringstream runs_os;
    bool first = true;
    for (const std::vector<SimOptions> &campaign : plan.campaigns) {
        const Clock::time_point c0 = Clock::now();
        const CampaignResult cr = runner.runChecked(campaign);
        pass.campaignMs.push_back(msSince(c0));
        for (std::size_t i = 0; i < campaign.size(); ++i) {
            const RunOutcome &oc = cr.outcomes[i];
            const SimResult &r = cr.results[i];
            ++pass.runs;
            pass.runWallMs += oc.wallMs;
            if (!oc.ok()) {
                check.fail(runKey(campaign[i]) + ": " + oc.error);
                continue;
            }
            checkDigest(expected, campaign[i], r, check);
            pass.results[runKey(campaign[i])] = r;
            pass.ordered.push_back(r);
            runs_os << (first ? "" : ",") << "{\"warmup\":"
                    << campaign[i].warmupInsts << ",\"insts\":"
                    << r.instructions << ",\"cached\":"
                    << (oc.cached ? "true" : "false")
                    << ",\"wall_ms\":" << num(oc.wallMs) << '}';
            first = false;
        }
    }
    pass.wallS = msSince(t0) / 1000.0;
    pass.fsyncs = durableSyncCount() - fsyncs0;
    pass.runsJson = "[" + runs_os.str() + "]";

    // A cold pass only writes the cache: every run must now be in it.
    std::string payload;
    for (const std::vector<SimOptions> &campaign : plan.campaigns) {
        for (const SimOptions &opt : campaign) {
            const Clock::time_point l0 = Clock::now();
            const CacheStore::Load got =
                runner.diskStore().load(cacheKey(opt), payload);
            pass.loadUs.push_back(msSince(l0) * 1000.0);
            if (got != CacheStore::Load::Hit)
                check.fail(runKey(opt) + ": result missing from the run "
                           "cache after a cold pass");
        }
    }
    return pass;
}

/** Fig. 4 means over every (benchmark, config) pair of the grid. */
std::string
fig4Json(const std::vector<SimResult> &results)
{
    double lq = 0, slow = 0, total = 0;
    std::size_t n = 0;
    for (unsigned level = 1; level <= 3; ++level) {
        std::vector<SimResult> base, dmdc;
        for (const SimResult &r : results) {
            if (r.configLevel != level)
                continue;
            (r.scheme == "baseline" ? base : dmdc).push_back(r);
        }
        for (const bool fp : {false, true}) {
            const Range l = savingRange(base, dmdc, fp,
                [](const SimResult &r) { return r.energy.lqFunction(); });
            const Range s = slowdownRange(base, dmdc, fp);
            const Range t = savingRange(base, dmdc, fp,
                [](const SimResult &r) { return r.energy.total(); });
            const double w = static_cast<double>(l.n);
            lq += l.mean * w;
            slow += s.mean * w;
            total += t.mean * w;
            n += l.n;
        }
    }
    if (n == 0)
        return "null";
    const double w = static_cast<double>(n);
    return "{\"pairs\":" + std::to_string(n) +
        ",\"dmdc_lq_energy_savings_pct\":" + num(lq / w) +
        ",\"dmdc_slowdown_pct\":" + num(slow / w) +
        ",\"dmdc_total_energy_savings_pct\":" + num(total / w) + "}";
}

/**
 * One pass per process: a fresh process per pass is what a bench
 * binary's user gets, and later passes in one process run faster
 * (the allocator has grown), which would bias medians by pass count.
 * The traced mode runs untraced, traced, untraced, traced: the second
 * pair gives the overhead, the two traced passes the repeat check.
 */
std::string
runInProcess(const Plan &plan, bool traced,
             const std::map<std::string, std::string> &expected,
             Check &check)
{
    std::vector<InProcessPass> passes;
    std::vector<LayerTotals> tracedPasses;
    std::vector<double> tracedWall;
    for (int round = 0; round < (traced ? 2 : 1); ++round) {
        passes.push_back(runInProcessPass(plan, expected, check));
        check.attempted += passes.back().runs;
        if (traced) {
            double wall = 0;
            tracedPasses.push_back(runReplica(plan.campaigns, plan.jobs,
                                              passes.back().results, check,
                                              wall));
            tracedWall.push_back(wall);
        }
    }
    checkRepeat(tracedPasses, check);

    std::ostringstream os;
    os << "{\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const InProcessPass &p = passes[i];
        os << (i ? "," : "") << "{\"wall_s\":" << num(p.wallS)
           << ",\"campaign_ms\":" << numList(p.campaignMs)
           << ",\"fsyncs\":" << p.fsyncs << ",\"run_wall_ms\":"
           << num(p.runWallMs) << ",\"open_ms\":" << num(p.openMs)
           << ",\"load_us\":" << numList(p.loadUs)
           << ",\"runs\":" << p.runsJson << "}";
    }
    os << "],\"jobs\":" << plan.jobs
       << ",\"peak_rss_mb\":" << num(vmHwmMb("self"))
       << ",\"fig4\":" << fig4Json(passes.front().ordered);
    if (traced) {
        os << "," << tracedJson(tracedPasses, tracedWall)
           << ",\"traced_overhead_frac\":"
           << num(tracedWall.back() / passes.back().wallS - 1.0);
    }
    os << "}";
    return os.str();
}

// ---- serve-mixed -------------------------------------------------------

/** A dmdc_serve child process, stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::vector<std::string> &args,
           const std::string &logPath)
    {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(bin.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, logPath.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
        const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start " + bin);
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /**
     * SIGTERM (the daemon drains and exits), wait up to @p ms, then
     * SIGKILL; true on a clean exit. The shutdown op is not used: its
     * reply can be lost when the daemon closes the connection first.
     */
    bool
    stop(int ms = 10000)
    {
        if (pid_ <= 0)
            return true;
        kill(pid_, SIGTERM);
        int status = 0;
        for (int waited = 0; waited < ms; waited += 5) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
    }

  private:
    pid_t pid_ = -1;
};

std::string
submitRequest(const std::vector<SimOptions> &runs)
{
    std::string s = "{\"op\":\"submit\",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i)
        s.append(i ? "," : "").append(serviceRunSpecJson(runs[i]));
    return s + "]}";
}

std::uint64_t
statField(const JsonValue &reply, const char *name)
{
    return std::stoull(field(reply, name).text);
}

struct ServePass
{
    double setupS = 0;
    double wallS = 0;
    double openMs = 0;
    double daemonRssMb = 0;
    std::vector<double> campaignMs;
    std::vector<double> submitMs;
    std::vector<double> rttUs;
    std::vector<double> storeUs;
    std::vector<double> loadUs;
    std::uint64_t submitted = 0, unique = 0, dedupHits = 0, executed = 0,
                  simulated = 0, ticketLogBytes = 0;
};

/**
 * One serve-mixed pass: seed a fresh daemon cache with the plan's
 * precached runs, start dmdc_serve, run every campaign through
 * closed-loop clients, check each journal, stop the daemon.
 */
ServePass
runServePass(const Plan &plan, CacheStore &refStore,
             const std::vector<std::string> &refJournals,
             std::uint64_t expectedFresh, Check &check)
{
    ServePass pass;
    const std::string dir = plan.workDir + "/daemon";
    const std::string cacheDir = dir + "/cache";
    const std::string sock = dir + "/s.sock";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Fixture (not timed as set-up): copy the precached entries from
    // the reference cache through the public store API.
    {
        CacheStoreConfig sc;
        sc.dir = cacheDir;
        CacheStore fixture(sc);
        std::string payload;
        for (const SimOptions &opt : plan.precached) {
            const std::string key = cacheKey(opt);
            Clock::time_point t0 = Clock::now();
            if (refStore.load(key, payload) != CacheStore::Load::Hit)
                throw std::runtime_error("reference cache lacks " +
                                         runKey(opt));
            pass.loadUs.push_back(msSince(t0) * 1000.0);
            t0 = Clock::now();
            fixture.store(key, payload);
            pass.storeUs.push_back(msSince(t0) * 1000.0);
        }
    }
    {
        CacheStoreConfig sc;
        sc.dir = cacheDir;
        const Clock::time_point t0 = Clock::now();
        CacheStore probe(sc);
        probe.liveEntries();
        pass.openMs = msSince(t0);
    }

    const std::size_t n = plan.campaigns.size();
    std::vector<std::string> requests;
    for (const std::vector<SimOptions> &c : plan.campaigns)
        requests.push_back(submitRequest(c));
    pass.campaignMs.assign(n, 0.0);
    pass.submitMs.assign(n, 0.0);

    const Clock::time_point setup0 = Clock::now();
    Daemon daemon(plan.serveBin,
                  {"--socket=" + sock,
                   "--workers=" + std::to_string(plan.jobs),
                   "--cache-dir=" + cacheDir},
                  dir + "/daemon.log");
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (unsigned i = 0; i < plan.jobs; ++i)
        clients.push_back(std::make_unique<ServiceClient>());
    std::string err;
    while (!clients[0]->connect(sock, err)) {
        if (msSince(setup0) > 20000.0)
            throw std::runtime_error("daemon did not come up: " + err);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JsonValue reply;
    const Clock::time_point measure0 = Clock::now();
    if (!clients[0]->request(requests[0], reply, err))
        throw std::runtime_error("first submit refused: " + err);
    pass.setupS = msSince(setup0) / 1000.0;
    pass.submitMs[0] = msSince(measure0);
    const std::string firstId = field(reply, "campaign").text;

    // Closed loop: each client waits for its campaign's journal before
    // taking the next campaign.
    std::atomic<std::size_t> next{1};
    auto client = [&](unsigned ci) {
        ServiceClient &cl = *clients[ci];
        std::string cerr;
        if (ci > 0 && !cl.connect(sock, cerr)) {
            check.fail("client connect: " + cerr);
            return;
        }
        std::size_t idx = 0;
        std::string id;
        Clock::time_point c0 = measure0;
        if (ci == 0) {
            id = firstId;
        } else {
            idx = next++;
        }
        while (idx < n) {
            JsonValue r;
            if (id.empty()) {
                c0 = Clock::now();
                if (!cl.request(requests[idx], r, cerr)) {
                    check.fail("submit: " + cerr,
                               plan.campaigns[idx].size());
                    return;
                }
                pass.submitMs[idx] = msSince(c0);
                id = field(r, "campaign").text;
            }
            if (!cl.request("{\"op\":\"results\",\"campaign\":\"" + id +
                                "\",\"wait\":true}",
                            r, cerr) ||
                field(r, "state").text != "done") {
                check.fail("results: " + cerr, plan.campaigns[idx].size());
            } else {
                pass.campaignMs[idx] = msSince(c0);
                if (field(r, "journal").text != refJournals[idx])
                    check.fail("campaign " + std::to_string(idx) +
                                   ": daemon journal differs from the "
                                   "in-process deterministic journal",
                               plan.campaigns[idx].size());
            }
            id.clear();
            idx = next++;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned ci = 0; ci < plan.jobs; ++ci) {
        threads.emplace_back([&, ci] {
            try {
                client(ci);
            } catch (const std::exception &e) {
                check.fail(std::string("client: ") + e.what());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    pass.wallS = msSince(measure0) / 1000.0;

    // After the measured phase: stats round trips, accounting, memory.
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        if (!clients[0]->request("{\"op\":\"stats\"}", reply, err))
            throw std::runtime_error("stats: " + err);
        pass.rttUs.push_back(msSince(t0) * 1000.0);
    }
    pass.submitted = statField(reply, "submitted");
    pass.unique = statField(reply, "unique");
    pass.dedupHits = statField(reply, "dedup_hits");
    pass.executed = statField(reply, "executed");
    pass.simulated = statField(reply, "simulated");
    if (pass.simulated != expectedFresh)
        check.fail("daemon simulated " + std::to_string(pass.simulated) +
                   " runs, expected exactly " +
                   std::to_string(expectedFresh));
    std::error_code ec;
    pass.ticketLogBytes = fs::file_size(cacheDir + "/tickets.log", ec);
    if (ec)
        pass.ticketLogBytes = 0;
    pass.daemonRssMb = vmHwmMb(std::to_string(daemon.pid()));
    clients.clear();
    if (!daemon.stop())
        check.fail("daemon did not exit cleanly");
    return pass;
}

std::string
runServe(const Plan &plan, double seconds, bool traced,
         const std::map<std::string, std::string> &expected, Check &check)
{
    // Reference: every unique run simulated in-process, checked against
    // the recorded digests, and one --json-deterministic journal per
    // campaign from the same runner (all memo hits).
    const std::string refDir = plan.workDir + "/reference";
    fs::remove_all(refDir);
    fs::create_directories(refDir);
    CampaignConfig cfg;
    cfg.jobs = plan.jobs;
    cfg.cacheDir = refDir + "/cache";
    CampaignRunner ref(cfg);
    const CampaignResult pool = ref.runChecked(plan.pool);
    std::unordered_map<std::string, SimResult> poolResults;
    for (std::size_t i = 0; i < plan.pool.size(); ++i) {
        if (!pool.outcomes[i].ok())
            throw std::runtime_error("reference run " +
                                     runKey(plan.pool[i]) + " failed");
        checkDigest(expected, plan.pool[i], pool.results[i], check);
        poolResults[runKey(plan.pool[i])] = pool.results[i];
    }
    std::vector<std::string> refJournals;
    std::vector<double> flushMs;
    for (std::size_t i = 0; i < plan.campaigns.size(); ++i) {
        const std::string path =
            refDir + "/journal" + std::to_string(i) + ".json";
        setCampaignJournal(path, true);
        ref.runChecked(plan.campaigns[i]);
        const Clock::time_point t0 = Clock::now();
        flushCampaignJournal();
        flushMs.push_back(msSince(t0));
        refJournals.push_back(readFile(path));
    }
    setCampaignJournal("", false);

    std::set<std::string> precached, fresh;
    for (const SimOptions &o : plan.precached)
        precached.insert(runKey(o));
    std::vector<SimOptions> freshRuns;
    std::uint64_t freshInsts = 0;
    std::size_t runsPerPass = 0;
    for (const std::vector<SimOptions> &c : plan.campaigns) {
        runsPerPass += c.size();
        for (const SimOptions &o : c) {
            const std::string key = runKey(o);
            if (!precached.count(key) && fresh.insert(key).second) {
                freshRuns.push_back(o);
                freshInsts += o.warmupInsts + poolResults[key].instructions;
            }
        }
    }

    std::vector<ServePass> passes;
    const Clock::time_point start = Clock::now();
    double passSum = 0;
    do {
        const Clock::time_point p0 = Clock::now();
        passes.push_back(runServePass(plan, ref.diskStore(), refJournals,
                                      fresh.size(), check));
        check.attempted += runsPerPass;
        passSum += msSince(p0) / 1000.0;
    } while (msSince(start) / 1000.0 +
                 passSum / static_cast<double>(passes.size()) <=
             seconds);

    std::ostringstream os;
    os << "{\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const ServePass &p = passes[i];
        os << (i ? "," : "") << "{\"wall_s\":" << num(p.wallS)
           << ",\"setup_s\":" << num(p.setupS)
           << ",\"campaign_ms\":" << numList(p.campaignMs)
           << ",\"submit_ms\":" << numList(p.submitMs)
           << ",\"rtt_us\":" << numList(p.rttUs)
           << ",\"store_us\":" << numList(p.storeUs)
           << ",\"load_us\":" << numList(p.loadUs)
           << ",\"open_ms\":" << num(p.openMs)
           << ",\"daemon_rss_mb\":" << num(p.daemonRssMb)
           << ",\"submitted\":" << p.submitted << ",\"unique\":" << p.unique
           << ",\"dedup_hits\":" << p.dedupHits
           << ",\"executed\":" << p.executed
           << ",\"simulated\":" << p.simulated
           << ",\"ticket_log_bytes\":" << p.ticketLogBytes << "}";
    }
    os << "],\"jobs\":" << plan.jobs << ",\"fresh_runs\":" << fresh.size()
       << ",\"fresh_insts\":" << freshInsts
       << ",\"flush_ms\":" << numList(flushMs);
    if (traced) {
        // The daemon's fresh runs, simulated once more by an untraced
        // cold runner and then replicated twice (the second replica
        // pass is the repeat check).
        CampaignConfig cold;
        cold.jobs = plan.jobs;
        cold.useCache = false;
        CampaignRunner coldRunner(cold);
        const Clock::time_point t0 = Clock::now();
        coldRunner.runChecked(freshRuns);
        const double untracedS = msSince(t0) / 1000.0;
        std::vector<LayerTotals> layerPasses;
        std::vector<double> wall;
        for (int i = 0; i < 2; ++i) {
            double w = 0;
            layerPasses.push_back(
                runReplica({freshRuns}, plan.jobs, poolResults, check, w));
            wall.push_back(w);
        }
        checkRepeat(layerPasses, check);
        os << "," << tracedJson(layerPasses, wall)
           << ",\"traced_overhead_frac\":"
           << num(wall.back() / untracedS - 1.0);
    }
    os << "}";
    return os.str();
}

// ---- modes -------------------------------------------------------------

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

int
modeSetup(const std::string &planPath)
{
    // Reading the plan is the benchmark's work, not the program's:
    // report it so it can be taken out.
    const std::uint64_t parse0 = steadyNs();
    const Plan plan = loadPlan(planPath);
    const std::uint64_t parseNs = steadyNs() - parse0;
    // Everything a run needs before its first simulation: the runner
    // (and its cache store) and the validated campaign.
    const std::string cacheDir = plan.workDir + "/setup_cache";
    fs::remove_all(cacheDir);
    CampaignConfig cfg;
    cfg.jobs = plan.jobs;
    cfg.cacheDir = cacheDir;
    CampaignRunner runner(cfg);
    runner.diskStore().liveEntries();
    std::printf("%" PRIu64 " %" PRIu64 "\n", steadyNs(), parseNs);
    return 0;
}

int
modeRecord(const Plan &plan, const std::string &out)
{
    std::vector<SimOptions> all;
    std::set<std::string> seen;
    for (const std::vector<SimOptions> &c : plan.campaigns) {
        for (const SimOptions &o : c) {
            if (seen.insert(runKey(o)).second)
                all.push_back(o);
        }
    }
    CampaignConfig cfg;
    cfg.jobs = plan.jobs;
    cfg.useCache = false;
    CampaignRunner runner(cfg);
    const CampaignResult cr = runner.runChecked(all);
    std::map<std::string, std::string> digests;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (!cr.outcomes[i].ok()) {
            std::fprintf(stderr, "record: %s failed: %s\n",
                         runKey(all[i]).c_str(),
                         cr.outcomes[i].error.c_str());
            return 1;
        }
        digests[runKey(all[i])] = resultDigest(cr.results[i]);
    }
    std::ostringstream os;
    os << "{\"digests\":{";
    bool first = true;
    for (const auto &[k, v] : digests) {
        os << (first ? "" : ",") << "\n  " << quoted(k) << ":" << quoted(v);
        first = false;
    }
    os << "\n}}\n";
    return writeFileAtomic(out, os.str()) ? 0 : 1;
}

int
modeRun(const Plan &plan, double seconds, bool traced,
        const std::string &out)
{
    const std::map<std::string, std::string> expected =
        loadExpected(plan.expectedPath);
    fs::create_directories(plan.workDir);
    Check check;
    const std::string body = plan.serve
        ? runServe(plan, seconds, traced, expected, check)
        : runInProcess(plan, traced, expected, check);
    std::ostringstream os;
    os << "{\"workload\":" << quoted(plan.workload)
       << ",\"attempted\":" << check.attempted
       << ",\"failed\":" << check.failed << ",\"failures\":[";
    for (std::size_t i = 0; i < check.messages.size(); ++i)
        os << (i ? "," : "") << quoted(check.messages[i]);
    os << "],\"samples\":" << body << "}\n";
    return writeFileAtomic(out, os.str()) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 2 && args[0] == "setup")
            return modeSetup(args[1]);
        if (args.size() == 3 && args[0] == "record")
            return modeRecord(loadPlan(args[1]), args[2]);
        if (args.size() == 6 && args[0] == "run" &&
            (args[4] == "0" || args[4] == "1"))
            return modeRun(loadPlan(args[1], std::stoul(args[2])),
                           std::stod(args[3]), args[4] == "1", args[5]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_driver: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: campaign_driver setup <plan>\n"
                 "       campaign_driver run <plan> <pass> <seconds> <0|1> "
                 "<out>\n"
                 "       campaign_driver record <plan> <out>\n");
    return 2;
}
