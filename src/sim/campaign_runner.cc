/**
 * @file
 * Parallel campaign engine implementation: fingerprinting, the
 * CRC-protected in-process/on-disk run cache (which doubles as the
 * resume mechanism), the fault-isolated fan-out loop, and the bench
 * journal (which doubles as the campaign failure manifest).
 */

#include "sim/campaign_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include <csignal>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/build_info.hh"
#include "common/crc32.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/trace_sink.hh"
#include "lsq/policy/registry.hh"
#include "sim/fault_injector.hh"
#include "sim/heartbeat.hh"
#include "sim/run_scheduler.hh"

namespace dmdc
{

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
        Clock::now() - since).count();
}

/** Interned-once trace identities for the campaign runner layer. */
struct RunnerTrace
{
    TraceCategory &cat = traceCategory("runner");
    std::uint16_t campaign = traceNameId("campaign");
    std::uint16_t memHit = traceNameId("cache-mem-hit");
    std::uint16_t diskHit = traceNameId("cache-disk-hit");
    std::uint16_t quarantine = traceNameId("cache-quarantine");
    std::uint16_t retry = traceNameId("retry");
};

RunnerTrace &
runnerTrace()
{
    static RunnerTrace ids;
    return ids;
}

/** Escape @p s for embedding in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

/**
 * Fingerprint of the simulator behaviour surface: the policy
 * registry's version string (API version + every scheme@revision),
 * hashed. Any registered-scheme change or declared behaviour revision
 * self-invalidates every stale cache entry.
 */
const std::string &
sourceFingerprint()
{
    static const std::string fp = [] {
        const std::string v =
            DependencePolicyRegistry::instance().versionString();
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          hashBytes(v.data(), v.size())));
        return std::string(buf);
    }();
    return fp;
}

/** Current wall-clock time as an ISO-8601 UTC string. */
std::string
utcTimestamp()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

// ---- JSON writing ----------------------------------------------------

/**
 * Flat object writer; benchmark names are [a-z0-9_.-] so no string
 * escaping is required beyond quoting.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    void open(const char *key = nullptr)
    {
        comma();
        if (key)
            os_ << '"' << key << "\":";
        os_ << '{';
        first_ = true;
    }

    void close()
    {
        os_ << '}';
        first_ = false;
    }

    void field(const char *key, const std::string &v)
    {
        comma();
        os_ << '"' << key << "\":\"" << v << '"';
    }

    void field(const char *key, bool v)
    {
        comma();
        os_ << '"' << key << "\":" << (v ? "true" : "false");
    }

    void field(const char *key, std::uint64_t v)
    {
        comma();
        os_ << '"' << key << "\":" << v;
    }

    void field(const char *key, unsigned v)
    {
        field(key, static_cast<std::uint64_t>(v));
    }

    void field(const char *key, double v)
    {
        comma();
        os_ << '"' << key << "\":" << jsonDoubleToken(v);
    }

  private:
    void comma()
    {
        if (!first_)
            os_ << ',';
        first_ = false;
    }

    std::ostream &os_;
    bool first_ = true;
};

// ---- SimResult <-> JSON ---------------------------------------------

void
writeResult(JsonWriter &w, const SimResult &r)
{
    w.open("result");
    w.field("benchmark", r.benchmark);
    w.field("fp", r.fp);
    w.field("config_level", r.configLevel);
    w.field("scheme", r.scheme);
    w.field("instructions", r.instructions);
    w.field("cycles", r.cycles);
    w.field("ipc", r.ipc);
    w.field("lq_searches", r.lqSearches);
    w.field("lq_searches_filtered", r.lqSearchesFiltered);
    w.field("sq_searches", r.sqSearches);
    w.field("sq_searches_filtered", r.sqSearchesFiltered);
    w.field("age_table_replays", r.ageTableReplays);
    w.field("loads_older_than_all_stores", r.loadsOlderThanAllStores);
    w.field("committed_loads", r.committedLoads);
    w.field("committed_stores", r.committedStores);
    w.field("safe_store_frac", r.safeStoreFrac);
    w.field("safe_load_frac", r.safeLoadFrac);
    w.field("checking_cycle_frac", r.checkingCycleFrac);
    w.field("window_instrs", r.windowInstrs);
    w.field("window_loads", r.windowLoads);
    w.field("window_safe_loads", r.windowSafeLoads);
    w.field("window_single_store_frac", r.windowSingleStoreFrac);
    w.field("window_marked_entries", r.windowMarkedEntries);
    w.field("dmdc_replays", r.dmdcReplays);
    w.field("baseline_replays", r.baselineReplays);
    w.field("true_violations", r.trueViolations);
    w.field("true_replays", r.trueReplays);
    w.field("false_addr_x", r.falseAddrX);
    w.field("false_addr_y", r.falseAddrY);
    w.field("false_hash_before", r.falseHashBefore);
    w.field("false_hash_x", r.falseHashX);
    w.field("false_hash_y", r.falseHashY);
    w.field("false_overflow", r.falseOverflow);
    w.open("energy");
    w.field("fetch", r.energy.fetch);
    w.field("bpred", r.energy.bpred);
    w.field("rename", r.energy.rename);
    w.field("rob", r.energy.rob);
    w.field("issue_queue", r.energy.issueQueue);
    w.field("regfile", r.energy.regfile);
    w.field("fu", r.energy.fu);
    w.field("l1d", r.energy.l1d);
    w.field("l2", r.energy.l2);
    w.field("clock", r.energy.clock);
    w.field("lq_cam", r.energy.lqCam);
    w.field("sq", r.energy.sq);
    w.field("yla", r.energy.yla);
    w.field("checking", r.energy.checking);
    w.close();
    w.close();
}

/**
 * Read the "result" object writeResult() emitted. False when any
 * field is absent, of the wrong kind, negative or out of range: a
 * frame-valid entry that does not read back exactly is corruption,
 * never a zeroed or wrapped result.
 */
bool
readResult(const JsonValue &entry, SimResult &r)
{
    const JsonValue *res = entry.find("result");
    const JsonValue *en = res ? res->find("energy") : nullptr;
    if (!en)
        return false;
    const JsonValue &v = *res;
    EnergyBreakdown &e = r.energy;
    return fieldString(v, "benchmark", r.benchmark) &&
        fieldBool(v, "fp", r.fp) &&
        fieldUnsigned(v, "config_level", r.configLevel) &&
        fieldString(v, "scheme", r.scheme) &&
        fieldU64(v, "instructions", r.instructions) &&
        fieldU64(v, "cycles", r.cycles) &&
        fieldDouble(v, "ipc", r.ipc) &&
        fieldU64(v, "lq_searches", r.lqSearches) &&
        fieldU64(v, "lq_searches_filtered", r.lqSearchesFiltered) &&
        fieldU64(v, "sq_searches", r.sqSearches) &&
        fieldU64(v, "sq_searches_filtered", r.sqSearchesFiltered) &&
        fieldU64(v, "age_table_replays", r.ageTableReplays) &&
        fieldU64(v, "loads_older_than_all_stores",
                 r.loadsOlderThanAllStores) &&
        fieldU64(v, "committed_loads", r.committedLoads) &&
        fieldU64(v, "committed_stores", r.committedStores) &&
        fieldDouble(v, "safe_store_frac", r.safeStoreFrac) &&
        fieldDouble(v, "safe_load_frac", r.safeLoadFrac) &&
        fieldDouble(v, "checking_cycle_frac", r.checkingCycleFrac) &&
        fieldDouble(v, "window_instrs", r.windowInstrs) &&
        fieldDouble(v, "window_loads", r.windowLoads) &&
        fieldDouble(v, "window_safe_loads", r.windowSafeLoads) &&
        fieldDouble(v, "window_single_store_frac",
                    r.windowSingleStoreFrac) &&
        fieldDouble(v, "window_marked_entries",
                    r.windowMarkedEntries) &&
        fieldU64(v, "dmdc_replays", r.dmdcReplays) &&
        fieldU64(v, "baseline_replays", r.baselineReplays) &&
        fieldU64(v, "true_violations", r.trueViolations) &&
        fieldU64(v, "true_replays", r.trueReplays) &&
        fieldU64(v, "false_addr_x", r.falseAddrX) &&
        fieldU64(v, "false_addr_y", r.falseAddrY) &&
        fieldU64(v, "false_hash_before", r.falseHashBefore) &&
        fieldU64(v, "false_hash_x", r.falseHashX) &&
        fieldU64(v, "false_hash_y", r.falseHashY) &&
        fieldU64(v, "false_overflow", r.falseOverflow) &&
        fieldDouble(*en, "fetch", e.fetch) &&
        fieldDouble(*en, "bpred", e.bpred) &&
        fieldDouble(*en, "rename", e.rename) &&
        fieldDouble(*en, "rob", e.rob) &&
        fieldDouble(*en, "issue_queue", e.issueQueue) &&
        fieldDouble(*en, "regfile", e.regfile) &&
        fieldDouble(*en, "fu", e.fu) &&
        fieldDouble(*en, "l1d", e.l1d) &&
        fieldDouble(*en, "l2", e.l2) &&
        fieldDouble(*en, "clock", e.clock) &&
        fieldDouble(*en, "lq_cam", e.lqCam) &&
        fieldDouble(*en, "sq", e.sq) &&
        fieldDouble(*en, "yla", e.yla) &&
        fieldDouble(*en, "checking", e.checking);
}

// ---- bench journal / failure manifest --------------------------------

struct JournalRecord
{
    std::string benchmark;
    std::string scheme;
    unsigned configLevel;
    double ipc;
    std::uint64_t cycles;
    double wallMs;
    double simKhz;  ///< simulated kilocycles per wall second; 0 cached
    bool cached;
    RunStatus status;
    std::string category; ///< empty when ok
    std::string error;    ///< empty when ok
    unsigned attempts;
    unsigned shard;

    // Oracle verdict of a checked run ("off" otherwise). Emitted only
    // in the non-deterministic journal: --check=off journals must stay
    // byte-identical to pre-oracle ones, and checked runs are excluded
    // from the deterministic format by construction (uncacheable).
    std::string checkMode = "off";
    std::uint64_t oracleLoads = 0;
    std::uint64_t oracleStale = 0;
    std::uint64_t oracleForbidden = 0;
};

struct Journal
{
    std::mutex mutex;
    std::string path;
    bool deterministic = false;
    std::vector<JournalRecord> records;

    // Shard header state, accumulated across runChecked() calls: a
    // harness may run several campaigns into one journal, so the
    // campaign fingerprint chains and the run totals add up.
    bool sharded = false;
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    std::uint64_t runsTotal = 0;
    std::uint64_t campaignHash = 0;
};

Journal &
journal()
{
    static Journal j;
    return j;
}

void
appendJournal(const SimResult &r, const RunOutcome &oc)
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    // cycles per wall millisecond == simulated kilocycles per second.
    // A cached result cost no simulation time; record 0 rather than a
    // nonsense rate derived from the cache-lookup latency.
    const double sim_khz = (!oc.cached && oc.wallMs > 0.0)
        ? static_cast<double>(r.cycles) / oc.wallMs : 0.0;
    j.records.push_back({r.benchmark, r.scheme, r.configLevel, r.ipc,
                         r.cycles, oc.wallMs, sim_khz, oc.cached,
                         oc.status, "", "", oc.attempts, oc.shard,
                         r.checkMode, r.oracleLoadsChecked,
                         r.oracleStaleCommits, r.oracleForbidden});
}

void
appendJournalFailure(const SimOptions &opt, const RunOutcome &oc)
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    j.records.push_back({opt.benchmark, opt.scheme, opt.configLevel,
                         0.0, 0, oc.wallMs, 0.0, false, oc.status,
                         runErrorCategoryName(oc.category), oc.error,
                         oc.attempts, oc.shard,
                         checkModeName(opt.check), 0, 0, 0});
}

/**
 * Stamp the journal as one shard's slice of a campaign. Called once
 * per runChecked() campaign in sharded mode; fingerprints chain so a
 * multi-campaign harness still yields one comparable campaign id.
 */
void
journalNoteShardSlice(const std::string &fingerprint,
                      std::size_t campaignRuns, const ShardSpec &spec)
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    j.sharded = true;
    j.shardIndex = spec.index;
    j.shardCount = spec.count;
    j.runsTotal += campaignRuns;
    j.campaignHash = hashBytes(fingerprint.data(), fingerprint.size(),
                               j.campaignHash);
}

} // namespace

void
setCampaignJournal(const std::string &path, bool deterministic)
{
    Journal &j = journal();
    {
        std::lock_guard<std::mutex> lock(j.mutex);
        // Retargeting starts a fresh journal; the records of the
        // previous target belong to its file (already flushed or
        // about to be dropped), not to the new one.
        if (path != j.path) {
            j.records.clear();
            j.sharded = false;
            j.shardIndex = 0;
            j.shardCount = 1;
            j.runsTotal = 0;
            j.campaignHash = 0;
        }
        j.path = path;
        j.deterministic = deterministic;
    }
    // Benches exit through main()'s return; flush without requiring
    // every harness to remember a call.
    static const bool registered = [] {
        std::atexit(flushCampaignJournal);
        return true;
    }();
    (void)registered;
}

void
flushCampaignJournal()
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    // Serialize to memory and publish atomically: the journal is the
    // campaign's failure manifest, and a worker killed mid-flush must
    // leave either the previous complete journal or the new one on
    // disk — never a torn file.
    std::ostringstream os;
    os << "{\"version\":" << kCacheFormatVersion
       << ",\"commit\":\"" << buildCommit() << '"';
    if (!j.deterministic)
        os << ",\"generated_utc\":\"" << utcTimestamp() << '"';
    if (j.sharded) {
        // Shard journals carry what the merger needs to validate that
        // a journal set belongs together: the (chained) campaign
        // fingerprint, this slice's coordinates, and the full
        // campaign's run count.
        char fp[20];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(j.campaignHash));
        os << ",\"campaign\":\"" << fp
           << "\",\"shard_index\":" << j.shardIndex
           << ",\"shard_count\":" << j.shardCount
           << ",\"runs_total\":" << j.runsTotal;
    }
    os << ",\"results\":[";
    if (j.deterministic) {
        // Workers append in completion order; canonicalize through
        // the shared serializer so shard journals merge into a file
        // byte-identical to a single-process one (campaign_shard.hh).
        std::vector<JournalEntry> entries;
        entries.reserve(j.records.size());
        for (const JournalRecord &rec : j.records) {
            JournalEntry e;
            e.benchmark = rec.benchmark;
            e.scheme = rec.scheme;
            e.config = rec.configLevel;
            e.status = rec.status;
            if (rec.status == RunStatus::Ok) {
                e.ipcToken = jsonDoubleToken(rec.ipc);
                e.cyclesToken = std::to_string(rec.cycles);
            } else {
                e.category = rec.category;
                e.error = rec.error;
            }
            entries.push_back(std::move(e));
        }
        std::sort(entries.begin(), entries.end(), journalEntryLess);
        bool first = true;
        for (const JournalEntry &e : entries) {
            if (!first)
                os << ',';
            first = false;
            writeJournalEntry(os, e);
        }
    } else {
        bool first = true;
        for (const JournalRecord &rec : j.records) {
            if (!first)
                os << ',';
            first = false;
            os << "\n  {\"benchmark\":\"" << rec.benchmark
               << "\",\"scheme\":\"" << rec.scheme
               << "\",\"config\":" << rec.configLevel
               << ",\"status\":\"" << runStatusName(rec.status) << '"';
            if (rec.status == RunStatus::Ok) {
                os << ",\"ipc\":" << jsonDoubleToken(rec.ipc)
                   << ",\"cycles\":" << rec.cycles;
            } else {
                os << ",\"category\":\"" << jsonEscape(rec.category)
                   << "\",\"error\":\"" << jsonEscape(rec.error) << '"';
            }
            os << ",\"attempts\":" << rec.attempts
               << ",\"wall_ms\":" << jsonDoubleToken(rec.wallMs)
               << ",\"sim_khz\":" << jsonDoubleToken(rec.simKhz)
               << ",\"cached\":" << (rec.cached ? "true" : "false");
            if (rec.checkMode != "off") {
                os << ",\"check\":\"" << rec.checkMode
                   << "\",\"oracle_loads\":" << rec.oracleLoads
                   << ",\"oracle_stale\":" << rec.oracleStale
                   << ",\"oracle_forbidden\":" << rec.oracleForbidden;
            }
            if (j.sharded)
                os << ",\"shard\":" << rec.shard;
            os << '}';
        }
    }
    os << "\n]}\n";
    if (!writeFileAtomic(j.path, os.str()))
        warn("cannot write bench journal '%s'", j.path.c_str());
    // Records stay buffered: flush is idempotent, so an explicit
    // flush followed by the atexit flush rewrites the same content
    // instead of truncating the journal to an empty one.
}

// ---- cooperative interruption & supervised-worker chaos --------------

namespace
{

std::atomic<bool> g_interruptRequested{false};

/** Set once a worker-hang fault fires: heartbeats stop advancing so
 *  the supervisor's staleness detector has something to detect. */
std::atomic<bool> g_heartbeatSilenced{false};

/** This worker's restart ordinal, set by the supervisor. Mixing it
 *  into worker-crash/hang decisions lets a respawned worker re-roll
 *  instead of replaying its predecessor's fate. */
unsigned
shardAttempt()
{
    static const unsigned attempt = [] {
        const char *env = std::getenv("DMDC_SHARD_ATTEMPT");
        return env ? static_cast<unsigned>(
                         std::strtoul(env, nullptr, 10)) : 0u;
    }();
    return attempt;
}

} // namespace

void
requestCampaignInterrupt()
{
    // Async-signal-safe: a lock-free store is all a handler may do.
    g_interruptRequested.store(true, std::memory_order_relaxed);
}

bool
campaignInterruptRequested()
{
    return g_interruptRequested.load(std::memory_order_relaxed);
}

// ---- fingerprinting --------------------------------------------------

bool
cacheableOptions(const SimOptions &opt)
{
    // Checked runs are deliberately uncacheable in both directions: a
    // cache hit would skip the simulation the oracle exists to verify,
    // and a checked result must never masquerade as a plain one.
    return opt.observers.empty() && !opt.tweak &&
        opt.check == CheckMode::Off && opt.coherenceAgent.empty();
}

const std::string &
policySourceFingerprint()
{
    return sourceFingerprint();
}

std::string
cacheKey(const SimOptions &opt)
{
    if (!cacheableOptions(opt))
        panic("cacheKey() on options with observers/tweak attached");
    std::ostringstream os;
    os << "dmdc-cache-v" << kCacheFormatVersion
       << "|src=" << sourceFingerprint()
       << "|bench=" << opt.benchmark
       << "|config=" << opt.configLevel
       << "|scheme=" << opt.scheme
       << "|warmup=" << opt.warmupInsts
       << "|insts=" << opt.runInsts
       << "|inv=" << jsonDoubleToken(opt.invalidationsPer1kCycles)
       << "|coherence=" << opt.coherence
       << "|safe_loads=" << opt.safeLoads
       << "|sq_filter=" << opt.sqFilter
       << "|yla_qw=" << opt.numYlaQw
       << "|table=" << opt.tableEntriesOverride
       << "|queue=" << opt.queueEntries;
    return os.str();
}

// ---- CampaignRunner --------------------------------------------------

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config))
{
    CacheStoreConfig sc;
    sc.dir = config_.cacheDir;
    sc.maxBytes = config_.cacheMaxBytes;
    sc.quarantineMaxEntries = config_.quarantineMaxEntries;
    sc.quarantineMaxBytes = config_.quarantineMaxBytes;
    diskStore_ = std::make_unique<CacheStore>(sc);
}

CampaignRunner::CacheLoad
CampaignRunner::loadFromDisk(const std::string &key, SimResult &out)
{
    // The store owns the framing (CRC header, truncation, version);
    // the runner owns the payload schema on top of it.
    std::string payload;
    switch (diskStore_->load(key, payload)) {
      case CacheStore::Load::Miss:
        return CacheLoad::Miss;
      case CacheStore::Load::Corrupt:
        return CacheLoad::Corrupt;
      case CacheStore::Load::Hit:
        break;
    }
    JsonValue entry;
    std::string err;
    if (!parseJson(payload, entry, err) ||
        entry.kind != JsonValue::Kind::Object) {
        diskStore_->quarantineKey(key, "has an unparsable payload");
        return CacheLoad::Corrupt;
    }
    // A hash collision surfaces as a key mismatch; that is a plain
    // miss (the fresh result overwrites the entry), not corruption.
    std::string stored_key;
    if (!fieldString(entry, "key", stored_key) || stored_key != key)
        return CacheLoad::Miss;
    if (!readResult(entry, out)) {
        diskStore_->quarantineKey(key, "is missing result fields");
        return CacheLoad::Corrupt;
    }
    return CacheLoad::Hit;
}

void
CampaignRunner::storeToDisk(const std::string &key, const SimResult &r)
{
    std::ostringstream payload_os;
    {
        JsonWriter w(payload_os);
        w.open();
        w.field("version",
                static_cast<std::uint64_t>(kCacheFormatVersion));
        w.field("key", key);
        writeResult(w, r);
        w.close();
        payload_os << '\n';
    }
    diskStore_->store(key, payload_os.str());
}

CampaignResult
CampaignRunner::runChecked(const std::vector<SimOptions> &runs_in,
                           bool verbose)
{
    // Materialize the campaign-wide --check/--agent override before
    // anything looks at the options: classification, fingerprints
    // and journaling must all see the checked options.
    std::vector<SimOptions> checked_runs;
    const std::vector<SimOptions> *run_list = &runs_in;
    if (config_.checkMode != CheckMode::Off ||
        !config_.coherenceAgent.empty()) {
        checked_runs = runs_in;
        for (SimOptions &o : checked_runs) {
            if (o.check == CheckMode::Off)
                o.check = config_.checkMode;
            if (o.coherenceAgent.empty())
                o.coherenceAgent = config_.coherenceAgent;
        }
        run_list = &checked_runs;
    }
    const std::vector<SimOptions> &runs = *run_list;

    RunnerTrace &rt = runnerTrace();
    TraceSpan campaign_span(rt.cat, rt.campaign);
    const auto t0 = Clock::now();
    CampaignStats stats;
    stats.runs = runs.size();
    const std::size_t quarantine_evicted_before =
        diskStore_->stats().quarantineEvicted;
    const std::size_t evicted_before = diskStore_->stats().evicted;

    CampaignResult cr;
    cr.results.resize(runs.size());
    cr.outcomes.resize(runs.size());

    // ---- shard partition ---------------------------------------------
    // Every shard process computes the same assignment from the same
    // run list; this process executes only its slice. Other slices
    // complete instantly as OutOfShard and are never journaled here.
    const ShardSpec shard = config_.shard;
    std::vector<unsigned> owner;
    if (shard.active()) {
        owner = shardAssignment(runs, shard.count);
        journalNoteShardSlice(campaignFingerprint(runs), runs.size(),
                              shard);
    }

    // ---- heartbeat ---------------------------------------------------
    // One atomic heartbeat file per shard process, advanced after
    // every run that reaches a terminal status. Progress-based on
    // purpose: a timer would keep beating while the simulation
    // threads are wedged, which is exactly what a supervisor needs to
    // detect (see heartbeat.hh).
    const std::string heartbeatPath =
        shardFilePath(config_.heartbeatPath, shard);
    std::mutex hb_mutex;
    HeartbeatRecord hb;
    hb.pid = static_cast<int>(::getpid());
    hb.runsTotal = runs.size();
    auto beat = [&](HeartbeatPhase phase) {
        if (heartbeatPath.empty() ||
            g_heartbeatSilenced.load(std::memory_order_relaxed))
            return;
        std::lock_guard<std::mutex> lock(hb_mutex);
        ++hb.counter;
        hb.phase = phase;
        writeHeartbeat(heartbeatPath, hb);
    };
    auto beat_progress = [&](const RunOutcome &oc) {
        if (heartbeatPath.empty())
            return;
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            if (oc.inShard())
                ++hb.completed;
        }
        beat(HeartbeatPhase::Running);
    };
    beat(HeartbeatPhase::Starting);

    // ---- classify: cache hits, leaders, followers --------------------
    struct Pending
    {
        std::size_t index;
        std::string key;        ///< empty for uncacheable runs
    };
    std::vector<Pending> pending;
    pending.reserve(runs.size());
    // key -> index of the run that will simulate it; duplicate keys
    // within one campaign simulate once and copy.
    std::unordered_map<std::string, std::size_t> leaders;
    std::vector<std::pair<std::size_t, std::size_t>> followers;

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimOptions &opt = runs[i];
        if (shard.active()) {
            cr.outcomes[i].shard = owner[i];
            if (owner[i] != shard.index) {
                RunOutcome &oc = cr.outcomes[i];
                oc.status = RunStatus::OutOfShard;
                oc.category = RunErrorCategory::Config;
                oc.error = "assigned to shard " +
                           std::to_string(owner[i]) + " of " +
                           std::to_string(shard.count);
                oc.attempts = 0;
                ++stats.outOfShard;
                beat_progress(oc);
                continue;
            }
        }
        if (!cacheableOptions(opt)) {
            ++stats.uncacheable;
            pending.push_back({i, ""});
            continue;
        }
        const std::string key = cacheKey(opt);
        if (config_.useCache) {
            {
                std::lock_guard<std::mutex> lock(memMutex_);
                auto it = memCache_.find(key);
                if (it != memCache_.end()) {
                    cr.results[i] = it->second;
                    ++stats.memoryHits;
                    traceInstant(rt.cat, rt.memHit);
                    cr.outcomes[i].cached = true;
                    cr.outcomes[i].attempts = 0;
                    appendJournal(cr.results[i], cr.outcomes[i]);
                    beat_progress(cr.outcomes[i]);
                    continue;
                }
            }
            const CacheLoad load = loadFromDisk(key, cr.results[i]);
            if (load == CacheLoad::Corrupt) {
                ++stats.quarantined;
                traceInstant(rt.cat, rt.quarantine);
            }
            if (load == CacheLoad::Hit) {
                ++stats.diskHits;
                traceInstant(rt.cat, rt.diskHit);
                std::lock_guard<std::mutex> lock(memMutex_);
                memCache_.emplace(key, cr.results[i]);
                cr.outcomes[i].cached = true;
                cr.outcomes[i].attempts = 0;
                appendJournal(cr.results[i], cr.outcomes[i]);
                beat_progress(cr.outcomes[i]);
                continue;
            }
        }
        auto [it, fresh] = leaders.try_emplace(key, i);
        if (!fresh) {
            followers.emplace_back(i, it->second);
            continue;
        }
        pending.push_back({i, key});
    }

    // ---- fan out, isolating each run ---------------------------------
    stats.simulated = pending.size();
    std::atomic<bool> abort_flag{false};
    if (!pending.empty()) {
        unsigned jobs = config_.jobs
            ? config_.jobs : defaultConcurrency();
        jobs = std::min<std::size_t>(jobs, pending.size());

        auto execute_run =
            [this, &runs, &cr, verbose, &abort_flag, &beat_progress,
             &rt](const Pending &p) {
                const auto run_t0 = Clock::now();
                RunOutcome oc;
                oc.shard = config_.shard.index;
                std::string id;
                const bool interrupted = campaignInterruptRequested();
                if (abort_flag.load(std::memory_order_relaxed) ||
                    interrupted) {
                    oc.status = RunStatus::Skipped;
                    oc.category = RunErrorCategory::SimInvariant;
                    oc.error = interrupted
                        ? "interrupted by signal"
                        : "skipped after earlier failure (fail-fast)";
                    oc.attempts = 0;
                } else {
                    SimOptions opt = runs[p.index];
                    if (opt.timeoutMs == 0.0)
                        opt.timeoutMs = config_.timeoutMs;
                    id = runIdentity(opt);
                    // Run lifecycle span, labeled with the run
                    // identity (one interned name per distinct triple)
                    // and covering every retry attempt.
                    TraceSpan run_span(
                        rt.cat, rt.cat.on() ? traceNameId(id) : 0);
                    for (unsigned attempt = 0;; ++attempt) {
                        oc.attempts = attempt + 1;
                        try {
                            if (FaultInjector::global().injectRunThrow(
                                    id, attempt)) {
                                throw RunError(
                                    RunErrorCategory::SimInvariant,
                                    "injected fault: run-throw",
                                    /*transient=*/true);
                            }
                            cr.results[p.index] = runSimulation(opt);
                            oc.status = RunStatus::Ok;
                            oc.error.clear();
                            break;
                        } catch (const RunError &e) {
                            oc.status = e.category() ==
                                    RunErrorCategory::Timeout
                                ? RunStatus::TimedOut
                                : RunStatus::Failed;
                            oc.category = e.category();
                            oc.error = e.what();
                            if (e.transient() &&
                                attempt < config_.maxRetries) {
                                traceInstant(rt.cat, rt.retry);
                                // Exponential backoff, capped: long
                                // enough to let a racing writer
                                // finish, short enough to not stall
                                // the pool.
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(
                                        1u << std::min(attempt, 5u)));
                                continue;
                            }
                            break;
                        } catch (const std::exception &e) {
                            oc.status = RunStatus::Failed;
                            oc.category =
                                RunErrorCategory::SimInvariant;
                            oc.error = e.what();
                            break;
                        } catch (...) {
                            oc.status = RunStatus::Failed;
                            oc.category =
                                RunErrorCategory::SimInvariant;
                            oc.error = "unknown exception";
                            break;
                        }
                    }
                }
                oc.wallMs = elapsedMs(run_t0);
                if (oc.ok()) {
                    const SimResult &r = cr.results[p.index];
                    if (!p.key.empty() && config_.useCache) {
                        {
                            std::lock_guard<std::mutex> lock(
                                memMutex_);
                            memCache_.emplace(p.key, r);
                        }
                        storeToDisk(p.key, r);
                    }
                    appendJournal(r, oc);
                    if (verbose) {
                        inform("  %-10s %-12s config%u  ipc=%.2f"
                               "  (%.0f ms%s)",
                               r.benchmark.c_str(), r.scheme.c_str(),
                               r.configLevel, r.ipc, oc.wallMs,
                               oc.attempts > 1 ? ", retried" : "");
                    }
                } else {
                    if (config_.failFast &&
                        oc.status != RunStatus::Skipped) {
                        abort_flag.store(true,
                                         std::memory_order_relaxed);
                    }
                    appendJournalFailure(runs[p.index], oc);
                    if (oc.status != RunStatus::Skipped) {
                        warn("  %s/%s config%u %s after %u "
                             "attempt(s): %s",
                             runs[p.index].benchmark.c_str(),
                             runs[p.index].scheme.c_str(),
                             runs[p.index].configLevel,
                             runStatusName(oc.status), oc.attempts,
                             oc.error.c_str());
                    }
                }
                cr.outcomes[p.index] = oc;
                beat_progress(oc);

                // Process-level chaos for the supervisor. Fires only
                // after a *freshly simulated* run has been cached, so
                // every injected crash strictly follows progress: the
                // restarted worker serves this run from the cache and
                // a shard with R runs can absorb at most R crashes
                // before finishing.
                if (oc.ok() && !id.empty()) {
                    FaultInjector &fi = FaultInjector::global();
                    if (fi.injectWorkerCrash(id, shardAttempt())) {
                        warn("injected fault: worker-crash after %s",
                             id.c_str());
                        std::raise(SIGKILL);
                    }
                    if (fi.injectWorkerHang(id, shardAttempt())) {
                        warn("injected fault: worker-hang after %s "
                             "(heartbeat silenced)", id.c_str());
                        g_heartbeatSilenced.store(
                            true, std::memory_order_relaxed);
                        // Wedge far past any hang deadline; the
                        // supervisor is expected to SIGKILL us first.
                        for (int t = 0; t < 6000; ++t) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(100));
                        }
                        std::_Exit(3);
                    }
                }
            };

        // The scheduler decides placement (see run_scheduler.hh):
        // runs land on per-worker queues keyed by journal identity,
        // and each worker drains its queue, then steals from the
        // others, until no unclaimed run remains.
        std::vector<ScheduledRun> items;
        items.reserve(pending.size());
        for (std::size_t s = 0; s < pending.size(); ++s) {
            const SimOptions &opt = runs[pending[s].index];
            items.push_back(
                {s,
                 journalIdentity(opt.benchmark, opt.scheme,
                                 opt.configLevel),
                 static_cast<double>(opt.warmupInsts) +
                     static_cast<double>(opt.runInsts)});
        }
        RunScheduler scheduler;
        scheduler.seed(std::move(items), jobs);
        std::vector<std::thread> workers;
        workers.reserve(jobs);
        for (unsigned w = 0; w < jobs; ++w) {
            workers.emplace_back([&, w] {
                traceSetThreadName("worker-" + std::to_string(w));
                ScheduledRun item;
                while (scheduler.next(w, item))
                    execute_run(pending[item.index]);
            });
        }
        for (std::thread &t : workers)
            t.join();
    }

    // ---- duplicate runs copy their leader ----------------------------
    for (const auto &[dst, src] : followers) {
        const RunOutcome &leader = cr.outcomes[src];
        RunOutcome oc;
        oc.shard = config_.shard.index;
        if (leader.ok()) {
            cr.results[dst] = cr.results[src];
            oc.cached = true;
            oc.attempts = 0;
            appendJournal(cr.results[dst], oc);
        } else {
            oc.status = RunStatus::Skipped;
            oc.category = leader.category;
            oc.error = "duplicate of a failed run";
            oc.attempts = 0;
            appendJournalFailure(runs[dst], oc);
        }
        cr.outcomes[dst] = oc;
        beat_progress(oc);
    }

    // ---- accounting + cache hygiene ----------------------------------
    for (const RunOutcome &oc : cr.outcomes) {
        switch (oc.status) {
          case RunStatus::Failed:   ++stats.failed;   break;
          case RunStatus::TimedOut: ++stats.timedOut; break;
          case RunStatus::Skipped:  ++stats.skipped;  break;
          case RunStatus::OutOfShard: break; // counted in classify
          default: break;
        }
        if (oc.attempts > 1)
            ++stats.retried;
    }
    if (config_.useCache) {
        diskStore_->evictToCap();
        stats.evicted = diskStore_->stats().evicted - evicted_before;
    }
    stats.quarantineEvicted =
        diskStore_->stats().quarantineEvicted -
        quarantine_evicted_before;

    beat(campaignInterruptRequested() ? HeartbeatPhase::Interrupted
                                      : HeartbeatPhase::Done);

    stats.wallMs = elapsedMs(t0);
    totalSimulated_ += stats.simulated;
    lastStats_ = stats;

    if (verbose || runs.size() > 1) {
        if (shard.active()) {
            inform("campaign shard %u/%u: %zu of %zu runs in this "
                   "slice",
                   shard.index, shard.count,
                   stats.runs - stats.outOfShard, stats.runs);
        }
        inform("campaign: %zu runs in %.2fs (%.1f sims/s; "
               "%zu simulated, %zu mem hits, %zu disk hits, "
               "%zu uncacheable)",
               stats.runs, stats.wallMs / 1000.0, stats.simsPerSec(),
               stats.simulated, stats.memoryHits, stats.diskHits,
               stats.uncacheable);
        if (stats.failed || stats.timedOut || stats.skipped ||
            stats.retried || stats.quarantined || stats.evicted ||
            stats.quarantineEvicted) {
            inform("campaign health: %zu failed, %zu timed out, "
                   "%zu skipped, %zu retried, %zu cache entries "
                   "quarantined, %zu evicted, %zu quarantine files "
                   "aged out",
                   stats.failed, stats.timedOut, stats.skipped,
                   stats.retried, stats.quarantined, stats.evicted,
                   stats.quarantineEvicted);
        }
    }
    return cr;
}

SimResult
CampaignRunner::runOne(const SimOptions &options, bool verbose)
{
    CampaignResult cr =
        runChecked(std::vector<SimOptions>{options}, verbose);
    const RunOutcome &oc = cr.outcomes.front();
    if (!oc.ok() && oc.inShard()) {
        flushCampaignJournal();
        fatal("run %s/%s config%u %s (%s: %s)",
              options.benchmark.c_str(), options.scheme.c_str(),
              options.configLevel, runStatusName(oc.status),
              runErrorCategoryName(oc.category), oc.error.c_str());
    }
    return std::move(cr.results.front());
}

namespace
{

struct GlobalRunner
{
    std::mutex mutex;
    CampaignConfig config;
    std::unique_ptr<CampaignRunner> runner;
};

GlobalRunner &
globalRunner()
{
    static GlobalRunner g;
    return g;
}

} // namespace

CampaignRunner &
CampaignRunner::global()
{
    GlobalRunner &g = globalRunner();
    std::lock_guard<std::mutex> lock(g.mutex);
    if (!g.runner)
        g.runner = std::make_unique<CampaignRunner>(g.config);
    return *g.runner;
}

void
CampaignRunner::configureGlobal(const CampaignConfig &config)
{
    GlobalRunner &g = globalRunner();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.config = config;
    g.runner.reset();
}

} // namespace dmdc
