#include "sim/campaign_shard.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/json.hh"
#include "common/random.hh"

namespace dmdc
{

std::string
journalIdentity(const std::string &benchmark, const std::string &scheme,
                unsigned config)
{
    std::string id = benchmark;
    id += '|';
    id += scheme;
    id += '|';
    id += std::to_string(config);
    return id;
}

// ---- shard spec ------------------------------------------------------

bool
parseShardSpec(const std::string &text, ShardSpec &out, std::string &err)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        err = "expected --shard=i/N (e.g. 0/2), got '" + text + "'";
        return false;
    }
    const std::string idx = text.substr(0, slash);
    const std::string cnt = text.substr(slash + 1);
    for (const std::string &part : {idx, cnt}) {
        if (part.empty() ||
            !std::all_of(part.begin(), part.end(), [](unsigned char c) {
                return std::isdigit(c) != 0;
            })) {
            err = "shard spec '" + text + "' is not of the form i/N";
            return false;
        }
        if (part.size() > 6) {
            err = "shard spec '" + text + "' is out of range";
            return false;
        }
    }
    const unsigned long i = std::stoul(idx);
    const unsigned long n = std::stoul(cnt);
    if (n == 0) {
        err = "shard count must be >= 1";
        return false;
    }
    if (i >= n) {
        err = "shard index " + idx + " out of range for " + cnt +
              " shards (indices are 0-based)";
        return false;
    }
    out.index = static_cast<unsigned>(i);
    out.count = static_cast<unsigned>(n);
    return true;
}

std::string
shardSpecName(const ShardSpec &spec)
{
    return std::to_string(spec.index) + '/' + std::to_string(spec.count);
}

std::string
runIdentity(const SimOptions &opt)
{
    std::ostringstream os;
    os << opt.benchmark << '|' << opt.scheme << '|' << opt.configLevel
       << '|' << opt.warmupInsts << '|' << opt.runInsts << '|'
       << opt.invalidationsPer1kCycles << '|' << opt.coherence << '|'
       << opt.safeLoads << '|' << opt.sqFilter << '|' << opt.numYlaQw
       << '|' << opt.tableEntriesOverride << '|' << opt.queueEntries
       << '|' << (opt.observers.empty() && !opt.tweak ? 0 : 1);
    return os.str();
}

std::string
campaignFingerprint(const std::vector<SimOptions> &runs)
{
    std::uint64_t h = 0;
    for (const SimOptions &opt : runs) {
        const std::string id = runIdentity(opt);
        h = hashBytes(id.data(), id.size(), h);
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---- partition -------------------------------------------------------

namespace
{

/** A group of runs sharing one journal identity. */
struct RunGroup
{
    std::string key;
    std::uint64_t hash = 0; ///< deterministic tie-breaker
    double cost = 0.0;      ///< summed member cost
    std::vector<std::size_t> members; ///< indices into the run list
};

/** Group @p runs by journal identity, accumulating instruction-budget
 *  cost per group. Order of first appearance. */
std::vector<RunGroup>
groupRunsByIdentity(const std::vector<SimOptions> &runs)
{
    std::vector<RunGroup> groups;
    std::unordered_map<std::string, std::size_t> byKey;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimOptions &opt = runs[i];
        const std::string key = journalIdentity(
            opt.benchmark, opt.scheme, opt.configLevel);
        auto it = byKey.find(key);
        if (it == byKey.end()) {
            it = byKey.emplace(key, groups.size()).first;
            groups.push_back(
                {key, hashBytes(key.data(), key.size()), 0.0, {}});
        }
        RunGroup &g = groups[it->second];
        // Simulation cost is linear in the instruction budget; the
        // budget is the best machine-independent estimate available
        // before running.
        g.cost += static_cast<double>(opt.warmupInsts) +
                  static_cast<double>(opt.runInsts);
        g.members.push_back(i);
    }
    return groups;
}

/**
 * Longest-processing-time greedy: big groups first, each placed on
 * the least-loaded of @p bins. Returns one bin per group. The (hash,
 * key) tie-breakers make the order, and therefore the whole
 * assignment, a pure function of the group list.
 */
std::vector<unsigned>
lptAssignGroups(const std::vector<RunGroup> &groups, unsigned bins)
{
    std::vector<unsigned> assignment(groups.size(), 0);
    std::vector<std::size_t> order(groups.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const RunGroup &ga = groups[a];
                  const RunGroup &gb = groups[b];
                  return std::tie(gb.cost, ga.hash, ga.key) <
                         std::tie(ga.cost, gb.hash, gb.key);
              });
    std::vector<double> load(bins, 0.0);
    for (std::size_t idx : order) {
        std::size_t target = 0;
        for (std::size_t s = 1; s < load.size(); ++s) {
            if (load[s] < load[target])
                target = s;
        }
        load[target] += groups[idx].cost;
        assignment[idx] = static_cast<unsigned>(target);
    }
    return assignment;
}

} // namespace

std::vector<unsigned>
shardAssignment(const std::vector<SimOptions> &runs, unsigned shardCount)
{
    std::vector<unsigned> assignment(runs.size(), 0);
    if (shardCount <= 1 || runs.empty())
        return assignment;

    // Group by journal identity so repeated (benchmark, scheme,
    // config) triples — legal within one campaign — can never be split
    // across shards, which would break the merger's disjointness
    // invariant.
    const std::vector<RunGroup> groups = groupRunsByIdentity(runs);
    const std::vector<unsigned> bins =
        lptAssignGroups(groups, shardCount);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t member : groups[g].members)
            assignment[member] = bins[g];
    }
    return assignment;
}

// ---- journal model ---------------------------------------------------

bool
journalEntryLess(const JournalEntry &a, const JournalEntry &b)
{
    return std::tie(a.benchmark, a.scheme, a.config, a.status, a.error) <
           std::tie(b.benchmark, b.scheme, b.config, b.status, b.error);
}

void
writeJournalEntry(std::ostream &os, const JournalEntry &e)
{
    os << "\n  {\"benchmark\":\"" << e.benchmark
       << "\",\"scheme\":\"" << e.scheme
       << "\",\"config\":" << e.config
       << ",\"status\":\"" << runStatusName(e.status) << '"';
    if (e.status == RunStatus::Ok) {
        os << ",\"ipc\":" << e.ipcToken
           << ",\"cycles\":" << e.cyclesToken;
    } else {
        os << ",\"category\":\"" << jsonEscapeString(e.category)
           << "\",\"error\":\"" << jsonEscapeString(e.error) << '"';
    }
    os << '}';
}

// ---- JSON parsing ----------------------------------------------------

bool
parseShardJournal(const std::string &text, ShardJournal &out,
                  std::string &err)
{
    out = ShardJournal{};
    JsonValue root;
    if (!parseJson(text, root, err))
        return false;
    if (root.kind != JsonValue::Kind::Object) {
        err = "journal is not a JSON object";
        return false;
    }

    if (!fieldUnsigned(root, "version", out.version)) {
        err = "journal header missing numeric 'version' field";
        return false;
    }
    if (!fieldString(root, "commit", out.commit)) {
        err = "journal header missing 'commit' field";
        return false;
    }

    const JsonValue *campaign = root.find("campaign");
    const bool hasIndex = root.find("shard_index") != nullptr;
    const bool hasCount = root.find("shard_count") != nullptr;
    const bool hasTotal = root.find("runs_total") != nullptr;
    if (campaign || hasIndex || hasCount || hasTotal) {
        if (!campaign || campaign->kind != JsonValue::Kind::String ||
            !hasIndex || !hasCount || !hasTotal) {
            err = "journal has a partial shard header (need campaign, "
                  "shard_index, shard_count, runs_total)";
            return false;
        }
        if (!fieldUnsigned(root, "shard_index", out.shardIndex) ||
            !fieldUnsigned(root, "shard_count", out.shardCount) ||
            !fieldU64(root, "runs_total", out.runsTotal)) {
            err = "journal shard header fields must be unsigned "
                  "integers";
            return false;
        }
        if (out.shardCount == 0 || out.shardIndex >= out.shardCount) {
            err = "journal shard_index/shard_count out of range";
            return false;
        }
        out.sharded = true;
        out.campaign = campaign->text;
    }

    const JsonValue *results = root.find("results");
    if (!results || results->kind != JsonValue::Kind::Array) {
        err = "journal has no 'results' array";
        return false;
    }
    out.entries.reserve(results->items.size());
    for (const JsonValue &item : results->items) {
        if (item.kind != JsonValue::Kind::Object) {
            err = "journal 'results' element is not an object";
            return false;
        }
        JournalEntry e;
        std::string status;
        if (!fieldString(item, "benchmark", e.benchmark) ||
            !fieldString(item, "scheme", e.scheme) ||
            !fieldUnsigned(item, "config", e.config) ||
            !fieldString(item, "status", status)) {
            err = "journal record missing benchmark/scheme/config/"
                  "status";
            return false;
        }
        if (!parseRunStatus(status, e.status)) {
            err = "journal record has unknown status '" + status + "'";
            return false;
        }
        if (e.status == RunStatus::Ok) {
            // Validated as numbers, kept as raw tokens so the merged
            // journal re-emits the shard's exact bytes.
            double ipc = 0.0;
            std::uint64_t cycles = 0;
            if (!fieldDouble(item, "ipc", ipc) ||
                !fieldU64(item, "cycles", cycles)) {
                err = "ok journal record missing ipc/cycles";
                return false;
            }
            e.ipcToken = item.find("ipc")->text;
            e.cyclesToken = item.find("cycles")->text;
        } else {
            if (!fieldString(item, "category", e.category) ||
                !fieldString(item, "error", e.error)) {
                err = "failure journal record missing category/error";
                return false;
            }
        }
        out.entries.push_back(std::move(e));
    }
    return true;
}

bool
loadShardJournal(const std::string &path, ShardJournal &out,
                 std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open journal '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    if (!parseShardJournal(ss.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

// ---- merging ---------------------------------------------------------

bool
mergeShardJournals(const std::vector<ShardJournal> &shards,
                   ShardJournal &out, std::string &err)
{
    out = ShardJournal{};
    if (shards.empty()) {
        err = "no shard journals to merge";
        return false;
    }
    const ShardJournal &first = shards.front();
    if (!first.sharded) {
        err = "journal 0 has no shard header (not a --shard journal)";
        return false;
    }
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardJournal &s = shards[i];
        if (!s.sharded) {
            err = "journal " + std::to_string(i) +
                  " has no shard header (not a --shard journal)";
            return false;
        }
        if (s.version != first.version) {
            err = "journal " + std::to_string(i) +
                  " has a different format version";
            return false;
        }
        if (s.commit != first.commit) {
            err = "journal " + std::to_string(i) +
                  " was produced by a different build (commit '" +
                  s.commit + "' vs '" + first.commit + "')";
            return false;
        }
        if (s.campaign != first.campaign) {
            err = "journal " + std::to_string(i) +
                  " belongs to a foreign campaign (fingerprint '" +
                  s.campaign + "' vs '" + first.campaign + "')";
            return false;
        }
        if (s.shardCount != first.shardCount ||
            s.runsTotal != first.runsTotal) {
            err = "journal " + std::to_string(i) +
                  " disagrees on shard count or campaign run total";
            return false;
        }
    }
    // Name the offender: "have 2 of 3 journals" sends the user
    // hunting; "missing shard 1/3" tells them which worker's output
    // to look for.
    std::vector<bool> seen(first.shardCount, false);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardJournal &s = shards[i];
        if (seen[s.shardIndex]) {
            err = "duplicate journal for shard " +
                  std::to_string(s.shardIndex) + "/" +
                  std::to_string(first.shardCount) +
                  " (journal " + std::to_string(i) +
                  " repeats an earlier slice)";
            return false;
        }
        seen[s.shardIndex] = true;
    }
    if (shards.size() != first.shardCount) {
        std::string missing;
        for (unsigned i = 0; i < first.shardCount; ++i) {
            if (!seen[i]) {
                if (!missing.empty())
                    missing += ", ";
                missing += std::to_string(i) + "/" +
                           std::to_string(first.shardCount);
            }
        }
        err = "incomplete shard set: have " +
              std::to_string(shards.size()) + " of " +
              std::to_string(first.shardCount) +
              " journals; missing shard " + missing;
        return false;
    }

    // Journal identities must be disjoint across shards: the
    // partitioner co-locates equal (benchmark, scheme, config)
    // triples, so any cross-shard repeat means the inputs mix
    // different campaigns or a shard ran the wrong slice.
    std::unordered_map<std::string, unsigned> owner;
    std::size_t records = 0;
    for (const ShardJournal &s : shards) {
        records += s.entries.size();
        for (const JournalEntry &e : s.entries) {
            const std::string id =
                journalIdentity(e.benchmark, e.scheme, e.config);
            auto it = owner.find(id);
            if (it != owner.end() && it->second != s.shardIndex) {
                err = "run " + id + " appears in both shard " +
                      std::to_string(it->second) + " and shard " +
                      std::to_string(s.shardIndex) +
                      " (overlapping slices)";
                return false;
            }
            owner.emplace(id, s.shardIndex);
        }
    }
    if (records != first.runsTotal) {
        // Per-shard breakdown so the short slice is identifiable at a
        // glance (a crashed worker's partial journal shows up here).
        std::string breakdown;
        for (const ShardJournal &s : shards) {
            if (!breakdown.empty())
                breakdown += ", ";
            breakdown += "shard " + std::to_string(s.shardIndex) +
                         ": " + std::to_string(s.entries.size());
        }
        err = "shard journals hold " + std::to_string(records) +
              " records, campaign expects " +
              std::to_string(first.runsTotal) +
              " (incomplete or over-complete slice union; " +
              breakdown + ")";
        return false;
    }

    out.version = first.version;
    out.commit = first.commit;
    for (const ShardJournal &s : shards) {
        out.entries.insert(out.entries.end(), s.entries.begin(),
                           s.entries.end());
    }
    std::sort(out.entries.begin(), out.entries.end(), journalEntryLess);
    return true;
}

void
writeMergedJournal(std::ostream &os, const ShardJournal &journal)
{
    std::vector<JournalEntry> entries = journal.entries;
    std::sort(entries.begin(), entries.end(), journalEntryLess);
    os << "{\"version\":" << journal.version
       << ",\"commit\":\"" << journal.commit << '"'
       << ",\"results\":[";
    bool first = true;
    for (const JournalEntry &e : entries) {
        if (!first)
            os << ',';
        first = false;
        writeJournalEntry(os, e);
    }
    os << "\n]}\n";
}

} // namespace dmdc
