/**
 * @file
 * Heartbeat serialization and the supervisor-side staleness monitor.
 */

#include "sim/heartbeat.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"

namespace dmdc
{

namespace
{

constexpr unsigned kHeartbeatFormatVersion = 1;

} // namespace

const char *
heartbeatPhaseName(HeartbeatPhase phase)
{
    switch (phase) {
      case HeartbeatPhase::Starting:    return "starting";
      case HeartbeatPhase::Running:     return "running";
      case HeartbeatPhase::Interrupted: return "interrupted";
      case HeartbeatPhase::Done:        return "done";
    }
    return "?";
}

bool
parseHeartbeatPhase(const std::string &text, HeartbeatPhase &out)
{
    for (HeartbeatPhase p :
         {HeartbeatPhase::Starting, HeartbeatPhase::Running,
          HeartbeatPhase::Interrupted, HeartbeatPhase::Done}) {
        if (text == heartbeatPhaseName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

bool
writeHeartbeat(const std::string &path, const HeartbeatRecord &record)
{
    std::ostringstream os;
    os << "{\"version\":" << kHeartbeatFormatVersion
       << ",\"pid\":" << record.pid
       << ",\"counter\":" << record.counter
       << ",\"completed\":" << record.completed
       << ",\"runs_total\":" << record.runsTotal
       << ",\"phase\":\"" << heartbeatPhaseName(record.phase)
       << "\"}\n";
    return writeFileAtomic(path, os.str());
}

bool
readHeartbeat(const std::string &path, HeartbeatRecord &out,
              std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open heartbeat '" + path + "'";
        return false;
    }
    std::stringstream buf;
    buf << is.rdbuf();

    JsonValue root;
    std::string parse_err;
    if (!parseJson(buf.str(), root, parse_err) ||
        root.kind != JsonValue::Kind::Object) {
        err = "heartbeat '" + path + "' is malformed" +
              (parse_err.empty() ? "" : ": " + parse_err);
        return false;
    }
    unsigned version = 0;
    if (!fieldUnsigned(root, "version", version) ||
        version != kHeartbeatFormatVersion) {
        err = "heartbeat '" + path + "' has a foreign format version";
        return false;
    }
    HeartbeatRecord rec;
    unsigned pid = 0;
    std::string phase;
    if (!fieldU64(root, "counter", rec.counter) ||
        !fieldU64(root, "completed", rec.completed) ||
        !fieldU64(root, "runs_total", rec.runsTotal) ||
        !fieldUnsigned(root, "pid", pid) ||
        pid > static_cast<unsigned>(std::numeric_limits<int>::max()) ||
        !fieldString(root, "phase", phase)) {
        err = "heartbeat '" + path + "' has missing or ill-typed fields";
        return false;
    }
    if (!parseHeartbeatPhase(phase, rec.phase)) {
        err = "heartbeat '" + path + "' has unknown phase '" + phase +
              "'";
        return false;
    }
    rec.pid = static_cast<int>(pid);
    out = rec;
    return true;
}

// ---- HeartbeatMonitor ------------------------------------------------

void
HeartbeatMonitor::track(unsigned shard, double nowMs)
{
    State s;
    s.lastChangeMs = nowMs;
    shards_[shard] = s;
}

void
HeartbeatMonitor::observe(unsigned shard, std::uint64_t counter,
                          double nowMs)
{
    auto it = shards_.find(shard);
    if (it == shards_.end())
        return;
    State &s = it->second;
    if (!s.observed || s.counter != counter) {
        s.observed = true;
        s.counter = counter;
        s.lastChangeMs = nowMs;
    }
}

void
HeartbeatMonitor::forget(unsigned shard)
{
    shards_.erase(shard);
}

double
HeartbeatMonitor::silentMs(unsigned shard, double nowMs) const
{
    auto it = shards_.find(shard);
    if (it == shards_.end())
        return 0.0;
    return nowMs - it->second.lastChangeMs;
}

bool
HeartbeatMonitor::hung(unsigned shard, double nowMs) const
{
    if (deadlineMs_ <= 0.0 || !shards_.count(shard))
        return false;
    return silentMs(shard, nowMs) > deadlineMs_;
}

} // namespace dmdc
