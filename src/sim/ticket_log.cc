/**
 * @file
 * Durable ticket log implementation (see ticket_log.hh for the
 * record grammar and recovery semantics).
 */

#include "sim/ticket_log.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <sys/stat.h>

#include "common/append_log.hh"
#include "common/atomic_file.hh"
#include "common/crc32.hh"
#include "common/file_lock.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace dmdc
{

namespace
{

/**
 * The CRC covers a canonical field join, not the serialized line, so
 * the checksum is stable against formatting changes and the escaped
 * spec round-trips through the JSON layer before being re-covered.
 */
std::string
recordCrcInput(const std::string &op, const std::string &key,
               const std::string &spec, const std::string &status)
{
    std::string covered = op;
    covered += '|';
    covered += key;
    if (op == "submit") {
        covered += '|';
        covered += spec;
    } else if (op == "finish") {
        covered += '|';
        covered += status;
    }
    return covered;
}

std::string
formatTicketRecord(const std::string &op, const std::string &key,
                   const std::string &spec, const std::string &status)
{
    const std::string covered = recordCrcInput(op, key, spec, status);
    char crcBuf[16];
    std::snprintf(crcBuf, sizeof(crcBuf), "%08x",
                  crc32(covered.data(), covered.size()));
    std::string line = "{\"v\":";
    line += std::to_string(kTicketLogVersion);
    line += ",\"op\":\"";
    line += op;
    line += "\",\"key\":\"";
    line += jsonEscapeString(key);
    line += '"';
    if (op == "submit") {
        line += ",\"spec\":\"";
        line += jsonEscapeString(spec);
        line += '"';
    } else if (op == "finish") {
        line += ",\"status\":\"";
        line += jsonEscapeString(status);
        line += '"';
    }
    line += ",\"crc\":\"";
    line += crcBuf;
    line += "\"}\n";
    return line;
}

/**
 * Parse + CRC-check one log line. Unlike the cache index, ticket
 * records embed a nested JSON document (the run spec), so they go
 * through the real parser rather than a shape-strict sscanf.
 */
bool
parseTicketRecord(const std::string &line, std::string &op,
                  std::string &key, std::string &spec,
                  std::string &status)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(line, doc, err) ||
        doc.kind != JsonValue::Kind::Object)
        return false;
    const JsonValue *v = doc.find("v");
    const JsonValue *opv = doc.find("op");
    const JsonValue *keyv = doc.find("key");
    const JsonValue *crcv = doc.find("crc");
    if (!v || v->kind != JsonValue::Kind::Number ||
        v->text != std::to_string(kTicketLogVersion) ||
        !opv || opv->kind != JsonValue::Kind::String ||
        !keyv || keyv->kind != JsonValue::Kind::String ||
        !crcv || crcv->kind != JsonValue::Kind::String)
        return false;
    op = opv->text;
    key = keyv->text;
    spec.clear();
    status.clear();
    if (op == "submit") {
        const JsonValue *specv = doc.find("spec");
        if (!specv || specv->kind != JsonValue::Kind::String)
            return false;
        spec = specv->text;
    } else if (op == "finish") {
        const JsonValue *statusv = doc.find("status");
        if (!statusv || statusv->kind != JsonValue::Kind::String)
            return false;
        status = statusv->text;
    } else if (op != "start") {
        return false;
    }
    const std::string covered = recordCrcInput(op, key, spec, status);
    const std::uint32_t expected = static_cast<std::uint32_t>(
        std::strtoul(crcv->text.c_str(), nullptr, 16));
    return crc32(covered.data(), covered.size()) == expected;
}

} // namespace

TicketLog::TicketLog(std::string dir) : dir_(std::move(dir)) {}

std::string
TicketLog::logPath() const
{
    return dir_ + "/tickets.log";
}

std::string
TicketLog::lockPath() const
{
    return dir_ + "/tickets.lock";
}

void
TicketLog::append(const char *op, const std::string &key,
                  const std::string &spec, const std::string &status)
{
    if (!enabled())
        return;
    // The cache directory may not exist yet when the first submit
    // arrives before the first cache write; mirror CacheStore's lazy
    // creation so the log never races it.
    ::mkdir(dir_.c_str(), 0755);
    if (!appendLogLine(logPath(), lockPath(),
                       formatTicketRecord(op, key, spec, status))) {
        warn("ticket log: failed to append %s record for %s", op,
             key.c_str());
    }
}

void
TicketLog::appendSubmit(const std::string &key, const std::string &spec)
{
    append("submit", key, spec, "");
}

void
TicketLog::appendFinish(const std::string &key,
                        const std::string &status)
{
    append("finish", key, "", status);
}

TicketLogReplay
TicketLog::replay() const
{
    TicketLogReplay result;
    if (!enabled())
        return result;
    std::ifstream in(logPath());
    if (!in.is_open())
        return result;
    // Pending tickets keep first-submit order so a recovered queue
    // re-runs in roughly the order clients asked for it.
    std::unordered_map<std::string, std::size_t> index;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string op, key, spec, status;
        if (!parseTicketRecord(line, op, key, spec, status)) {
            ++result.corrupt;
            continue;
        }
        // "start" records come from older daemons and were never acted
        // on: a recovered ticket re-executes whether or not it had
        // started. They stay parseable so such a log does not read as
        // corrupt; the startup compaction drops them.
        if (op == "start")
            continue;
        auto it = index.find(key);
        if (op == "submit") {
            if (it == index.end()) {
                index.emplace(key, result.pending.size());
                result.pending.push_back({key, spec});
            } else {
                // Re-submit after a finish (or a duplicate submit):
                // the latest spec wins and the ticket is pending
                // again.
                PendingTicket &t = result.pending[it->second];
                if (t.key.empty())
                    ++result.finished;
                t = {key, spec};
            }
        } else if (it != index.end()) { // finish
            result.pending[it->second] = PendingTicket{};
        }
        // A finish for an unknown key: compaction dropped its submit
        // or the line was torn; nothing to recover.
    }
    std::vector<PendingTicket> pending;
    for (auto &t : result.pending) {
        if (t.key.empty())
            ++result.finished;
        else
            pending.push_back(std::move(t));
    }
    result.pending = std::move(pending);
    return result;
}

bool
TicketLog::compact(const std::vector<PendingTicket> &pending)
{
    if (!enabled())
        return false;
    ::mkdir(dir_.c_str(), 0755);
    FileLock lock(lockPath(), FileLock::Mode::Exclusive,
                  /*block=*/false);
    if (!lock.held())
        return false;
    std::ostringstream body;
    for (const auto &t : pending)
        body << formatTicketRecord("submit", t.key, t.spec, "");
    return writeFileAtomic(logPath(), body.str());
}

bool
TicketLog::shouldCompact(std::uint64_t appendedSinceCompact,
                         std::size_t pendingCount) const
{
    if (!enabled())
        return false;
    // Same shape as the cache index policy: don't bother until a few
    // hundred records have accumulated, and only when the log is
    // dominated by finished history rather than live work.
    if (appendedSinceCompact < 256)
        return false;
    return appendedSinceCompact > 4 * (pendingCount + 1);
}

} // namespace dmdc
