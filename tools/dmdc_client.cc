/**
 * @file
 * dmdc_client — submit campaigns to a dmdc_serve daemon and retrieve
 * journals byte-identical to serial --json-deterministic runs.
 *
 * Usage:
 *   dmdc_client <command> [options]
 *
 * Commands:
 *   hello                  print the daemon's identity (handshake)
 *   submit                 submit the --bench/--scheme/--config cross
 *                          product; prints the campaign id. With
 *                          --json (or --wait) blocks for completion
 *                          and writes the deterministic journal.
 *   status                 show --campaign's progress
 *   results                fetch --campaign's journal (--wait blocks)
 *   cancel                 cancel --campaign
 *   stats                  print daemon-lifetime dedup counters
 *   shutdown               ask the daemon to drain and exit
 *
 * Options:
 *   --socket=<path>        daemon socket (default dmdc_serve.sock)
 *   --campaign=<id>        campaign id for status/results/cancel
 *   --json=<path>          write the retrieved journal here
 *   --wait                 block until the campaign completes
 *   --retries=<n>          transport/overload retry budget
 *   --retry-delay-ms=<ms>  base backoff delay (doubles per retry)
 *   --bench/--scheme/--config/--insts/--warmup/--yla/--table/
 *   --queue/--inv/--coherence/--no-safe-loads/--sq-filter
 *                          run-list knobs, spelled as in dmdc_sim
 *
 * Every command except shutdown runs the version handshake first and
 * refuses a daemon whose commit, cache format, or policy-registry
 * revision differ from this binary's — results crossing such a
 * boundary are not comparable.
 *
 * Failure handling: connects retry with exponential backoff (a
 * daemon that crashed and is being restarted looks like a refused
 * connection for a moment), and `submit` survives a daemon death
 * mid-campaign by reconnecting and resubmitting. This resubmission is
 * the daemon's whole crash-recovery story: campaign ids are not
 * durable across a daemon restart and the restarted daemon does not
 * finish work on its own, but the run cache is durable, so a
 * resubmission costs only the runs that were unfinished when the
 * daemon died. Retryable `overloaded`/`draining` refusals honor the
 * daemon's retry_after_ms hint.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hh"
#include "sim/cli_options.hh"
#include "sim/service.hh"

using namespace dmdc;

namespace
{

unsigned g_retries = 10;
std::uint64_t g_retry_delay_ms = 200;

/**
 * Decide whether the last ServiceClient failure deserves another
 * attempt; sleeps the backoff if so. @p attempt is the caller's
 * retry counter.
 */
bool
backoffRetry(ServiceClient &client, unsigned &attempt,
             bool force = false)
{
    const std::string &code = client.lastErrorCode();
    const bool retryable = force || code == "io" ||
        code == "overloaded" || code == "draining";
    if (!retryable || attempt >= g_retries)
        return false;
    ++attempt;
    int ms = static_cast<int>(g_retry_delay_ms);
    for (unsigned i = 1; i < attempt && ms < 5000; ++i)
        ms *= 2;
    if (client.retryAfterMs() > ms)
        ms = client.retryAfterMs();
    if (ms > 5000)
        ms = 5000;
    std::fprintf(stderr,
                 "dmdc_client: %s; retrying in %d ms (%u/%u)\n",
                 code.empty() ? "retryable failure" : code.c_str(),
                 ms, attempt, g_retries);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return true;
}

/** Ensure a handshaken connection, retrying with backoff. */
bool
ensureConnected(ServiceClient &client, const std::string &socketPath,
                std::string &err)
{
    if (client.connected())
        return true;
    return client.connectWithRetry(socketPath, g_retries,
                                   static_cast<int>(g_retry_delay_ms),
                                   err);
}

enum class FetchOutcome { Done, NotDone, Lost, Failed };

/**
 * Fetch one results reply. Lost means the daemon died or forgot the
 * campaign (it restarted, or the id was orphan-reaped) — the caller
 * can recover by resubmitting; Failed is permanent.
 */
FetchOutcome
fetchResults(ServiceClient &client, const std::string &campaign,
             bool wait, const std::string &jsonPath)
{
    JsonValue reply;
    std::string err;
    const std::string req = "{\"op\":\"results\",\"campaign\":\"" +
        campaign + "\",\"wait\":" + (wait ? "true" : "false") + "}";
    if (!client.request(req, reply, err)) {
        std::fprintf(stderr, "dmdc_client: %s\n", err.c_str());
        if (client.lastErrorCode() == "io" ||
            client.lastErrorCode() == "draining" ||
            err.find("unknown campaign") != std::string::npos ||
            err.find("cancelled") != std::string::npos)
            return FetchOutcome::Lost;
        return FetchOutcome::Failed;
    }
    const JsonValue *state = reply.find("state");
    if (state && state->text != "done") {
        std::printf("campaign %s: %s\n", campaign.c_str(),
                    state->text.c_str());
        return FetchOutcome::NotDone;
    }
    const JsonValue *journal = reply.find("journal");
    if (!journal || journal->kind != JsonValue::Kind::String) {
        std::fprintf(stderr,
                     "dmdc_client: reply carries no journal\n");
        return FetchOutcome::Failed;
    }
    if (jsonPath.empty()) {
        std::fputs(journal->text.c_str(), stdout);
        return FetchOutcome::Done;
    }
    if (!writeFileAtomic(jsonPath, journal->text)) {
        std::fprintf(stderr, "dmdc_client: cannot write '%s'\n",
                     jsonPath.c_str());
        return FetchOutcome::Failed;
    }
    std::printf("campaign %s: journal written to %s\n",
                campaign.c_str(), jsonPath.c_str());
    return FetchOutcome::Done;
}

/**
 * Submit @p submitReq and (optionally) collect the journal,
 * surviving daemon restarts: any transport loss or forgotten
 * campaign id reconnects and resubmits. The run cache makes the
 * resubmission cheap and the journal byte-identical.
 */
int
submitAndCollect(ServiceClient &client, const std::string &socketPath,
                 const std::string &submitReq, bool collect,
                 const std::string &jsonPath)
{
    unsigned attempt = 0;
    for (;;) {
        std::string err;
        if (!ensureConnected(client, socketPath, err)) {
            std::fprintf(stderr, "dmdc_client: %s\n", err.c_str());
            return kExitFailure;
        }
        JsonValue reply;
        if (!client.request(submitReq, reply, err)) {
            std::fprintf(stderr, "dmdc_client: %s\n", err.c_str());
            if (backoffRetry(client, attempt))
                continue;
            return kExitFailure;
        }
        std::string id;
        const JsonValue *v = reply.find("campaign");
        if (v)
            id = v->text;
        std::printf("campaign %s submitted\n", id.c_str());
        if (!collect)
            return kExitOk;
        switch (fetchResults(client, id, /*wait=*/true, jsonPath)) {
          case FetchOutcome::Done:
            return kExitOk;
          case FetchOutcome::Lost:
            // The daemon went away (or forgot us) mid-wait:
            // reconnect and resubmit; completed runs come back from
            // the cache.
            if (backoffRetry(client, attempt, /*force=*/true))
                continue;
            return kExitFailure;
          case FetchOutcome::NotDone:
          case FetchOutcome::Failed:
            return kExitFailure;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "dmdc_serve.sock";
    std::string campaign_id;
    std::string json_path;
    bool wait = false;
    unsigned retries = g_retries;
    std::vector<std::string> commands;

    SimOptions opt;
    opt.warmupInsts = 50000;
    opt.runInsts = 500000;
    std::vector<std::string> benches{"gzip"};
    std::vector<std::string> schemes;
    std::vector<std::string> config_names{"2"};

    CliParser cli(argv[0],
                  "Client for a dmdc_serve daemon. Commands: hello, "
                  "submit, status, results, cancel, stats, shutdown.");
    cli.positional(&commands, "<command>");
    cli.value("socket", &socket_path, "daemon Unix socket path");
    cli.value("campaign", &campaign_id,
              "campaign id (status/results/cancel)");
    cli.value("json", &json_path, "write the retrieved journal here");
    cli.flag("wait", &wait, "block until the campaign completes");
    cli.value("retries", &retries,
              "transport/overload retry budget");
    cli.value("retry-delay-ms", &g_retry_delay_ms,
              "base backoff delay (doubles per retry)");
    cli.list("bench", &benches, "benchmark name(s)");
    cli.list("scheme", &schemes, "scheme name(s) or alias(es)");
    cli.list("config", &config_names, "paper Table 1 config(s)");
    cli.value("insts", &opt.runInsts, "measured instructions");
    cli.value("warmup", &opt.warmupInsts, "warm-up instructions");
    cli.value("yla", &opt.numYlaQw, "quad-word YLA registers");
    cli.value("table", &opt.tableEntriesOverride,
              "checking-table entries (0 = per config)");
    cli.value("queue", &opt.queueEntries, "checking-queue entries");
    cli.valueAction("inv",
                    [&opt](const std::string &v, std::string &err) {
                        if (!parseCliDouble(
                                v, opt.invalidationsPer1kCycles)) {
                            err = "--inv expects a finite number, "
                                  "got '" + v + "'";
                            return false;
                        }
                        opt.coherence = true;
                        return true;
                    },
                    "invalidations per 1000 cycles");
    cli.flag("coherence", &opt.coherence,
             "enable the coherence extension");
    cli.action("no-safe-loads", [&opt] { opt.safeLoads = false; },
               "disable safe-load detection (ablation)");
    cli.flag("sq-filter", &opt.sqFilter,
             "enable the Sec. 3 SQ-side age filter");
    cli.parseOrExit(argc, argv);

    if (commands.size() != 1) {
        cli.failUsage("expected exactly one command (hello, submit, "
                      "status, results, cancel, stats, shutdown)");
    }
    const std::string &cmd = commands.front();
    g_retries = retries;

    ServiceClient client;
    std::string err;
    // shutdown skips the handshake so a stale daemon from another
    // build can still be told to exit.
    const bool raw = (cmd == "shutdown");
    if (raw ? !client.connectRaw(socket_path, err)
            : !client.connectWithRetry(
                  socket_path, g_retries,
                  static_cast<int>(g_retry_delay_ms), err)) {
        std::fprintf(stderr, "dmdc_client: %s\n", err.c_str());
        return kExitFailure;
    }

    if (cmd == "hello") {
        const ServiceIdentity &d = client.daemonIdentity();
        std::printf("commit %s\ncache-format %u\npolicy-revision %s\n",
                    d.commit.c_str(), d.cacheFormat,
                    d.policyRevision.c_str());
        return kExitOk;
    }

    JsonValue reply;
    if (cmd == "submit") {
        if (schemes.empty())
            schemes.push_back(opt.scheme);
        // Same cross product, spelled the same, as dmdc_sim builds —
        // that equivalence is what makes the retrieved journal
        // byte-identical to a serial --json-deterministic run.
        std::string runs;
        for (const std::string &bench : benches) {
            for (const std::string &scheme : schemes) {
                for (const std::string &config : config_names) {
                    SimOptions r = opt;
                    r.benchmark = bench;
                    r.scheme = scheme;
                    if (!parseCliUnsigned(config, r.configLevel)) {
                        cli.failUsage("--config expects unsigned "
                                      "integers, got '" + config +
                                      "'");
                    }
                    if (!runs.empty())
                        runs += ',';
                    runs += serviceRunSpecJson(r);
                }
            }
        }
        const bool collect = !json_path.empty() || wait;
        return submitAndCollect(client, socket_path,
                                "{\"op\":\"submit\",\"runs\":[" +
                                    runs + "]}",
                                collect, json_path);
    }

    if (cmd == "status" || cmd == "results" || cmd == "cancel") {
        if (campaign_id.empty())
            cli.failUsage("--campaign=<id> is required for " + cmd);
        if (cmd == "results") {
            // No resubmission here: only `submit` knows the run list
            // needed to recover a campaign a restarted daemon forgot.
            return fetchResults(client, campaign_id, wait, json_path)
                == FetchOutcome::Done ? kExitOk : kExitFailure;
        }
        const std::string req = "{\"op\":\"" + cmd +
            "\",\"campaign\":\"" + campaign_id + "\"}";
        if (!client.request(req, reply, err)) {
            std::fprintf(stderr, "dmdc_client: %s\n", err.c_str());
            return kExitFailure;
        }
        if (cmd == "status") {
            const JsonValue *state = reply.find("state");
            const JsonValue *done = reply.find("completed");
            const JsonValue *total = reply.find("total");
            std::printf("campaign %s: %s (%s/%s)\n",
                        campaign_id.c_str(),
                        state ? state->text.c_str() : "?",
                        done ? done->text.c_str() : "?",
                        total ? total->text.c_str() : "?");
        } else {
            std::printf("campaign %s cancelled\n",
                        campaign_id.c_str());
        }
        return kExitOk;
    }

    if (cmd == "stats" || cmd == "shutdown") {
        if (!client.request("{\"op\":\"" + cmd + "\"}", reply, err)) {
            std::fprintf(stderr, "dmdc_client: %s\n", err.c_str());
            return kExitFailure;
        }
        if (cmd == "stats") {
            for (const char *key :
                 {"campaigns", "submitted", "unique", "dedup_hits",
                  "executed", "simulated", "overloaded", "orphaned",
                  "io_timeouts", "protocol_errors"}) {
                const JsonValue *v = reply.find(key);
                std::printf("%-15s %s\n", key,
                            v ? v->text.c_str() : "?");
            }
        } else {
            std::printf("daemon stopping\n");
        }
        return kExitOk;
    }

    cli.failUsage("unknown command '" + cmd + "'");
}
