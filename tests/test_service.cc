/**
 * @file
 * Tests of the campaign service layer (sim/service.hh): frame I/O on
 * a real socketpair, run-spec and JSON-string round trips, the
 * version handshake's refusal path against a fake daemon, and a full
 * in-process daemon serving two overlapping client campaigns with
 * exactly-once dedup and canonical journals, and the shutdown ack
 * surviving the drain.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/build_info.hh"
#include "common/json.hh"
#include "sim/campaign_shard.hh"
#include "sim/service.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

// ---- frame I/O -------------------------------------------------------

class FramePair : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    }

    void
    TearDown() override
    {
        if (fds_[0] >= 0)
            ::close(fds_[0]);
        if (fds_[1] >= 0)
            ::close(fds_[1]);
    }

    int fds_[2] = {-1, -1};
};

TEST_F(FramePair, RoundTripsPayloads)
{
    std::string err, out;
    for (const std::string &payload :
         {std::string("{\"op\":\"hello\"}"), std::string(""),
          std::string(4096, 'x')}) {
        ASSERT_TRUE(writeFrame(fds_[0], payload, err)) << err;
        ASSERT_TRUE(readFrame(fds_[1], out, err)) << err;
        EXPECT_EQ(out, payload);
    }
}

TEST_F(FramePair, CleanEofIsSilent)
{
    ::close(fds_[0]);
    fds_[0] = -1;
    std::string err = "sentinel", out;
    EXPECT_FALSE(readFrame(fds_[1], out, err));
    EXPECT_TRUE(err.empty()) << "clean EOF must not report: " << err;
}

TEST_F(FramePair, RejectsOversizedLength)
{
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(fds_[0], huge, 4), 4);
    std::string err, out;
    EXPECT_FALSE(readFrame(fds_[1], out, err));
    EXPECT_FALSE(err.empty());
}

TEST_F(FramePair, TornFrameReportsError)
{
    const unsigned char prefix[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(fds_[0], prefix, 4), 4);
    ASSERT_EQ(::write(fds_[0], "short", 5), 5);
    ::close(fds_[0]);
    fds_[0] = -1;
    std::string err, out;
    EXPECT_FALSE(readFrame(fds_[1], out, err));
    EXPECT_FALSE(err.empty());
}

// ---- serialization round trips ---------------------------------------

TEST(ServiceJson, EscapedStringsSurviveParsing)
{
    const std::string nasty =
        "line1\nline2\ttab \"quoted\" back\\slash \x01 control";
    const std::string doc = "{\"s\":\"" + jsonEscapeString(nasty) +
                            "\"}";
    JsonValue root;
    std::string err;
    ASSERT_TRUE(parseJson(doc, root, err)) << err;
    const JsonValue *s = root.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->text, nasty);
}

TEST(ServiceJson, TypedAccessorsAreStrict)
{
    JsonValue root;
    std::string err;
    ASSERT_TRUE(parseJson(
        "{\"max\":18446744073709551615,\"over\":18446744073709551616,"
        "\"neg\":-0,\"exp\":1e3,\"frac\":2.0,\"uint_max\":4294967295,"
        "\"tiny\":4.9406564584124654e-324,\"huge\":1e999,"
        "\"text\":\"7\",\"flag\":true}",
        root, err)) << err;
    std::uint64_t u = 0;
    EXPECT_TRUE(fieldU64(root, "max", u));
    EXPECT_EQ(u, UINT64_MAX);
    for (const char *key : {"over", "neg", "exp", "frac", "text", "flag",
                            "absent"})
        EXPECT_FALSE(fieldU64(root, key, u)) << key;
    unsigned n = 0;
    EXPECT_TRUE(fieldUnsigned(root, "uint_max", n));
    EXPECT_EQ(n, 4294967295u);
    EXPECT_FALSE(fieldUnsigned(root, "max", n));
    double d = 0.0;
    EXPECT_TRUE(fieldDouble(root, "tiny", d));
    EXPECT_EQ(jsonDoubleToken(d), "4.9406564584124654e-324");
    EXPECT_FALSE(fieldDouble(root, "huge", d));
    EXPECT_FALSE(fieldDouble(root, "text", d));
    bool b = false;
    EXPECT_TRUE(fieldBool(root, "flag", b));
    EXPECT_FALSE(fieldBool(root, "max", b));
}

TEST(ServiceJson, RunSpecRoundTrips)
{
    SimOptions opt;
    opt.benchmark = "swim";
    opt.scheme = "yla";
    opt.configLevel = 3;
    opt.warmupInsts = 2000;
    opt.runInsts = 20000;
    opt.invalidationsPer1kCycles = 1.5;
    opt.coherence = true;
    opt.safeLoads = false;
    opt.sqFilter = true;
    opt.numYlaQw = 16;
    opt.tableEntriesOverride = 64;
    opt.queueEntries = 32;

    JsonValue spec;
    std::string err;
    ASSERT_TRUE(parseJson(serviceRunSpecJson(opt), spec, err)) << err;
    SimOptions back;
    ASSERT_TRUE(parseServiceRunSpec(spec, back, err)) << err;

    EXPECT_EQ(back.benchmark, opt.benchmark);
    EXPECT_EQ(back.scheme, opt.scheme);
    EXPECT_EQ(back.configLevel, opt.configLevel);
    EXPECT_EQ(back.warmupInsts, opt.warmupInsts);
    EXPECT_EQ(back.runInsts, opt.runInsts);
    EXPECT_DOUBLE_EQ(back.invalidationsPer1kCycles,
                     opt.invalidationsPer1kCycles);
    EXPECT_EQ(back.coherence, opt.coherence);
    EXPECT_EQ(back.safeLoads, opt.safeLoads);
    EXPECT_EQ(back.sqFilter, opt.sqFilter);
    EXPECT_EQ(back.numYlaQw, opt.numYlaQw);
    EXPECT_EQ(back.tableEntriesOverride, opt.tableEntriesOverride);
    EXPECT_EQ(back.queueEntries, opt.queueEntries);
}

TEST(ServiceJson, RunSpecRequiresBenchmarkAndScheme)
{
    JsonValue spec;
    std::string err;
    ASSERT_TRUE(parseJson("{\"scheme\":\"yla\"}", spec, err));
    SimOptions out;
    EXPECT_FALSE(parseServiceRunSpec(spec, out, err));
    EXPECT_FALSE(err.empty());
}

TEST(ServiceJson, RunSpecRejectsIllTypedNegativeAndOutOfRangeFields)
{
    // None may wrap, truncate or default into a valid spec (the first
    // would otherwise read as config 2 with a 2^64-1 stall watchdog).
    const std::string head = "{\"benchmark\":\"gzip\",\"scheme\":\"yla\",";
    const char *bad[] = {
        "\"stall_limit\":-1,\"config\":4294967298}",
        "\"stall_limit\":-1}",
        "\"config\":4294967298}",
        "\"insts\":\"abc\"}",
        "\"yla\":4294967296}",
        "\"table\":4294967296}",
        "\"queue\":4294967296}",
        "\"warmup\":18446744073709551616}",
        "\"insts\":1.5}",
        "\"inv\":\"2\"}",
        "\"inv\":1e999}",
        "\"coherence\":1}",
    };
    for (const char *tail : bad) {
        JsonValue spec;
        std::string err;
        ASSERT_TRUE(parseJson(head + tail, spec, err)) << tail;
        SimOptions out;
        EXPECT_FALSE(parseServiceRunSpec(spec, out, err)) << tail;
        EXPECT_FALSE(err.empty()) << tail;
    }

    // Absent fields still take their defaults.
    JsonValue spec;
    std::string err;
    ASSERT_TRUE(parseJson("{\"benchmark\":\"gzip\",\"scheme\":\"yla\"}",
                          spec, err));
    SimOptions out;
    ASSERT_TRUE(parseServiceRunSpec(spec, out, err)) << err;
    const SimOptions defaults;
    EXPECT_EQ(out.configLevel, defaults.configLevel);
    EXPECT_EQ(out.runInsts, defaults.runInsts);
    EXPECT_EQ(out.stallCycleLimit, defaults.stallCycleLimit);
}

// ---- handshake refusal -----------------------------------------------

/** A minimal fake daemon: accepts one connection, answers the hello
 *  with a configurable identity, then hangs up. */
class FakeDaemon
{
  public:
    explicit FakeDaemon(std::string helloReply)
        : reply_(std::move(helloReply))
    {
        path_ = "fake_daemon_" + std::to_string(::getpid()) + ".sock";
        fs::remove(path_);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path_.c_str());
        bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr));
        listen(listenFd_, 1);
        thread_ = std::thread([this] {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0)
                return;
            std::string err, req;
            if (readFrame(fd, req, err))
                writeFrame(fd, reply_, err);
            ::close(fd);
        });
    }

    ~FakeDaemon()
    {
        ::close(listenFd_);
        thread_.join();
        fs::remove(path_);
    }

    const std::string &path() const { return path_; }

  private:
    std::string reply_;
    std::string path_;
    int listenFd_ = -1;
    std::thread thread_;
};

TEST(ServiceHandshake, RefusesMismatchedCommit)
{
    const ServiceIdentity self = localServiceIdentity();
    FakeDaemon fake("{\"ok\":true,\"server\":\"dmdc_serve\","
                    "\"protocol\":" +
                    std::to_string(kServiceProtocolVersion) +
                    ",\"commit\":\"deadbeef\",\"cache_format\":" +
                    std::to_string(self.cacheFormat) +
                    ",\"policy_revision\":\"" + self.policyRevision +
                    "\",\"pid\":1}");
    ServiceClient client;
    std::string err;
    EXPECT_FALSE(client.connect(fake.path(), err));
    EXPECT_NE(err.find("commit"), std::string::npos) << err;
    EXPECT_FALSE(client.connected());
}

TEST(ServiceHandshake, RefusesMismatchedProtocol)
{
    FakeDaemon fake("{\"ok\":true,\"server\":\"dmdc_serve\","
                    "\"protocol\":9999,\"commit\":\"x\","
                    "\"cache_format\":1,"
                    "\"policy_revision\":\"y\",\"pid\":1}");
    ServiceClient client;
    std::string err;
    EXPECT_FALSE(client.connect(fake.path(), err));
    EXPECT_NE(err.find("protocol"), std::string::npos) << err;
}

// ---- end-to-end daemon -----------------------------------------------

SimOptions
quickRun(const std::string &bench, const std::string &scheme)
{
    SimOptions opt;
    opt.benchmark = bench;
    opt.scheme = scheme;
    opt.warmupInsts = 2000;
    opt.runInsts = 20000;
    return opt;
}

std::string
submitRequest(const std::vector<SimOptions> &runs)
{
    std::string req = "{\"op\":\"submit\",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i)
            req += ',';
        req += serviceRunSpecJson(runs[i]);
    }
    req += "]}";
    return req;
}

TEST(ServiceDaemonTest, OverlappingCampaignsDedupAndJournal)
{
    const std::string sock = "svc_e2e.sock";
    const std::string cache = "svc_e2e_cache";
    fs::remove_all(cache);

    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 2;
    opts.campaign.cacheDir = cache;

    ServiceDaemon daemon(opts);
    std::string err;
    ASSERT_TRUE(daemon.start(err)) << err;
    std::thread server([&] { daemon.serve(); });

    {
        ServiceClient a, b;
        ASSERT_TRUE(a.connect(sock, err)) << err;
        ASSERT_TRUE(b.connect(sock, err)) << err;
        EXPECT_EQ(a.daemonIdentity().commit, buildCommit());

        // Campaign A and B overlap on (swim, baseline): that triple
        // must be simulated exactly once and journal in both.
        const std::vector<SimOptions> runsA = {
            quickRun("gzip", "baseline"), quickRun("swim", "baseline")};
        const std::vector<SimOptions> runsB = {
            quickRun("swim", "baseline"), quickRun("applu", "yla")};

        JsonValue reply;
        ASSERT_TRUE(a.request(submitRequest(runsA), reply, err))
            << err;
        const JsonValue *cid = reply.find("campaign");
        ASSERT_NE(cid, nullptr);
        const std::string campaignA = cid->text;
        ASSERT_TRUE(b.request(submitRequest(runsB), reply, err))
            << err;
        ASSERT_NE(reply.find("campaign"), nullptr);
        const std::string campaignB = reply.find("campaign")->text;
        EXPECT_NE(campaignA, campaignB);

        // Blocking results retrieval; both journals must parse as
        // canonical merged journals of this binary's commit.
        for (const auto &pair :
             {std::make_pair(&a, std::make_pair(campaignA, runsA)),
              std::make_pair(&b, std::make_pair(campaignB, runsB))}) {
            ServiceClient &client = *pair.first;
            ASSERT_TRUE(client.request(
                "{\"op\":\"results\",\"campaign\":\"" +
                    pair.second.first + "\",\"wait\":true}",
                reply, err))
                << err;
            const JsonValue *state = reply.find("state");
            ASSERT_NE(state, nullptr);
            EXPECT_EQ(state->text, "done");
            const JsonValue *journal = reply.find("journal");
            ASSERT_NE(journal, nullptr);

            ShardJournal parsed;
            ASSERT_TRUE(
                parseShardJournal(journal->text, parsed, err))
                << err;
            EXPECT_EQ(parsed.commit, buildCommit());
            EXPECT_FALSE(parsed.sharded);
            ASSERT_EQ(parsed.entries.size(),
                      pair.second.second.size());
            std::multiset<std::string> expected, got;
            for (const auto &r : pair.second.second)
                expected.insert(r.benchmark + "/" + r.scheme);
            for (const auto &e : parsed.entries) {
                got.insert(e.benchmark + "/" + e.scheme);
                EXPECT_EQ(e.status, RunStatus::Ok)
                    << e.benchmark << ": " << e.error;
            }
            EXPECT_EQ(got, expected);
        }

        // Exactly-once: 4 submits, 3 unique triples, 1 dedup fold.
        ASSERT_TRUE(a.request("{\"op\":\"stats\"}", reply, err))
            << err;
        EXPECT_EQ(reply.find("campaigns")->text, "2");
        EXPECT_EQ(reply.find("submitted")->text, "4");
        EXPECT_EQ(reply.find("unique")->text, "3");
        EXPECT_EQ(reply.find("dedup_hits")->text, "1");
        EXPECT_EQ(reply.find("executed")->text, "3");

        // Status of a finished campaign.
        ASSERT_TRUE(a.request("{\"op\":\"status\",\"campaign\":\"" +
                                  campaignA + "\"}",
                              reply, err))
            << err;
        EXPECT_EQ(reply.find("state")->text, "done");

        // Unknown ops and campaigns produce ok:false, not hangups.
        EXPECT_FALSE(a.request("{\"op\":\"frobnicate\"}", reply, err));
        EXPECT_TRUE(a.connected());
        EXPECT_FALSE(a.request(
            "{\"op\":\"status\",\"campaign\":\"c999\"}", reply, err));
        EXPECT_TRUE(a.connected());

        ASSERT_TRUE(a.request("{\"op\":\"shutdown\"}", reply, err))
            << err;
    }

    server.join();
    EXPECT_FALSE(fs::exists(sock)) << "socket not unlinked on exit";
    const ServiceStats stats = daemon.statsSnapshot();
    EXPECT_EQ(stats.campaigns, 2u);
    EXPECT_EQ(stats.unique, 3u);
    EXPECT_EQ(stats.dedupHits, 1u);
    EXPECT_EQ(stats.executed, 3u);
    fs::remove_all(cache);
}

TEST(ServiceDaemonTest, CancelSkipsQueuedWork)
{
    const std::string sock = "svc_cancel.sock";
    const std::string cache = "svc_cancel_cache";
    fs::remove_all(cache);

    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.cacheDir = cache;

    ServiceDaemon daemon(opts);
    std::string err;
    ASSERT_TRUE(daemon.start(err)) << err;
    std::thread server([&] { daemon.serve(); });

    {
        ServiceClient c;
        ASSERT_TRUE(c.connect(sock, err)) << err;
        JsonValue reply;
        ASSERT_TRUE(c.request(
            submitRequest({quickRun("gzip", "baseline"),
                           quickRun("swim", "yla")}),
            reply, err))
            << err;
        const std::string campaign = reply.find("campaign")->text;
        ASSERT_TRUE(c.request("{\"op\":\"cancel\",\"campaign\":\"" +
                                  campaign + "\"}",
                              reply, err))
            << err;

        // A cancelled campaign still resolves: a waiting results call
        // must return promptly with an ok:false "cancelled" reply, not
        // block forever on runs that will never execute.
        EXPECT_FALSE(
            c.request("{\"op\":\"results\",\"campaign\":\"" +
                          campaign + "\",\"wait\":true}",
                      reply, err));
        EXPECT_NE(err.find("cancelled"), std::string::npos) << err;
        EXPECT_TRUE(c.connected());

        ASSERT_TRUE(c.request("{\"op\":\"status\",\"campaign\":\"" +
                                  campaign + "\"}",
                              reply, err))
            << err;
        EXPECT_EQ(reply.find("state")->text, "cancelled");

        ASSERT_TRUE(c.request("{\"op\":\"shutdown\"}", reply, err))
            << err;
    }
    server.join();
    fs::remove_all(cache);
}

TEST(ServiceDaemonTest, ShutdownAckSurvivesDrain)
{
    // The drain shuts down every live socket; the shutdown op's own
    // reply must reach its client first. A second, idle client keeps
    // the drain's socket sweep non-trivial on every cycle.
    const std::string sock = "svc_shutdown_ack.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;

    for (int cycle = 0; cycle < 100; ++cycle) {
        ServiceDaemon daemon(opts);
        std::string err;
        ASSERT_TRUE(daemon.start(err))
            << "cycle " << cycle << ": " << err;
        std::thread server([&] { daemon.serve(); });

        ServiceClient idle, stopper;
        ASSERT_TRUE(idle.connect(sock, err)) << err;
        ASSERT_TRUE(stopper.connect(sock, err)) << err;
        JsonValue reply;
        const bool acked =
            stopper.request("{\"op\":\"shutdown\"}", reply, err);
        server.join();
        ASSERT_TRUE(acked) << "cycle " << cycle << ": " << err;
        const JsonValue *stopping = reply.find("stopping");
        ASSERT_NE(stopping, nullptr) << "cycle " << cycle;
        EXPECT_TRUE(stopping->kind == JsonValue::Kind::Bool &&
                    stopping->boolean)
            << "cycle " << cycle;
    }
}

} // namespace
} // namespace dmdc
