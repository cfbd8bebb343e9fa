/**
 * @file
 * Robustness tests for the campaign service layer: deadline-bounded
 * frame I/O under EINTR storms and stalled peers, a malformed-frame
 * corpus against a live daemon, overload admission control, orphaned
 * campaign reaping, crash recovery by resubmission over the run
 * cache, stale-socket reclaim, chaos fault sites (frame-truncate,
 * client-stall), and the client's bounded-backoff reconnect.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/build_info.hh"
#include "common/json.hh"
#include "sim/fault_injector.hh"
#include "sim/service.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::int64_t
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - since)
        .count();
}

// ---- shared harness --------------------------------------------------

/** A ServiceDaemon running its serve() loop on a helper thread. */
struct DaemonHarness
{
    explicit DaemonHarness(ServiceOptions o) : daemon(std::move(o)) {}

    ~DaemonHarness() { stop(); }

    bool
    start(std::string &err)
    {
        if (!daemon.start(err))
            return false;
        server = std::thread([this] { daemon.serve(); });
        return true;
    }

    void
    stop()
    {
        daemon.requestStop();
        if (server.joinable())
            server.join();
    }

    ServiceDaemon daemon;
    std::thread server;
};

int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

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

std::uint64_t
statField(const JsonValue &reply, const char *name)
{
    const JsonValue *f = reply.find(name);
    return f ? std::strtoull(f->text.c_str(), nullptr, 10) : 0;
}

/** Poll the stats op until @p field reaches @p want (or time out). */
bool
waitForStat(ServiceClient &client, const char *field,
            std::uint64_t want, int timeoutMs)
{
    const Clock::time_point start = Clock::now();
    JsonValue reply;
    std::string err;
    while (elapsedMs(start) < timeoutMs) {
        if (client.request("{\"op\":\"stats\"}", reply, err) &&
            statField(reply, field) >= want)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

/** Resets the global fault injector on scope exit so chaos from one
 *  test cannot leak into the next. */
struct FaultGuard
{
    ~FaultGuard() { FaultInjector::global().configure(FaultSpec{}); }
};

// ---- deadline-bounded frame I/O --------------------------------------

class TimedFramePair : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
        // Shrink both buffers so a few kilobytes of backlog already
        // exert backpressure on the writer.
        const int tiny = 4096;
        ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &tiny,
                     sizeof(tiny));
        ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &tiny,
                     sizeof(tiny));
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

TEST_F(TimedFramePair, WriteTimesOutOnStalledPeer)
{
    // The peer never reads: an 8 MB frame cannot fit any socket
    // buffer, so the deadline must fire instead of blocking forever.
    const std::string big(8u << 20, 'x');
    std::string err;
    const Clock::time_point start = Clock::now();
    EXPECT_FALSE(writeFrameTimed(fds_[0], big, 300, err));
    EXPECT_NE(err.find("timed out"), std::string::npos) << err;
    const std::int64_t ms = elapsedMs(start);
    EXPECT_GE(ms, 250);
    EXPECT_LT(ms, 5000);
}

TEST_F(TimedFramePair, BackpressuredWriteCompletesWithinDeadline)
{
    // A slow-but-alive reader: the writer makes progress in bounded
    // non-blocking rounds and finishes well before the deadline.
    const std::string big(2u << 20, 'y');
    std::thread reader([&] {
        std::string out, err;
        ASSERT_TRUE(readFrame(fds_[1], out, err)) << err;
        EXPECT_EQ(out.size(), big.size());
        EXPECT_EQ(out, big);
    });
    std::string err;
    EXPECT_TRUE(writeFrameTimed(fds_[0], big, 30000, err)) << err;
    reader.join();
}

TEST_F(TimedFramePair, ReadHeaderDeadlineFiresOnSilentPeer)
{
    std::string out, err;
    const Clock::time_point start = Clock::now();
    EXPECT_FALSE(readFrameTimed(fds_[1], out, 200, 200, err));
    EXPECT_NE(err.find("timed out"), std::string::npos) << err;
    EXPECT_GE(elapsedMs(start), 150);
}

TEST_F(TimedFramePair, ReadBodyDeadlineFiresOnTricklingPeer)
{
    // A peer that starts a frame but never finishes it must be cut
    // off by the body deadline even though the header deadline is
    // infinite (mirrors the daemon's per-connection read).
    const unsigned char header[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(fds_[0], header, 4), 4);
    ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
    std::string out, err;
    const Clock::time_point start = Clock::now();
    EXPECT_FALSE(readFrameTimed(fds_[1], out, 0, 250, err));
    EXPECT_NE(err.find("timed out"), std::string::npos) << err;
    EXPECT_GE(elapsedMs(start), 200);
}

// ---- EINTR torture ---------------------------------------------------

std::atomic<int> g_alarms{0};

extern "C" void
onTortureAlarm(int)
{
    g_alarms.fetch_add(1, std::memory_order_relaxed);
}

/** Rains SIGALRM on the process every 2 ms without SA_RESTART, so
 *  every blocking syscall in scope keeps getting EINTR. */
class AlarmTorture
{
  public:
    AlarmTorture()
    {
        g_alarms.store(0);
        struct sigaction sa{};
        sa.sa_handler = onTortureAlarm;
        sa.sa_flags = 0; // deliberately no SA_RESTART
        sigaction(SIGALRM, &sa, &old_);
        itimerval it{};
        it.it_interval.tv_usec = 2000;
        it.it_value.tv_usec = 2000;
        setitimer(ITIMER_REAL, &it, nullptr);
    }

    ~AlarmTorture()
    {
        itimerval off{};
        setitimer(ITIMER_REAL, &off, nullptr);
        sigaction(SIGALRM, &old_, nullptr);
    }

  private:
    struct sigaction old_{};
};

TEST_F(TimedFramePair, FrameIoSurvivesEintrStorm)
{
    // Large frames across a tiny-buffered socketpair while SIGALRM
    // fires every 2 ms: both the blocking and the deadline-bounded
    // paths must retry EINTR (in poll and in send/recv) and deliver
    // the payload intact.
    AlarmTorture torture;
    const std::string big(8u << 20, 'z');

    std::thread writer([&] {
        std::string err;
        ASSERT_TRUE(writeFrame(fds_[0], big, err)) << err;
        ASSERT_TRUE(writeFrameTimed(fds_[0], big, 60000, err)) << err;
    });
    std::string out, err;
    ASSERT_TRUE(readFrame(fds_[1], out, err)) << err;
    EXPECT_EQ(out, big);
    out.clear();
    ASSERT_TRUE(readFrameTimed(fds_[1], out, 60000, 60000, err))
        << err;
    EXPECT_EQ(out, big);
    writer.join();
    // ~16 MB through 4 KB buffers takes long enough that the storm
    // must have interrupted something; if not, the torture harness
    // itself is broken and the test proves nothing.
    EXPECT_GT(g_alarms.load(), 0);
}

// ---- malformed-frame corpus against a live daemon --------------------

TEST(ServiceRobustness, MalformedFrameCorpusKeepsDaemonServing)
{
    const std::string sock = "svc_corpus.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;
    opts.ioTimeoutMs = 2000;

    DaemonHarness h(opts);
    std::string err;
    ASSERT_TRUE(h.start(err)) << err;

    // Each corpus item is thrown at its own connection; none may
    // crash or wedge the daemon.
    struct Item
    {
        const char *name;
        std::string bytes;   ///< raw bytes, no framing applied
        bool expectReply;    ///< daemon can still answer in-band
    };
    const std::string nul = std::string("{\"op\":\"sta") +
                            std::string(1, '\0') + "ts\"}";
    auto framed = [](const std::string &payload) {
        std::string raw;
        raw.push_back(
            static_cast<char>((payload.size() >> 24) & 0xff));
        raw.push_back(
            static_cast<char>((payload.size() >> 16) & 0xff));
        raw.push_back(static_cast<char>((payload.size() >> 8) & 0xff));
        raw.push_back(static_cast<char>(payload.size() & 0xff));
        raw += payload;
        return raw;
    };
    const std::vector<Item> corpus = {
        {"truncated length prefix", std::string("\x00\x00", 2), false},
        {"oversize length",
         std::string("\xff\xff\xff\xff", 4), true},
        {"zero-length frame", framed(""), true},
        {"non-JSON payload", framed("hello there general"), true},
        {"embedded NUL", framed(nul), true},
        {"handshake garbage",
         framed("{\"op\":\"hello\",\"protocol\":\"banana\"}"), true},
        {"no op field", framed("{\"ok\":true}"), true},
        {"unknown op", framed("{\"op\":\"frobnicate\"}"), true},
    };

    for (const Item &item : corpus) {
        const int fd = rawConnect(sock);
        ASSERT_GE(fd, 0) << item.name;
        ASSERT_EQ(::write(fd, item.bytes.data(), item.bytes.size()),
                  static_cast<ssize_t>(item.bytes.size()))
            << item.name;
        if (item.expectReply) {
            // The daemon answers in-band (an ok:false protocol error
            // or, for handshake garbage, a normal hello) instead of
            // dying or going silent.
            std::string out, rerr;
            ASSERT_TRUE(
                readFrameTimed(fd, out, 5000, 5000, rerr))
                << item.name << ": " << rerr;
            JsonValue reply;
            EXPECT_TRUE(parseJson(out, reply, rerr))
                << item.name << ": " << rerr;
        }
        ::close(fd);
    }

    // After the whole corpus the daemon still serves healthy clients
    // and accounted the garbage as protocol errors, not crashes.
    ServiceClient client;
    ASSERT_TRUE(client.connect(sock, err)) << err;
    JsonValue reply;
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply, err))
        << err;
    EXPECT_GE(statField(reply, "protocol_errors"), 4u);

    // A connection that sent garbage earlier in its stream can still
    // be used once the frame itself was well-formed JSON-or-not.
    {
        const int fd = rawConnect(sock);
        ASSERT_GE(fd, 0);
        std::string raw = framed("not json");
        ASSERT_EQ(::write(fd, raw.data(), raw.size()),
                  static_cast<ssize_t>(raw.size()));
        std::string out, rerr;
        ASSERT_TRUE(readFrameTimed(fd, out, 5000, 5000, rerr)) << rerr;
        JsonValue bad;
        ASSERT_TRUE(parseJson(out, bad, rerr)) << rerr;
        const JsonValue *code = bad.find("code");
        ASSERT_NE(code, nullptr);
        EXPECT_EQ(code->text, "protocol");

        raw = framed("{\"op\":\"stats\"}");
        ASSERT_EQ(::write(fd, raw.data(), raw.size()),
                  static_cast<ssize_t>(raw.size()));
        ASSERT_TRUE(readFrameTimed(fd, out, 5000, 5000, rerr)) << rerr;
        JsonValue good;
        ASSERT_TRUE(parseJson(out, good, rerr)) << rerr;
        const JsonValue *ok = good.find("ok");
        ASSERT_NE(ok, nullptr);
        EXPECT_EQ(ok->kind, JsonValue::Kind::Bool);
        EXPECT_TRUE(ok->boolean);
        ::close(fd);
    }
}

// ---- overload admission ----------------------------------------------

TEST(ServiceRobustness, OverCapConnectionGetsRetryableRefusal)
{
    const std::string sock = "svc_conncap.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;
    opts.maxConnections = 1;

    DaemonHarness h(opts);
    std::string err;
    ASSERT_TRUE(h.start(err)) << err;

    ServiceClient holder;
    ASSERT_TRUE(holder.connect(sock, err)) << err;

    // The over-cap connection is told why before being closed: one
    // structured `overloaded` frame, retryable with a backoff hint.
    const int fd = rawConnect(sock);
    ASSERT_GE(fd, 0);
    std::string out, rerr;
    ASSERT_TRUE(readFrameTimed(fd, out, 5000, 5000, rerr)) << rerr;
    ::close(fd);
    JsonValue reply;
    ASSERT_TRUE(parseJson(out, reply, rerr)) << rerr;
    ASSERT_NE(reply.find("code"), nullptr);
    EXPECT_EQ(reply.find("code")->text, "overloaded");
    const JsonValue *retryable = reply.find("retryable");
    ASSERT_NE(retryable, nullptr);
    EXPECT_EQ(retryable->kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(retryable->boolean);
    EXPECT_GT(statField(reply, "retry_after_ms"), 0u);

    // The admitted client is unaffected, and the refusal is counted.
    ASSERT_TRUE(holder.request("{\"op\":\"stats\"}", reply, err))
        << err;
    EXPECT_GE(statField(reply, "overloaded"), 1u);

    // Dropping the held connection frees the slot for a newcomer.
    holder.close();
    ServiceClient next;
    ASSERT_TRUE(next.connectWithRetry(sock, 10, 50, err)) << err;
}

TEST(ServiceRobustness, OverCapSubmitIsRefusedWhole)
{
    const std::string sock = "svc_queuecap.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;
    opts.maxQueuedTickets = 1;

    DaemonHarness h(opts);
    std::string err;
    ASSERT_TRUE(h.start(err)) << err;

    ServiceClient client;
    ASSERT_TRUE(client.connect(sock, err)) << err;

    // Two fresh runs against a cap of one: the submit must be refused
    // atomically (no half-accepted campaign) with a retryable code.
    JsonValue reply;
    EXPECT_FALSE(client.request(
        submitRequest({quickRun("gzip", "baseline"),
                       quickRun("swim", "baseline")}),
        reply, err));
    EXPECT_EQ(client.lastErrorCode(), "overloaded") << err;
    EXPECT_GT(client.retryAfterMs(), 0);
    EXPECT_TRUE(client.connected());

    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply, err))
        << err;
    EXPECT_EQ(statField(reply, "campaigns"), 0u);
    EXPECT_GE(statField(reply, "overloaded"), 1u);

    // A submit that fits the cap proceeds normally on the same
    // connection.
    ASSERT_TRUE(client.request(
        submitRequest({quickRun("gzip", "baseline")}), reply, err))
        << err;
    const JsonValue *cid = reply.find("campaign");
    ASSERT_NE(cid, nullptr);
    ASSERT_TRUE(client.request("{\"op\":\"results\",\"campaign\":\"" +
                                   cid->text + "\",\"wait\":true}",
                               reply, err))
        << err;
    EXPECT_EQ(reply.find("state")->text, "done");
}

// ---- stalled clients -------------------------------------------------

TEST(ServiceRobustness, StalledClientIsDroppedNotWaitedOn)
{
    const std::string sock = "svc_stall.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;
    opts.ioTimeoutMs = 1000;

    DaemonHarness h(opts);
    std::string err;
    ASSERT_TRUE(h.start(err)) << err;

    // A client that starts a frame and goes silent mid-body. Its
    // connection thread is parked on the body deadline.
    const int stalled = rawConnect(sock);
    ASSERT_GE(stalled, 0);
    const unsigned char header[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(stalled, header, 4), 4);
    ASSERT_EQ(::write(stalled, "stuck", 5), 5);

    // A healthy client served concurrently must not queue behind the
    // stalled one: its round trip stays far under the 1 s I/O
    // deadline the stalled connection is burning.
    ServiceClient healthy;
    ASSERT_TRUE(healthy.connect(sock, err)) << err;
    JsonValue reply;
    const Clock::time_point start = Clock::now();
    ASSERT_TRUE(healthy.request("{\"op\":\"stats\"}", reply, err))
        << err;
    EXPECT_LT(elapsedMs(start), 500);

    // The stalled connection is eventually dropped and accounted.
    EXPECT_TRUE(waitForStat(healthy, "io_timeouts", 1, 10000));
    char byte;
    EXPECT_EQ(::read(stalled, &byte, 1), 0)
        << "daemon should have closed the stalled connection";
    ::close(stalled);
}

// ---- orphaned campaigns ----------------------------------------------

TEST(ServiceRobustness, OrphanedCampaignIsCancelledAfterGrace)
{
    const std::string sock = "svc_orphan.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;
    opts.orphanGraceMs = 250;
    // The daemon's per-run wall-clock budget (it becomes each run's
    // SimOptions::timeoutMs; run specs carry no timeout of their own)
    // bounds the holder run below, so the harness's drain at the end
    // does not wait out all 20M instructions. 2 s stays far above the
    // 250 ms grace plus the 200 ms reaper tick. Timeouts are
    // permanent; no retry re-runs it.
    opts.campaign.timeoutMs = 2000;
    opts.campaign.maxRetries = 0;

    DaemonHarness h(opts);
    std::string err;
    ASSERT_TRUE(h.start(err)) << err;

    // A held campaign with one long run keeps the single worker busy
    // so the orphan's tickets stay queued past the grace period.
    ServiceClient holder;
    ASSERT_TRUE(holder.connect(sock, err)) << err;
    SimOptions longRun = quickRun("gzip", "baseline");
    longRun.runInsts = 20000000;
    JsonValue reply;
    ASSERT_TRUE(holder.request(submitRequest({longRun}), reply, err))
        << err;

    // The orphan-to-be submits queued work and vanishes.
    std::string orphanId;
    {
        ServiceClient doomed;
        ASSERT_TRUE(doomed.connect(sock, err)) << err;
        ASSERT_TRUE(doomed.request(
            submitRequest({quickRun("swim", "yla")}), reply, err))
            << err;
        orphanId = reply.find("campaign")->text;
    }

    // The reaper cancels it once the grace period passes, freeing the
    // queued ticket instead of simulating for a client that is gone.
    ASSERT_TRUE(waitForStat(holder, "orphaned", 1, 30000));
    if (holder.request("{\"op\":\"status\",\"campaign\":\"" +
                           orphanId + "\"}",
                       reply, err)) {
        // Still inside the post-cancel grace: the record reports why.
        EXPECT_EQ(reply.find("state")->text, "cancelled");
    } else {
        // Already garbage-collected; the id was never durable.
        EXPECT_NE(err.find("unknown"), std::string::npos) << err;
    }

    // The held campaign is untouched by the reaper.
    ASSERT_TRUE(holder.request("{\"op\":\"stats\"}", reply, err))
        << err;
    EXPECT_EQ(statField(reply, "orphaned"), 1u);
}

// ---- crash recovery is resubmission ---------------------------------

/** Submit @p runs, block for the journal, and return it. */
std::string
submitAndWait(ServiceClient &client, const std::vector<SimOptions> &runs)
{
    JsonValue reply;
    std::string err;
    EXPECT_TRUE(client.request(submitRequest(runs), reply, err)) << err;
    const JsonValue *id = reply.find("campaign");
    if (!id)
        return "";
    EXPECT_TRUE(client.request("{\"op\":\"results\",\"campaign\":\"" +
                                   id->text + "\",\"wait\":true}",
                               reply, err))
        << err;
    const JsonValue *journal = reply.find("journal");
    return journal ? journal->text : "";
}

TEST(ServiceRobustness, RestartOverSameCacheSimulatesOnlyUnfinishedRuns)
{
    const std::string sock = "svc_restart.sock";
    const std::string cache = "svc_restart_cache";
    const std::string refCache = "svc_restart_ref_cache";
    const std::string refPath = "svc_restart_ref.json";
    fs::remove_all(cache);
    fs::remove_all(refCache);

    const std::vector<SimOptions> first = {quickRun("gzip", "baseline"),
                                           quickRun("swim", "yla")};
    std::vector<SimOptions> superset = first;
    superset.push_back(quickRun("applu", "baseline"));

    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.cacheDir = cache;

    // Daemon A completes the first campaign and shuts down; the run
    // cache is all it leaves behind.
    {
        DaemonHarness h(opts);
        std::string err;
        ASSERT_TRUE(h.start(err)) << err;
        ServiceClient client;
        ASSERT_TRUE(client.connect(sock, err)) << err;
        ASSERT_FALSE(submitAndWait(client, first).empty());
    }

    // Daemon B, over the same cache, receives the resubmitted
    // superset: the two finished runs come back from the cache and
    // only the unfinished one simulates.
    std::string journal;
    {
        DaemonHarness h(opts);
        std::string err;
        ASSERT_TRUE(h.start(err)) << err;
        ServiceClient client;
        ASSERT_TRUE(client.connect(sock, err)) << err;
        journal = submitAndWait(client, superset);
        JsonValue reply;
        ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply, err))
            << err;
        EXPECT_EQ(statField(reply, "executed"), 3u);
        EXPECT_EQ(statField(reply, "simulated"), 1u);
    }

    // The journal is byte-identical to an uninterrupted in-process
    // --json-deterministic campaign of the same runs.
    setCampaignJournal(refPath, /*deterministic=*/true);
    {
        CampaignConfig cfg;
        cfg.cacheDir = refCache;
        CampaignRunner runner(cfg);
        EXPECT_TRUE(runner.runChecked(superset).allOk());
    }
    flushCampaignJournal();
    setCampaignJournal("");
    std::ifstream in(refPath, std::ios::binary);
    const std::string ref((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(journal, ref);

    fs::remove_all(cache);
    fs::remove_all(refCache);
    fs::remove(refPath);
}

// ---- socket lifecycle ------------------------------------------------

TEST(ServiceRobustness, ReclaimsStaleSocketRefusesLiveOrForeign)
{
    const std::string sock = "svc_stale.sock";
    fs::remove(sock);

    // A non-socket at the path is somebody else's file: refuse.
    {
        std::ofstream(sock) << "precious data";
        ServiceOptions opts;
        opts.socketPath = sock;
        opts.workers = 1;
        opts.campaign.useCache = false;
        ServiceDaemon daemon(opts);
        std::string err;
        EXPECT_FALSE(daemon.start(err));
        EXPECT_NE(err.find("not a socket"), std::string::npos) << err;
        EXPECT_TRUE(fs::exists(sock)) << "must not unlink user files";
        fs::remove(sock);
    }

    // A socket whose owner died without unlinking is stale: probe,
    // reclaim, serve.
    {
        const int dead = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(dead, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      sock.c_str());
        ASSERT_EQ(::bind(dead, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(dead); // no unlink: simulates SIGKILL

        ServiceOptions opts;
        opts.socketPath = sock;
        opts.workers = 1;
        opts.campaign.useCache = false;
        DaemonHarness h(opts);
        std::string err;
        ASSERT_TRUE(h.start(err)) << err;

        // A *live* daemon's socket must not be hijacked by a second
        // daemon: that would silently split clients across two queues.
        ServiceOptions opts2 = opts;
        ServiceDaemon second(opts2);
        EXPECT_FALSE(second.start(err));
        EXPECT_NE(err.find("live daemon"), std::string::npos) << err;

        ServiceClient client;
        ASSERT_TRUE(client.connect(sock, err)) << err;
    }
    EXPECT_FALSE(fs::exists(sock)) << "socket not unlinked on exit";
}

// ---- chaos sites -----------------------------------------------------

TEST(ServiceChaos, FrameTruncateTearsRepliesDeterministically)
{
    FaultGuard guard;
    const std::string sock = "svc_truncate.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;

    DaemonHarness h(opts);
    std::string err;
    ASSERT_TRUE(h.start(err)) << err;

    FaultSpec spec;
    spec.frameTruncateP = 1.0;
    spec.seed = 3;
    FaultInjector::global().configure(spec);

    // Every reply is torn mid-frame: the client sees the mid-frame
    // EOF as a transport failure, never a half-parsed reply.
    ServiceClient victim;
    ASSERT_TRUE(victim.connectRaw(sock, err)) << err;
    JsonValue reply;
    EXPECT_FALSE(victim.request("{\"op\":\"stats\"}", reply, err));
    EXPECT_EQ(victim.lastErrorCode(), "io") << err;

    // Chaos off: the daemon itself took no damage.
    FaultInjector::global().configure(FaultSpec{});
    ServiceClient after;
    ASSERT_TRUE(after.connect(sock, err)) << err;
    ASSERT_TRUE(after.request("{\"op\":\"stats\"}", reply, err))
        << err;
}

TEST(ServiceChaos, ClientStallDelaysButCompletes)
{
    FaultGuard guard;
    const std::string sock = "svc_clientstall.sock";
    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;

    DaemonHarness h(opts);
    std::string err;
    ASSERT_TRUE(h.start(err)) << err;

    ServiceClient client;
    ASSERT_TRUE(client.connect(sock, err)) << err;

    FaultSpec spec;
    spec.clientStallP = 1.0;
    spec.seed = 5;
    FaultInjector::global().configure(spec);

    // The stall happens between request and reply; the daemon's
    // bounded reply write rides it out and the request still
    // succeeds, just late.
    JsonValue reply;
    const Clock::time_point start = Clock::now();
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply, err))
        << err;
    EXPECT_GE(elapsedMs(start), 200);
}

TEST(ServiceChaos, InjectionDecisionsAreDeterministic)
{
    FaultGuard guard;
    FaultSpec spec;
    spec.frameTruncateP = 0.5;
    spec.clientStallP = 0.5;
    spec.serveCrashP = 0.5;
    spec.seed = 7;
    FaultInjector::global().configure(spec);
    const FaultInjector &inj = FaultInjector::global();

    int truncated = 0;
    for (unsigned i = 0; i < 64; ++i) {
        const std::string id = "req-" + std::to_string(i);
        const bool a = inj.injectFrameTruncate(id, i % 4);
        EXPECT_EQ(a, inj.injectFrameTruncate(id, i % 4))
            << "decision must be replayable";
        EXPECT_EQ(inj.injectClientStall(id),
                  inj.injectClientStall(id));
        EXPECT_EQ(inj.injectServeCrash(id), inj.injectServeCrash(id));
        truncated += a ? 1 : 0;
    }
    // p=0.5 over 64 identities: both outcomes must actually occur.
    EXPECT_GT(truncated, 0);
    EXPECT_LT(truncated, 64);
}

// ---- client reconnect ------------------------------------------------

TEST(ClientRetry, ConnectWithRetryOutlastsSlowDaemonStart)
{
    const std::string sock = "svc_retrywait.sock";
    fs::remove(sock);

    ServiceOptions opts;
    opts.socketPath = sock;
    opts.workers = 1;
    opts.campaign.useCache = false;
    DaemonHarness h(opts);

    // The daemon appears ~300 ms after the client starts dialing —
    // the restart window a crashed daemon's clients live through.
    std::thread late([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        std::string serr;
        ASSERT_TRUE(h.start(serr)) << serr;
    });

    ServiceClient client;
    std::string err;
    EXPECT_TRUE(client.connectWithRetry(sock, 30, 50, err)) << err;
    late.join();
}

/** A daemon look-alike that answers every hello with a foreign
 *  commit, counting connections it serves. */
class MismatchDaemon
{
  public:
    MismatchDaemon()
    {
        const ServiceIdentity self = localServiceIdentity();
        reply_ = "{\"ok\":true,\"server\":\"dmdc_serve\","
                 "\"protocol\":" +
                 std::to_string(kServiceProtocolVersion) +
                 ",\"commit\":\"deadbeef\",\"cache_format\":" +
                 std::to_string(self.cacheFormat) +
                 ",\"policy_revision\":\"" + self.policyRevision +
                 "\",\"pid\":1}";
        path_ = "svc_mismatch_" + std::to_string(::getpid()) + ".sock";
        fs::remove(path_);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path_.c_str());
        bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr));
        listen(listenFd_, 4);
        thread_ = std::thread([this] {
            for (;;) {
                const int fd = ::accept(listenFd_, nullptr, nullptr);
                if (fd < 0 || stop_.load()) {
                    if (fd >= 0)
                        ::close(fd);
                    return;
                }
                ++accepts_;
                std::string err, req;
                if (readFrame(fd, req, err))
                    writeFrame(fd, reply_, err);
                ::close(fd);
            }
        });
    }

    ~MismatchDaemon()
    {
        stop_.store(true);
        const int poke = rawConnect(path_); // unblock accept()
        if (poke >= 0)
            ::close(poke);
        thread_.join();
        ::close(listenFd_);
        fs::remove(path_);
    }

    const std::string &path() const { return path_; }
    int accepts() const { return accepts_.load(); }

  private:
    std::string reply_;
    std::string path_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    std::atomic<int> accepts_{0};
    std::thread thread_;
};

TEST(ClientRetry, IdentityMismatchFailsFastWithoutRetries)
{
    MismatchDaemon fake;
    ServiceClient client;
    std::string err;
    // Waiting cannot make an incompatible daemon compatible: despite
    // a generous retry budget the client must give up on the first
    // handshake refusal.
    EXPECT_FALSE(client.connectWithRetry(fake.path(), 10, 10, err));
    EXPECT_EQ(client.lastErrorCode(), "mismatch");
    EXPECT_NE(err.find("commit"), std::string::npos) << err;
    EXPECT_EQ(fake.accepts(), 1);
}

} // namespace
} // namespace dmdc
