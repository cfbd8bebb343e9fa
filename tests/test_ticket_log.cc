/**
 * @file
 * Tests of the durable ticket log (sim/ticket_log.hh): lifecycle
 * round trips, pending-ticket recovery semantics, damage tolerance
 * (torn lines, bit flips, garbage), and compaction.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/crc32.hh"
#include "sim/ticket_log.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

class TicketLogTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "ticket_log_test_" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    readLog(const TicketLog &log) const
    {
        std::ifstream in(log.logPath());
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    void
    appendRaw(const TicketLog &log, const std::string &text) const
    {
        std::ofstream out(log.logPath(), std::ios::app);
        out << text;
    }

    /** A well-formed "start" record, as older daemons appended when a
     *  ticket began executing (CRC over "start|<key>"). */
    static std::string
    legacyStartRecord(const std::string &key)
    {
        const std::string covered = "start|" + key;
        char crc[16];
        std::snprintf(crc, sizeof(crc), "%08x",
                      crc32(covered.data(), covered.size()));
        return "{\"v\":1,\"op\":\"start\",\"key\":\"" + key +
               "\",\"crc\":\"" + crc + "\"}\n";
    }

    std::string dir_;
};

TEST_F(TicketLogTest, LifecycleRoundTrips)
{
    TicketLog log(dir_);
    ASSERT_TRUE(log.enabled());
    log.appendSubmit("k1", "{\"benchmark\":\"gzip\"}");
    log.appendFinish("k1", "ok");
    log.appendSubmit("k2", "{\"benchmark\":\"swim\"}");
    log.appendSubmit("k3", "{\"benchmark\":\"applu\"}");

    const TicketLogReplay rep = log.replay();
    EXPECT_EQ(rep.finished, 1u);
    EXPECT_EQ(rep.corrupt, 0u);
    ASSERT_EQ(rep.pending.size(), 2u);
    // First-submit order is preserved so a recovered queue re-runs
    // roughly in the order clients asked.
    EXPECT_EQ(rep.pending[0].key, "k2");
    EXPECT_EQ(rep.pending[0].spec, "{\"benchmark\":\"swim\"}");
    EXPECT_EQ(rep.pending[1].key, "k3");
}

TEST_F(TicketLogTest, LegacyStartRecordsAreSkippedNotCorrupt)
{
    // Older daemons also logged "start"; replay must neither count
    // those lines as damage nor let them change a ticket's fate.
    TicketLog log(dir_);
    log.appendSubmit("k1", "{}");
    appendRaw(log, legacyStartRecord("k1"));
    log.appendSubmit("k2", "{}");
    appendRaw(log, legacyStartRecord("k2"));
    log.appendFinish("k2", "ok");

    const TicketLogReplay rep = log.replay();
    EXPECT_EQ(rep.corrupt, 0u);
    EXPECT_EQ(rep.finished, 1u);
    ASSERT_EQ(rep.pending.size(), 1u);
    EXPECT_EQ(rep.pending[0].key, "k1");
}

TEST_F(TicketLogTest, DisabledLogIsInert)
{
    TicketLog log("");
    EXPECT_FALSE(log.enabled());
    log.appendSubmit("k", "{}");
    const TicketLogReplay rep = log.replay();
    EXPECT_TRUE(rep.pending.empty());
    EXPECT_FALSE(log.compact({}));
}

TEST_F(TicketLogTest, SpecsWithQuotesSurvive)
{
    // Run specs are nested JSON: quotes, braces, and backslashes
    // must round-trip through the record encoding.
    const std::string spec =
        "{\"benchmark\":\"a\\\"b\",\"scheme\":\"x\",\"inv\":1.5}";
    TicketLog log(dir_);
    log.appendSubmit("k", spec);
    const TicketLogReplay rep = log.replay();
    ASSERT_EQ(rep.pending.size(), 1u);
    EXPECT_EQ(rep.pending[0].spec, spec);
}

TEST_F(TicketLogTest, ResubmitAfterFinishIsPendingAgain)
{
    TicketLog log(dir_);
    log.appendSubmit("k", "{\"v\":1}");
    log.appendFinish("k", "cancelled");
    log.appendSubmit("k", "{\"v\":2}");

    const TicketLogReplay rep = log.replay();
    EXPECT_EQ(rep.finished, 1u);
    ASSERT_EQ(rep.pending.size(), 1u);
    EXPECT_EQ(rep.pending[0].spec, "{\"v\":2}"); // latest spec wins
}

TEST_F(TicketLogTest, TornLastLineIsSkipped)
{
    TicketLog log(dir_);
    log.appendSubmit("k1", "{}");
    log.appendSubmit("k2", "{}");
    // Simulate a crash mid-append: truncate the file inside the last
    // record.
    std::string content = readLog(log);
    ASSERT_FALSE(content.empty());
    content.resize(content.size() - 10);
    {
        std::ofstream out(log.logPath(), std::ios::trunc);
        out << content;
    }
    const TicketLogReplay rep = log.replay();
    EXPECT_EQ(rep.corrupt, 1u);
    ASSERT_EQ(rep.pending.size(), 1u);
    EXPECT_EQ(rep.pending[0].key, "k1");
}

TEST_F(TicketLogTest, GarbageAndTamperedLinesAreSkipped)
{
    TicketLog log(dir_);
    log.appendSubmit("k1", "{}");
    appendRaw(log, "not json at all\n");
    appendRaw(log, "{\"v\":1,\"op\":\"submit\",\"key\":\"evil\","
                   "\"spec\":\"{}\",\"crc\":\"00000000\"}\n");
    log.appendSubmit("k2", "{}");

    // Flip one byte inside the k2 record's key.
    std::string content = readLog(log);
    const std::size_t pos = content.rfind("k2");
    ASSERT_NE(pos, std::string::npos);
    content[pos + 1] = '9';
    {
        std::ofstream out(log.logPath(), std::ios::trunc);
        out << content;
    }

    const TicketLogReplay rep = log.replay();
    EXPECT_EQ(rep.corrupt, 3u);
    ASSERT_EQ(rep.pending.size(), 1u);
    EXPECT_EQ(rep.pending[0].key, "k1");
}

TEST_F(TicketLogTest, FinishForUnknownKeyIsIgnored)
{
    TicketLog log(dir_);
    log.appendFinish("ghost", "ok");
    appendRaw(log, legacyStartRecord("ghost2"));
    log.appendSubmit("real", "{}");
    const TicketLogReplay rep = log.replay();
    EXPECT_EQ(rep.corrupt, 0u);
    ASSERT_EQ(rep.pending.size(), 1u);
    EXPECT_EQ(rep.pending[0].key, "real");
}

TEST_F(TicketLogTest, CompactionKeepsOnlyPending)
{
    TicketLog log(dir_);
    for (int i = 0; i < 50; ++i) {
        const std::string key = "done" + std::to_string(i);
        log.appendSubmit(key, "{}");
        log.appendFinish(key, "ok");
    }
    log.appendSubmit("live", "{\"benchmark\":\"gzip\"}");
    appendRaw(log, legacyStartRecord("live"));

    TicketLogReplay rep = log.replay();
    ASSERT_EQ(rep.pending.size(), 1u);
    ASSERT_TRUE(log.compact(rep.pending));

    // The rewritten log holds exactly the pending ticket's submit:
    // no finished history and no legacy start line.
    rep = log.replay();
    EXPECT_EQ(rep.finished, 0u);
    EXPECT_EQ(rep.corrupt, 0u);
    ASSERT_EQ(rep.pending.size(), 1u);
    EXPECT_EQ(rep.pending[0].key, "live");
    EXPECT_EQ(rep.pending[0].spec, "{\"benchmark\":\"gzip\"}");
    EXPECT_EQ(readLog(log).find("\"op\":\"start\""), std::string::npos);
    EXPECT_LT(fs::file_size(log.logPath()), 400u);
}

TEST_F(TicketLogTest, CompactionPolicyWantsDominatedLogs)
{
    TicketLog log(dir_);
    EXPECT_FALSE(log.shouldCompact(10, 0));
    EXPECT_FALSE(log.shouldCompact(255, 0));
    EXPECT_TRUE(log.shouldCompact(256, 0));
    // A busy daemon whose log is mostly live work should not churn.
    EXPECT_FALSE(log.shouldCompact(300, 100));
    EXPECT_TRUE(log.shouldCompact(1000, 100));
    TicketLog disabled("");
    EXPECT_FALSE(disabled.shouldCompact(100000, 0));
}

} // namespace
} // namespace dmdc
