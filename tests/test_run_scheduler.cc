/**
 * @file
 * Tests of the run scheduler (sim/run_scheduler.hh): the exactly-once
 * claim contract under real thread contention, journal-identity
 * co-location in the LPT seed, and submit-after-seed (the dmdc_serve
 * ingestion path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sim/run_scheduler.hh"

namespace dmdc
{
namespace
{

std::vector<ScheduledRun>
makeRuns(std::size_t n, std::size_t identities)
{
    std::vector<ScheduledRun> runs;
    for (std::size_t i = 0; i < n; ++i) {
        ScheduledRun r;
        r.index = i;
        r.identity = "id-" + std::to_string(i % identities);
        r.cost = 1000.0 + 100.0 * static_cast<double>(i % 5);
        runs.push_back(r);
    }
    return runs;
}

/** Drain the scheduler from @p workers real threads; return every
 *  claimed index (with duplicates preserved, so the exactly-once
 *  check can see double claims). */
std::vector<std::size_t>
drainConcurrently(RunScheduler &sched, unsigned workers)
{
    std::mutex m;
    std::vector<std::size_t> claimed;
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            ScheduledRun item;
            while (sched.next(w, item)) {
                std::lock_guard<std::mutex> guard(m);
                claimed.push_back(item.index);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return claimed;
}

TEST(RunScheduler, WorkStealingClaimsEachRunExactlyOnce)
{
    for (int round = 0; round < 20; ++round) {
        RunScheduler sched;
        const std::size_t n = 64;
        sched.seed(makeRuns(n, 16), 4);
        auto claimed = drainConcurrently(sched, 4);

        ASSERT_EQ(claimed.size(), n) << "round " << round;
        std::sort(claimed.begin(), claimed.end());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(claimed[i], i)
                << "round " << round << ": run " << i
                << " lost or double-claimed";
    }
}

TEST(RunScheduler, SeedColocatesEqualIdentities)
{
    // Six identities of equal cost on three workers: the LPT seed
    // gives every worker two whole groups (eight runs). Round-robin
    // claims then drain every deque in lockstep, so no worker ever
    // steals and each claim reveals the seed's placement.
    std::vector<ScheduledRun> runs;
    for (std::size_t i = 0; i < 24; ++i)
        runs.push_back({i, "id-" + std::to_string(i % 6), 1000.0});
    RunScheduler sched;
    sched.seed(runs, 3);

    std::map<std::string, std::set<unsigned>> workersByIdentity;
    std::map<unsigned, std::size_t> claimsByWorker;
    for (bool any = true; any;) {
        any = false;
        for (unsigned w = 0; w < 3; ++w) {
            ScheduledRun item;
            if (!sched.next(w, item))
                continue;
            any = true;
            workersByIdentity[runs[item.index].identity].insert(w);
            ++claimsByWorker[w];
        }
    }
    ASSERT_EQ(workersByIdentity.size(), 6u);
    for (const auto &kv : workersByIdentity)
        EXPECT_EQ(kv.second.size(), 1u)
            << "identity " << kv.first << " split across workers";
    for (unsigned w = 0; w < 3; ++w)
        EXPECT_EQ(claimsByWorker[w], 8u) << "worker " << w;
}

TEST(RunScheduler, WorkStealingAcceptsSubmitAfterSeed)
{
    // The daemon's shape: seed an empty pool, then submit runs while
    // workers are already draining. Everything submitted must come
    // back exactly once.
    RunScheduler sched;
    sched.seed({}, 3);

    const std::size_t n = 30;
    std::atomic<std::size_t> submitted{0};
    std::thread producer([&] {
        auto runs = makeRuns(n, 5);
        for (auto &r : runs) {
            sched.submit(r);
            submitted.fetch_add(1);
        }
    });

    // Consumers poll until the producer is done and the queues drain.
    std::mutex m;
    std::set<std::size_t> claimed;
    std::vector<std::thread> consumers;
    for (unsigned w = 0; w < 3; ++w) {
        consumers.emplace_back([&, w] {
            ScheduledRun item;
            while (true) {
                if (sched.next(w, item)) {
                    std::lock_guard<std::mutex> guard(m);
                    EXPECT_TRUE(claimed.insert(item.index).second);
                } else if (submitted.load() == n) {
                    // One last sweep after the producer finished: a
                    // false next() now means genuinely empty.
                    if (!sched.next(w, item))
                        break;
                    std::lock_guard<std::mutex> guard(m);
                    EXPECT_TRUE(claimed.insert(item.index).second);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    producer.join();
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(claimed.size(), n);
}

TEST(RunScheduler, LptAssignmentIsDeterministic)
{
    const auto runs = makeRuns(40, 10);
    std::vector<SimOptions> opts;
    for (const auto &r : runs) {
        SimOptions o;
        o.benchmark = r.identity;
        o.runInsts = 20000;
        opts.push_back(o);
    }
    const auto groups = groupRunsByIdentity(opts);
    ASSERT_EQ(groups.size(), 10u);
    const auto a = lptAssignGroups(groups, 4);
    const auto b = lptAssignGroups(groups, 4);
    EXPECT_EQ(a, b);
    for (unsigned bin : a)
        EXPECT_LT(bin, 4u);
}

} // namespace
} // namespace dmdc
