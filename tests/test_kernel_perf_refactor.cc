/**
 * @file
 * Tests for the fast-kernel refactor: the DynInst object pool and
 * ring buffer, the store queue's incrementally-maintained unresolved
 * counter (checked against a brute-force oracle), equivalence of
 * the event-driven idle skip with cycle-by-cycle ticking, of the
 * wakeup-driven ready sets with a brute-force readiness scan, and of
 * the calendar completion queue with a (when, seq) heap; plus the
 * deterministic work counters of select, completion and generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/object_pool.hh"
#include "common/random.hh"
#include "core/completion_queue.hh"
#include "core/pipeline.hh"
#include "lsq/dmdc.hh"
#include "lsq/policy/registry.hh"
#include "lsq/store_queue.hh"
#include "sim/invalidation.hh"
#include "sim/machine_config.hh"
#include "trace/spec_suite.hh"
#include "trace/workload.hh"

namespace dmdc
{
namespace
{

// ---- object pool ----------------------------------------------------

TEST(ObjectPoolTest, LifoReuseAndReset)
{
    ObjectPool<DynInst> pool(4);
    DynInst *a = pool.acquire();
    a->seq = 42;
    a->sqAddrReady = true;
    EXPECT_EQ(pool.liveCount(), 1u);
    pool.release(a);
    EXPECT_EQ(pool.liveCount(), 0u);

    // LIFO freelist: the released object comes back first, reset to
    // its default-constructed state.
    DynInst *b = pool.acquire();
    EXPECT_EQ(b, a);
    EXPECT_EQ(b->seq, DynInst{}.seq);
    EXPECT_FALSE(b->sqAddrReady);
    pool.release(b);
}

TEST(ObjectPoolTest, FreshSlabHandsOutAddressOrder)
{
    ObjectPool<int> pool(8, 8);
    int *prev = pool.acquire();
    for (int i = 1; i < 8; ++i) {
        int *next = pool.acquire();
        EXPECT_LT(prev, next);
        prev = next;
    }
}

TEST(ObjectPoolTest, BoundedPoolExhaustion)
{
    ObjectPool<int> pool(2, 4);
    std::vector<int *> live;
    for (int i = 0; i < 4; ++i) {
        int *obj = pool.tryAcquire();
        ASSERT_NE(obj, nullptr);
        live.push_back(obj);
    }
    EXPECT_EQ(pool.liveCount(), 4u);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_EQ(pool.tryAcquire(), nullptr);

    pool.release(live.back());
    live.pop_back();
    EXPECT_NE(pool.tryAcquire(), nullptr);
}

TEST(ObjectPoolTest, UnboundedPoolGrowsInSlabs)
{
    ObjectPool<int> pool(2);
    std::vector<int *> live;
    for (int i = 0; i < 5; ++i)
        live.push_back(pool.acquire());
    EXPECT_EQ(pool.liveCount(), 5u);
    EXPECT_GE(pool.capacity(), 5u);
    for (int *obj : live)
        pool.release(obj);
    EXPECT_EQ(pool.liveCount(), 0u);
}

// ---- ring buffer ----------------------------------------------------

TEST(RingBufferTest, WrapAroundKeepsOldestFirstOrder)
{
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), 4u);

    rb.push_back(1);
    rb.push_back(2);
    rb.push_back(3);
    rb.pop_front();
    rb.pop_front();
    // head has advanced; these pushes wrap physically.
    rb.push_back(4);
    rb.push_back(5);
    rb.push_back(6);
    EXPECT_TRUE(rb.full());
    EXPECT_EQ(rb.size(), 4u);
    EXPECT_EQ(rb.front(), 3);
    EXPECT_EQ(rb.back(), 6);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(rb[static_cast<std::size_t>(i)], 3 + i);
}

TEST(RingBufferTest, PopBackAndClear)
{
    RingBuffer<int> rb(3);
    rb.push_back(7);
    rb.push_back(8);
    rb.pop_back();
    EXPECT_EQ(rb.back(), 7);
    EXPECT_EQ(rb.size(), 1u);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back(9);
    EXPECT_EQ(rb.front(), 9);
}

// ---- SQ incremental unresolved tracking vs. brute force -------------

/** Brute-force reference over a mirror of the queue contents. */
struct SqOracle
{
    unsigned unresolved = 0;
    SeqNum oldestUnresolved = invalidSeqNum;

    explicit SqOracle(const std::deque<DynInst *> &mirror)
    {
        for (const DynInst *store : mirror) {
            if (!store->sqAddrReady) {
                ++unresolved;
                if (oldestUnresolved == invalidSeqNum)
                    oldestUnresolved = store->seq;
            }
        }
    }

    bool
    allOlderResolved(const std::deque<DynInst *> &mirror,
                     SeqNum load_seq) const
    {
        for (const DynInst *store : mirror)
            if (store->seq < load_seq && !store->sqAddrReady)
                return false;
        return true;
    }
};

TEST(StoreQueueIncrementalTest, RandomizedAgainstOracle)
{
    constexpr unsigned capacity = 16;
    StoreQueue sq(capacity);
    std::deque<DynInst *> mirror;
    std::vector<std::unique_ptr<DynInst>> owned;
    Rng rng(0xd31c0de);
    SeqNum next_seq = 1;

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t op = rng.range(10);
        if (op < 5 && mirror.size() < capacity) {
            auto inst = std::make_unique<DynInst>();
            inst->seq = next_seq++;
            inst->op.cls = OpClass::Store;
            inst->op.memSize = 8;
            if (rng.range(2)) {
                inst->op.effAddr = rng.range(1 << 16) & ~Addr{7};
                inst->sqAddrReady = true;
                inst->sqDataReady = rng.range(2) != 0;
            }
            sq.allocate(inst.get());
            mirror.push_back(inst.get());
            owned.push_back(std::move(inst));
        } else if (op < 7 && !mirror.empty()) {
            // Resolve a random (possibly already-resolved) store.
            DynInst *store = mirror[rng.range(mirror.size())];
            if (!store->sqAddrReady)
                store->op.effAddr = rng.range(1 << 16) & ~Addr{7};
            sq.setAddress(store);
        } else if (op < 8 && !mirror.empty()) {
            sq.releaseHead(mirror.front());
            mirror.pop_front();
        } else if (op < 9 && !mirror.empty()) {
            // Squash a random suffix.
            const SeqNum from =
                mirror[rng.range(mirror.size())]->seq;
            sq.squashFrom(from);
            while (!mirror.empty() && mirror.back()->seq >= from)
                mirror.pop_back();
        }

        const SqOracle oracle(mirror);
        ASSERT_EQ(sq.unresolvedCount(), oracle.unresolved)
            << "step " << step;
        ASSERT_EQ(sq.oldestUnresolvedSeq(), oracle.oldestUnresolved)
            << "step " << step;
        // Probe allOlderResolved at the interesting seq boundaries.
        for (SeqNum probe :
             {SeqNum{1}, next_seq / 2, next_seq, next_seq + 5}) {
            ASSERT_EQ(sq.allOlderResolved(probe),
                      oracle.allOlderResolved(mirror, probe))
                << "step " << step << " probe " << probe;
        }
    }
}

TEST(StoreQueueIncrementalTest, CheckLoadMatchesLinearReference)
{
    constexpr unsigned capacity = 12;
    StoreQueue sq(capacity);
    std::deque<DynInst *> mirror;
    std::vector<std::unique_ptr<DynInst>> owned;
    Rng rng(0xf00dfeed);
    SeqNum next_seq = 1;

    // Seed-style reference: walk youngest-first, skipping younger
    // stores one by one.
    auto reference = [&](SeqNum load_seq, Addr addr, unsigned size) {
        SqCheckResult r;
        for (auto it = mirror.rbegin(); it != mirror.rend(); ++it) {
            DynInst *store = *it;
            if (store->seq >= load_seq)
                continue;
            if (!store->sqAddrReady) {
                r.sawUnresolvedOlder = true;
                continue;
            }
            if (!rangesOverlap(addr, size, store->op.effAddr,
                               store->op.memSize))
                continue;
            const bool contains = store->op.effAddr <= addr &&
                addr + size <= store->op.effAddr + store->op.memSize;
            if (contains && store->sqDataReady)
                r.outcome = SqCheck::Forward;
            else
                r.outcome = SqCheck::Reject;
            r.producer = store;
            return r;
        }
        return r;
    };

    for (int step = 0; step < 3000; ++step) {
        if (mirror.size() == capacity ||
            (!mirror.empty() && rng.range(4) == 0)) {
            sq.releaseHead(mirror.front());
            mirror.pop_front();
        } else {
            auto inst = std::make_unique<DynInst>();
            inst->seq = next_seq++;
            inst->op.cls = OpClass::Store;
            // Small address space to force overlaps.
            inst->op.effAddr = rng.range(64) * 4;
            inst->op.memSize =
                static_cast<std::uint8_t>(4u << rng.range(2));
            inst->sqAddrReady = rng.range(4) != 0;
            inst->sqDataReady =
                inst->sqAddrReady && rng.range(2) != 0;
            sq.allocate(inst.get());
            mirror.push_back(inst.get());
            owned.push_back(std::move(inst));
        }

        const SeqNum load_seq = 1 + rng.range(next_seq + 4);
        const Addr addr = rng.range(64) * 4;
        const unsigned size = 4u << rng.range(2);
        const SqCheckResult got = sq.checkLoad(load_seq, addr, size);
        const SqCheckResult want = reference(load_seq, addr, size);
        ASSERT_EQ(got.outcome, want.outcome) << "step " << step;
        ASSERT_EQ(got.producer, want.producer) << "step " << step;
        ASSERT_EQ(got.sawUnresolvedOlder, want.sawUnresolvedOlder)
            << "step " << step;
    }
}

// ---- idle-skip equivalence ------------------------------------------

/**
 * The event-driven skip must be invisible: a pipeline driven by the
 * skip loop commits the same instructions at the same cycles with the
 * same stats as one ticked every cycle.
 */
void
expectSkipEquivalence(const std::string &scheme)
{
    CoreParams p = makeMachineConfig(2);
    applyScheme(p, scheme);

    auto w_tick = makeSpecWorkload("gzip");
    auto w_skip = makeSpecWorkload("gzip");
    Pipeline ticked(p, *w_tick);
    Pipeline skipped(p, *w_skip);

    constexpr std::uint64_t target = 3000;
    std::uint64_t guard = 0;
    while (ticked.committed() < target) {
        ticked.tick();
        ASSERT_LT(++guard, 10000000u) << "ticked pipeline wedged";
    }
    guard = 0;
    while (skipped.committed() < target) {
        const unsigned progress = skipped.tick();
        if (progress == 0 && skipped.committed() < target) {
            const Cycle wake = skipped.nextEventCycle();
            ASSERT_NE(wake, 0u) << "idle with no wake event";
            if (wake > skipped.now() + 1)
                skipped.skipIdleCycles(wake - skipped.now() - 1);
        }
        ASSERT_LT(++guard, 10000000u) << "skipped pipeline wedged";
    }

    EXPECT_EQ(ticked.now(), skipped.now()) << scheme;
    const PipelineStats &a = ticked.stats();
    const PipelineStats &b = skipped.stats();
    EXPECT_EQ(a.cycles.value(), b.cycles.value()) << scheme;
    EXPECT_EQ(a.committedInsts.value(), b.committedInsts.value());
    EXPECT_EQ(a.committedLoads.value(), b.committedLoads.value());
    EXPECT_EQ(a.committedStores.value(), b.committedStores.value());
    EXPECT_EQ(a.committedBranches.value(),
              b.committedBranches.value());
    EXPECT_EQ(a.dispatched.value(), b.dispatched.value());
    EXPECT_EQ(a.issued.value(), b.issued.value());
    EXPECT_EQ(a.branchMispredicts.value(),
              b.branchMispredicts.value());
    EXPECT_EQ(a.baselineReplays.value(), b.baselineReplays.value());
    EXPECT_EQ(a.dmdcReplays.value(), b.dmdcReplays.value());
    EXPECT_EQ(a.ageTableReplays.value(), b.ageTableReplays.value());
    EXPECT_EQ(a.loadRejections.value(), b.loadRejections.value());
    EXPECT_EQ(a.loadForwards.value(), b.loadForwards.value());
    EXPECT_EQ(a.speculativeLoads.value(), b.speculativeLoads.value());
    EXPECT_EQ(ticked.fetch().icacheStallCycles.value(),
              skipped.fetch().icacheStallCycles.value())
        << scheme;
    EXPECT_EQ(ticked.fetch().fetchedTotal.value(),
              skipped.fetch().fetchedTotal.value());
    const auto &act_a = ticked.lsq().activity();
    const auto &act_b = skipped.lsq().activity();
    EXPECT_EQ(act_a.lqSearches.value(), act_b.lqSearches.value());
    EXPECT_EQ(act_a.sqSearches.value(), act_b.sqSearches.value());
    if (const DmdcEngine *ea = ticked.lsq().dmdc()) {
        const DmdcEngine *eb = skipped.lsq().dmdc();
        ASSERT_NE(eb, nullptr);
        // checkingCycles is the one stat idle skipping touches
        // directly (skipIdleCycles forwards bulk cycles to the
        // policy), so it is the sharpest equivalence probe.
        EXPECT_EQ(ea->stats().checkingCycles.value(),
                  eb->stats().checkingCycles.value())
            << scheme;
    }
}

TEST(IdleSkipEquivalenceTest, Baseline)
{
    expectSkipEquivalence("baseline");
}

TEST(IdleSkipEquivalenceTest, Yla)
{
    expectSkipEquivalence("yla");
}

TEST(IdleSkipEquivalenceTest, DmdcGlobal)
{
    expectSkipEquivalence("dmdc-global");
}

// ---- wakeup-driven select ------------------------------------------

/** The readiness rule select polled before wakeup existed. */
bool
refProducerDone(const DynInst *producer, SeqNum pseq, const DynInst *head)
{
    if (!producer || !head || pseq < head->seq)
        return true;
    return producer->completed();
}

/** Slots set in @p bits, walked oldest-first from the ROB head. */
std::vector<std::size_t>
setSlots(const SlotBitmap &bits, const Rob &rob)
{
    std::vector<std::size_t> slots;
    bits.forEachFrom(rob.headSlot(), [&](std::size_t slot) {
        slots.push_back(slot);
        return true;
    });
    return slots;
}

/**
 * Between ticks the ready set must be exactly the IQ entries whose
 * issue-gating producers are all done, and the pending store-data set
 * exactly the SQ stores still lacking data whose data producer is
 * done, both in age order.
 */
void
expectWakeupMatchesScan(const Pipeline &pipe, std::uint64_t tick)
{
    const Pipeline::WakeupView view = pipe.wakeupView();
    const DynInst *head = view.rob.head();
    const auto done = [head](const DynInst *producer, SeqNum pseq) {
        return refProducerDone(producer, pseq, head);
    };

    std::vector<std::size_t> want_ready;
    view.rob.forEach([&](const DynInst *inst) {
        if (inst->inIssueQueue &&
            done(inst->src1Producer, inst->src1ProducerSeq) &&
            done(inst->src2Producer, inst->src2ProducerSeq) &&
            (inst->isStore() ||
             done(inst->src3Producer, inst->src3ProducerSeq))) {
            want_ready.push_back(inst->robSlot);
        }
    });
    ASSERT_EQ(setSlots(view.ready, view.rob), want_ready)
        << "ready set, tick " << tick;

    std::vector<std::size_t> want_data;
    pipe.lsq().storeQueue().forEach([&](const DynInst *store) {
        if (!store->sqDataReady &&
            done(store->src3Producer, store->src3ProducerSeq))
            want_data.push_back(store->robSlot);
    });
    ASSERT_EQ(setSlots(view.storeData, view.rob), want_data)
        << "store-data set, tick " << tick;
}

/** Squash and replay events seen across the equivalence runs. */
struct SquashCoverage
{
    std::uint64_t mispredicts = 0;
    std::uint64_t baselineReplays = 0;
    std::uint64_t dmdcReplays = 0;
    std::uint64_t ageTableReplays = 0;
};

void
runWakeupEquivalence(const std::string &bench, const std::string &scheme,
                     unsigned config, double inv_per_1k,
                     SquashCoverage &cov)
{
    SCOPED_TRACE(bench + " / " + scheme + " / config " +
                 std::to_string(config) + " / inv " +
                 std::to_string(inv_per_1k));
    CoreParams p = makeMachineConfig(config);
    // Invalidations reach DMDC's checking only with the coherence
    // extension on.
    applyScheme(p, scheme, /*coherence=*/inv_per_1k > 0.0);
    auto w = makeSpecWorkload(bench);
    Pipeline pipe(p, *w);
    // Random lines of the workload's own footprint, fixed seed, so
    // invalidations collide with in-flight loads.
    InvalidationInjector injector(
        inv_per_1k, Addr{0x10000000}, Addr{1} << w->params().footprintLog2,
        p.mem.l1d.lineBytes, 0xfeedbeefull);

    const std::uint64_t target = inv_per_1k > 0.0 ? 10000 : 4000;
    std::uint64_t tick = 0;
    while (pipe.committed() < target) {
        pipe.tick();
        injector.tick(pipe);
        ASSERT_LT(++tick, 2000000u) << "pipeline wedged";
        expectWakeupMatchesScan(pipe, tick);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    if (inv_per_1k > 0.0) {
        EXPECT_GT(injector.injected(), 0u);
    }
    const PipelineStats &st = pipe.stats();
    cov.mispredicts += st.branchMispredicts.value();
    cov.baselineReplays += st.baselineReplays.value();
    cov.dmdcReplays += st.dmdcReplays.value();
    cov.ageTableReplays += st.ageTableReplays.value();
}

TEST(WakeupEquivalenceTest, ReadySetsMatchBruteForceScan)
{
    const std::vector<std::string> schemes =
        DependencePolicyRegistry::instance().names();
    ASSERT_EQ(schemes.size(), 7u);
    SquashCoverage cov;
    for (const std::string &scheme : schemes) {
        for (const char *bench : {"gzip", "mcf", "swim", "vpr"}) {
            for (unsigned config : {1u, 3u}) {
                runWakeupEquivalence(bench, scheme, config, 0.0, cov);
                if (HasFatalFailure())
                    return;
            }
        }
        // With the coherence extension on, external invalidations
        // also drive invalidation-triggered checking and replays.
        runWakeupEquivalence("mcf", scheme, 2, 50.0, cov);
        if (HasFatalFailure())
            return;
    }
    // Every squash path that unlinks waiters was exercised.
    EXPECT_GT(cov.mispredicts, 0u);
    EXPECT_GT(cov.baselineReplays, 0u);
    EXPECT_GT(cov.dmdcReplays, 0u);
    EXPECT_GT(cov.ageTableReplays, 0u);
}

/**
 * A straight-line loop: a 20-cycle divide writing r1, then an add that
 * reads r1 only through src3, then a backward jump. The synthetic
 * suite gives src3 to stores only, so this covers src3 as an
 * issue-gating source.
 */
class ThirdSourceWorkload : public Workload
{
  public:
    ThirdSourceWorkload()
    {
        for (unsigned i = 0; i < 3; ++i) {
            loop_[i].pc = 0x1000 + 4 * i;
            loop_[i].nextPc = loop_[i].pc + 4;
        }
        loop_[0].cls = OpClass::IntDiv;
        loop_[0].dst = 1;
        loop_[0].src1 = 2;
        loop_[1].cls = OpClass::IntAlu;
        loop_[1].dst = 3;
        loop_[1].src3 = 1;
        loop_[2].cls = OpClass::Branch;
        loop_[2].branch = BranchKind::Uncond;
        loop_[2].taken = true;
        loop_[2].targetPc = 0x1000;
        loop_[2].nextPc = 0x1000;
    }

    const MicroOp &op(std::uint64_t index) override
    {
        return loop_[index % 3];
    }
    MicroOp
    wrongPathOp(Addr pc, std::uint64_t) override
    {
        MicroOp op;
        op.pc = pc;
        op.nextPc = pc + 4;
        op.cls = OpClass::IntAlu;
        return op;
    }
    void discardBefore(std::uint64_t) override {}
    const std::string &name() const override { return name_; }
    bool isFpBenchmark() const override { return false; }

  private:
    MicroOp loop_[3];
    std::string name_ = "third-source";
};

TEST(WakeupEquivalenceTest, ThirdSourceGatesNonStores)
{
    CoreParams p = makeMachineConfig(1);
    applyScheme(p, "dmdc-global");
    ThirdSourceWorkload w;
    Pipeline pipe(p, w);
    std::uint64_t tick = 0;
    while (pipe.committed() < 300) {
        pipe.tick();
        ASSERT_LT(++tick, 100000u) << "pipeline wedged";
        expectWakeupMatchesScan(pipe, tick);
        if (HasFatalFailure())
            return;
    }
}

/**
 * Select's deterministic work counter: ready entries examined per
 * committed instruction, warm-up included. Polling select checked
 * every IQ entry every tick (~68 per instruction on config 3).
 */
TEST(WakeupEquivalenceTest, SelectExaminesFewEntriesPerInstruction)
{
    for (const char *bench : {"gzip", "gcc", "mcf", "vpr", "swim",
                              "applu", "art", "equake"}) {
        for (unsigned config : {1u, 2u, 3u}) {
            CoreParams p = makeMachineConfig(config);
            applyScheme(p, "dmdc-global");
            auto w = makeSpecWorkload(bench);
            Pipeline pipe(p, *w);
            pipe.run(20000);
            const double per_inst =
                static_cast<double>(pipe.selectExamined()) /
                static_cast<double>(pipe.committed());
                    EXPECT_LE(per_inst, 3.0)
                << bench << " config " << config;
            EXPECT_GE(pipe.selectExamined(), pipe.stats().issued.value())
                << bench << " config " << config;
        }
    }
}

// ---- calendar completion queue ----------------------------------------

TEST(CompletionQueueTest, SpanIsPowerOfTwoAboveMaxLatency)
{
    EXPECT_EQ(CompletionQueue(1).span(), 2u);
    EXPECT_EQ(CompletionQueue(138).span(), 256u);
    EXPECT_EQ(CompletionQueue(255).span(), 256u);
    EXPECT_EQ(CompletionQueue(256).span(), 512u);

    // The pipeline sizes it from the hierarchy: 1 + L1D + L2 + memory.
    CoreParams p = makeMachineConfig(3);
    applyScheme(p, "dmdc-global");
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(p, *w);
    EXPECT_GT(pipe.completions().span(),
              1 + p.mem.l1d.latency + p.mem.l2.latency +
                  p.mem.memLatency);
}

TEST(CompletionQueueTest, ScheduleOutsideSpanPanics)
{
    CompletionQueue q(138);
    DynInst inst;
    inst.seq = 7;
    const Cycle now = 1000;
    EXPECT_DEATH(q.schedule(&inst, now, now), "outside");
    EXPECT_DEATH(q.schedule(&inst, now - 1, now), "outside");
    EXPECT_DEATH(q.schedule(&inst, now + q.span(), now), "outside");
    q.schedule(&inst, now + q.span() - 1, now);   // the far edge fits
    EXPECT_EQ(q.nextEvent(now), now + q.span() - 1);
}

/** The heap the calendar queue replaced: min on (when, seq). */
struct ReferenceQueue
{
    struct Event
    {
        Cycle when;
        SeqNum seq;
    };
    static bool
    later(const Event &a, const Event &b)
    {
        return a.when > b.when || (a.when == b.when && a.seq > b.seq);
    }

    void
    schedule(Cycle when, SeqNum seq)
    {
        heap.push_back({when, seq});
        std::push_heap(heap.begin(), heap.end(), later);
    }
    void
    squashFrom(SeqNum from)
    {
        std::erase_if(heap,
                      [from](const Event &e) { return e.seq >= from; });
        std::make_heap(heap.begin(), heap.end(), later);
    }
    Cycle nextEvent() const { return heap.empty() ? 0 : heap.front().when; }

    std::vector<Event> heap;
};

/**
 * Random schedule / advance / squash sequences, including idle skips
 * straight to the next event and branch squashes from inside a pop:
 * the calendar queue must pop in the heap's exact order and report the
 * same next-event cycle after every step.
 */
TEST(CompletionQueueTest, MatchesReferenceHeapUnderRandomSequences)
{
    constexpr Cycle maxLatency = 138;
    constexpr std::size_t instSlots = 4096;   // > live entries
    std::vector<DynInst> insts(instSlots);
    // Whether completing seq resolves a mispredicted branch.
    const auto squashes = [](SeqNum seq) { return mixHash(seq) % 9 == 0; };

    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        CompletionQueue q(maxLatency);
        ReferenceQueue ref;
        SeqNum next_seq = 1;
        Cycle now = 0;
        std::uint64_t popped = 0;
        for (int step = 0; step < 20000; ++step) {
            ++now;
            std::vector<SeqNum> got;
            q.popDue(now, [&](DynInst *inst) {
                got.push_back(inst->seq);
                if (squashes(inst->seq))
                    q.squashFrom(inst->seq + 1);
            });
            std::vector<SeqNum> want;
            while (!ref.heap.empty() && ref.heap.front().when <= now) {
                ASSERT_EQ(ref.heap.front().when, now) << "seed " << seed;
                std::pop_heap(ref.heap.begin(), ref.heap.end(),
                              ReferenceQueue::later);
                const SeqNum seq = ref.heap.back().seq;
                ref.heap.pop_back();
                want.push_back(seq);
                if (squashes(seq))
                    ref.squashFrom(seq + 1);
            }
            ASSERT_EQ(got, want) << "seed " << seed << " cycle " << now;
            popped += got.size();

            // Issue a few; seqs are handed out in age order but issue
            // (and so insertion) order is shuffled.
            const unsigned n = static_cast<unsigned>(rng.range(6));
            std::vector<SeqNum> batch;
            for (unsigned i = 0; i < n; ++i)
                batch.push_back(next_seq++);
            for (std::size_t i = batch.size(); i > 1; --i)
                std::swap(batch[i - 1], batch[rng.range(i)]);
            for (SeqNum seq : batch) {
                const Cycle lat = rng.chance(0.1)
                    ? maxLatency
                    : 1 + rng.range(rng.chance(0.5) ? 4 : maxLatency);
                DynInst &inst = insts[seq % instSlots];
                inst.seq = seq;
                q.schedule(&inst, now + lat, now);
                ref.schedule(now + lat, seq);
            }
            // An occasional replay squash outside any pop.
            if (rng.chance(0.02) && next_seq > 40) {
                const SeqNum from = next_seq - 1 - rng.range(40);
                q.squashFrom(from);
                ref.squashFrom(from);
            }
            ASSERT_EQ(q.nextEvent(now), ref.nextEvent())
                << "seed " << seed << " cycle " << now;
            // Idle skip: jump to just before the next event.
            if (rng.chance(0.2) && q.nextEvent(now) > now + 1)
                now = q.nextEvent(now) - 1;
        }
        EXPECT_EQ(q.popped(), popped);
        EXPECT_GT(popped, 10000u) << "seed " << seed;
    }
}

/**
 * The completion queue's deterministic work counter: entries examined
 * (sorted-insert and squash-purge comparisons plus pops) per completed
 * instruction, warm-up included. The binary heap it replaced examined
 * 5.3-10.7 per completion on these runs (comparator calls, squash
 * erase_if tests and pops; 8.2 on average).
 */
TEST(CompletionQueueTest, FewEntriesExaminedPerCompletion)
{
    for (const std::string &bench : specAllNames()) {
        CoreParams p = makeMachineConfig(3);
        applyScheme(p, "dmdc-global");
        auto w = makeSpecWorkload(bench);
        Pipeline pipe(p, *w);
        pipe.run(20000);
        const CompletionQueue &cq = pipe.completions();
        ASSERT_GT(cq.popped(), pipe.committed()) << bench;
        const double per_completion =
            static_cast<double>(cq.examined()) /
            static_cast<double>(cq.popped());
        EXPECT_LE(per_completion, 3.0) << bench;
    }
}

/**
 * Op generation's deterministic work counter: log1p evaluations per
 * generated op. The closed-form geometric draw made 2.6-3.1 (two per
 * draw); the tables fall back to it only near a threshold or in the
 * tail past the cap.
 */
TEST(GeneratorWorkTest, FewFormulaEvaluationsPerOp)
{
    for (const std::string &bench : specAllNames()) {
        auto w = makeSpecWorkload(bench);
        for (std::uint64_t i = 0; i < 200000; ++i) {
            (void)w->op(i);
            if (i >= 256)
                w->discardBefore(i - 256);
        }
        ASSERT_EQ(w->generatedOps(), 200000u) << bench;
        const double per_op = static_cast<double>(w->formulaEvals()) /
            static_cast<double>(w->generatedOps());
        EXPECT_LE(per_op, 0.01) << bench;
    }
}

} // namespace
} // namespace dmdc
