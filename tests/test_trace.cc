/**
 * @file
 * Unit tests for the synthetic workload layer: address streams, branch
 * behaviour models, workload determinism and mix calibration.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/address_stream.hh"
#include "trace/branch_model.hh"
#include "trace/spec_suite.hh"
#include "trace/synthetic.hh"

namespace dmdc
{
namespace
{

TEST(StridedStream, WalksAndWraps)
{
    StridedStream s(0x1000, 64, 16);
    EXPECT_EQ(s.next(), 0x1000u);
    EXPECT_EQ(s.next(), 0x1010u);
    EXPECT_EQ(s.next(), 0x1020u);
    EXPECT_EQ(s.next(), 0x1030u);
    EXPECT_EQ(s.next(), 0x1000u);   // wrapped
}

TEST(StridedStream, RestartStaysInRegion)
{
    Rng rng(3);
    StridedStream s(0x2000, 256, 8);
    for (int i = 0; i < 100; ++i) {
        s.restart(rng);
        const Addr a = s.next();
        EXPECT_GE(a, 0x2000u);
        EXPECT_LT(a, 0x2000u + 256);
        EXPECT_EQ(a % 8, 0u);
    }
}

TEST(PointerChaseStream, StaysInRegionAndIsDeterministic)
{
    PointerChaseStream a(0x10000, 4096, 77);
    PointerChaseStream b(0x10000, 4096, 77);
    std::set<Addr> seen;
    for (int i = 0; i < 500; ++i) {
        const Addr x = a.next();
        EXPECT_EQ(x, b.next());
        EXPECT_GE(x, 0x10000u);
        EXPECT_LT(x, 0x10000u + 4096);
        EXPECT_EQ(x % 8, 0u);
        seen.insert(x);
    }
    // A real walk visits many distinct nodes.
    EXPECT_GT(seen.size(), 100u);
}

TEST(HotRegion, BoundsRespected)
{
    Rng rng(5);
    HotRegion h(0x7fff0000, 4096);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = h.next(rng);
        EXPECT_GE(a, 0x7fff0000u);
        EXPECT_LT(a, 0x7fff0000u + 4096);
    }
}

TEST(RecentStoreBuffer, SampleReturnsPushedAddresses)
{
    Rng rng(9);
    RecentStoreBuffer buf(8);
    EXPECT_TRUE(buf.empty());
    unsigned size = 0;
    EXPECT_EQ(buf.sample(rng, size), invalidAddr);

    std::set<Addr> pushed;
    for (Addr a = 0x100; a < 0x100 + 16 * 8; a += 8) {
        buf.push(a, 4);
        pushed.insert(a);
    }
    for (int i = 0; i < 200; ++i) {
        const Addr a = buf.sample(rng, size);
        EXPECT_TRUE(pushed.count(a));
        EXPECT_EQ(size, 4u);
    }
}

TEST(BranchModel, LoopBackPattern)
{
    StaticBranchState b(BranchBehavior::LoopBack, 1, 4, 0.9);
    // taken 3 times, then not taken, repeating.
    for (int rep = 0; rep < 3; ++rep) {
        EXPECT_TRUE(b.nextOutcome());
        EXPECT_TRUE(b.nextOutcome());
        EXPECT_TRUE(b.nextOutcome());
        EXPECT_FALSE(b.nextOutcome());
    }
}

TEST(BranchModel, BiasedRates)
{
    StaticBranchState taken(BranchBehavior::BiasedTaken, 2, 4, 0.9);
    StaticBranchState not_taken(BranchBehavior::BiasedNotTaken, 3, 4,
                                0.9);
    int t1 = 0;
    int t2 = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        t1 += taken.nextOutcome();
        t2 += not_taken.nextOutcome();
    }
    EXPECT_NEAR(t1 / double(n), 0.9, 0.02);
    EXPECT_NEAR(t2 / double(n), 0.1, 0.02);
}

TEST(BranchModel, PatternedIsPeriodic)
{
    StaticBranchState b(BranchBehavior::Patterned, 4, 6, 0.9);
    std::vector<bool> first;
    for (int i = 0; i < 6; ++i)
        first.push_back(b.nextOutcome());
    for (int rep = 0; rep < 5; ++rep) {
        for (int i = 0; i < 6; ++i)
            EXPECT_EQ(b.nextOutcome(), first[i]);
    }
}

TEST(SpecSuite, Has26NamedBenchmarks)
{
    EXPECT_EQ(specIntNames().size(), 12u);
    EXPECT_EQ(specFpNames().size(), 14u);
    EXPECT_EQ(specAllNames().size(), 26u);
    for (const auto &n : specIntNames())
        EXPECT_FALSE(specIsFp(n));
    for (const auto &n : specFpNames())
        EXPECT_TRUE(specIsFp(n));
}

TEST(SpecSuite, DistinctSeeds)
{
    std::set<std::uint64_t> seeds;
    for (const auto &n : specAllNames())
        seeds.insert(specParams(n).seed);
    EXPECT_EQ(seeds.size(), specAllNames().size());
}

TEST(SyntheticWorkload, TraceIsDeterministicAndReReadable)
{
    auto w1 = makeSpecWorkload("gzip");
    auto w2 = makeSpecWorkload("gzip");
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const MicroOp &a = w1->op(i);
        const MicroOp &b = w2->op(i);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(static_cast<int>(a.cls), static_cast<int>(b.cls));
        EXPECT_EQ(a.effAddr, b.effAddr);
        EXPECT_EQ(a.nextPc, b.nextPc);
    }
    // Re-reading an index inside the retained window is stable.
    const Addr pc_100 = w1->op(100).pc;
    (void)w1->op(4000);
    EXPECT_EQ(w1->op(100).pc, pc_100);
}

TEST(SyntheticWorkload, ControlFlowIsConsistent)
{
    auto w = makeSpecWorkload("gcc");
    for (std::uint64_t i = 0; i + 1 < 20000; ++i) {
        const MicroOp op = w->op(i);
        const MicroOp &next = w->op(i + 1);
        EXPECT_EQ(next.pc, op.nextPc)
            << "discontinuity at index " << i;
        if (!op.isBranch()) {
            EXPECT_EQ(op.nextPc, op.pc + 4);
        }
        if (op.isBranch() && op.taken) {
            EXPECT_EQ(op.nextPc, op.targetPc);
        }
    }
}

TEST(SyntheticWorkload, MemoryOpsAreAlignedAndSized)
{
    auto w = makeSpecWorkload("swim");
    for (std::uint64_t i = 0; i < 30000; ++i) {
        const MicroOp op = w->op(i);
        if (!op.isMem())
            continue;
        EXPECT_TRUE(op.memSize == 1 || op.memSize == 2 ||
                    op.memSize == 4 || op.memSize == 8);
        EXPECT_EQ(op.effAddr % op.memSize, 0u)
            << "unaligned access at index " << i;
        EXPECT_NE(op.effAddr, invalidAddr);
        if (op.isStore()) {
            EXPECT_NE(op.src3, noReg);
        }
    }
}

TEST(SyntheticWorkload, MixRoughlyMatchesParams)
{
    for (const char *name : {"gzip", "swim"}) {
        auto w = makeSpecWorkload(name);
        const WorkloadParams p = specParams(name);
        std::map<OpClass, unsigned> counts;
        constexpr unsigned n = 60000;
        for (std::uint64_t i = 0; i < n; ++i)
            ++counts[w->op(i).cls];
        const double load_frac = counts[OpClass::Load] / double(n);
        const double store_frac = counts[OpClass::Store] / double(n);
        // Branch slots dilute body fractions; allow generous slack.
        EXPECT_NEAR(load_frac, p.loadFrac * 0.88, 0.06) << name;
        EXPECT_NEAR(store_frac, p.storeFrac * 0.88, 0.04) << name;
        EXPECT_GT(counts[OpClass::Branch], n / 25) << name;
    }
}

TEST(SyntheticWorkload, FpBenchmarkUsesFpUnits)
{
    auto w = makeSpecWorkload("mgrid");
    unsigned fp_ops = 0;
    for (std::uint64_t i = 0; i < 30000; ++i)
        fp_ops += w->op(i).isFp();
    EXPECT_GT(fp_ops, 3000u);

    auto wi = makeSpecWorkload("bzip2");
    fp_ops = 0;
    for (std::uint64_t i = 0; i < 30000; ++i)
        fp_ops += wi->op(i).isFp();
    EXPECT_LT(fp_ops, 3000u);
}

TEST(SyntheticWorkload, WrongPathIsDeterministicPerPcAndSalt)
{
    auto w = makeSpecWorkload("vpr");
    const Addr pc = w->codeBase() + 4 * 17;
    const MicroOp a = w->wrongPathOp(pc, 5);
    const MicroOp b = w->wrongPathOp(pc, 5);
    EXPECT_EQ(a.effAddr, b.effAddr);
    EXPECT_EQ(a.dst, b.dst);
    const MicroOp c = w->wrongPathOp(pc, 6);
    // Same static slot: same class.
    EXPECT_EQ(static_cast<int>(a.cls), static_cast<int>(c.cls));
}

TEST(SyntheticWorkload, DiscardBeforePreventsOldReads)
{
    auto w = makeSpecWorkload("gap");
    (void)w->op(1000);
    w->discardBefore(500);
    EXPECT_EQ(w->op(500).pc, w->op(500).pc);   // still readable
    EXPECT_DEATH((void)w->op(100), ".*");
}

TEST(SyntheticWorkload, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT((void)makeSpecWorkload("quake3"),
                ::testing::ExitedWithCode(1), ".*unknown.*");
}

} // namespace
} // namespace dmdc
