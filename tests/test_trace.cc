/**
 * @file
 * Unit tests for the synthetic workload layer: address streams, branch
 * behaviour models, workload determinism and mix calibration.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

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
    GeometricTable back(4.0);
    EXPECT_TRUE(buf.empty());
    unsigned size = 0;
    EXPECT_EQ(buf.sample(rng, size, back), invalidAddr);

    std::set<Addr> pushed;
    for (Addr a = 0x100; a < 0x100 + 16 * 8; a += 8) {
        buf.push(a, 4);
        pushed.insert(a);
    }
    for (int i = 0; i < 200; ++i) {
        const Addr a = buf.sample(rng, size, back);
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

// ---- stream identity --------------------------------------------------

/** FNV-1a over a MicroOp's fields (not its padding bytes). */
std::uint64_t
fnvOp(std::uint64_t h, const MicroOp &op)
{
    const std::uint64_t fields[] = {
        op.pc,
        static_cast<std::uint64_t>(op.cls),
        static_cast<std::uint16_t>(op.dst),
        static_cast<std::uint16_t>(op.src1),
        static_cast<std::uint16_t>(op.src2),
        static_cast<std::uint16_t>(op.src3),
        op.effAddr,
        op.memSize,
        static_cast<std::uint64_t>(op.branch),
        op.taken ? 1u : 0u,
        op.targetPc,
        op.nextPc,
    };
    for (std::uint64_t f : fields) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (f >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

struct StreamDigest
{
    const char *benchmark;
    std::uint64_t committed;   ///< first 100k op() results
    std::uint64_t wrongPath;   ///< 20k wrongPathOp(pc, salt) probes
};

// Captured before the generator moved to table-driven geometric draws
// and a ring window; every later generator must reproduce them.
const StreamDigest kStreamDigests[] = {
    {"bzip2", 0x93135e2c9f79f54dull, 0xd92e59bad935276bull},
    {"crafty", 0xc69347af765ad3e4ull, 0xf935ef50334b71daull},
    {"eon", 0x956aee2774414b2full, 0xdc5558a2d57eeb28ull},
    {"gap", 0xeb0c5d4e9489b377ull, 0xa2d90ef33ed4cfa0ull},
    {"gcc", 0x8b33287eeb1bebfbull, 0xd719f953a4e5c42aull},
    {"gzip", 0xe65c6fcd0f904441ull, 0xc0af6749d1881d0cull},
    {"mcf", 0x1c58c20234406914ull, 0xccd9a4e4d56601a2ull},
    {"parser", 0x10d866e9929f1007ull, 0x88958427db7281eaull},
    {"perlbmk", 0x81cf61a483dcadbfull, 0x8c19560624b19e44ull},
    {"twolf", 0x3e49329d9cc2f6f1ull, 0xd9a73d78c2128f40ull},
    {"vortex", 0x0cbf004a747e15a7ull, 0x1a70b7c61c21b512ull},
    {"vpr", 0x2610de500dd87494ull, 0x916dff7b9630b1fbull},
    {"ammp", 0x78ec0c1574b894f8ull, 0x41a7ee43da6c7869ull},
    {"applu", 0xfcd330769e0ef1c0ull, 0x3c35f59242db2322ull},
    {"apsi", 0xff804c5b813f3a39ull, 0xdf521259acb3bca8ull},
    {"art", 0x01b2e0a8b3af6886ull, 0xc25efc0a309b2988ull},
    {"equake", 0x0bf27196993cbdb9ull, 0x787f65f9f9aa70e0ull},
    {"facerec", 0x53e7e8f62ea0abd2ull, 0x27a2b04fd7ba8b61ull},
    {"fma3d", 0xcf0dae6dae9e999cull, 0xda399121e13b0cccull},
    {"galgel", 0x61f6e1f82e1b0b8full, 0xf5e7dc547023be12ull},
    {"lucas", 0xb706b2505252cc2aull, 0xda89bb82a81e22deull},
    {"mesa", 0x78c7daec55f80608ull, 0x1188c5019a99cd8eull},
    {"mgrid", 0xfe4f1f21163a1acaull, 0xa779199fb29636caull},
    {"sixtrack", 0x6d100c2c593e9cdeull, 0xc3ec62f99d20dac4ull},
    {"swim", 0xc09197600a10747full, 0x919e3e4d49322c99ull},
    {"wupwise", 0xd496bc1ac9867f7bull, 0xd59fd5078fcd1547ull},
};

TEST(StreamIdentity, CoversTheWholeSuite)
{
    std::set<std::string> pinned;
    for (const StreamDigest &d : kStreamDigests)
        pinned.insert(d.benchmark);
    EXPECT_EQ(pinned, std::set<std::string>(specAllNames().begin(),
                                            specAllNames().end()));
}

/**
 * The first 100k correct-path ops of every workload, read the way
 * fetch reads them: in order, with the window trimmed 256 ops behind
 * and an occasional re-read 200 ops back (a squash refetch).
 */
TEST(StreamIdentity, CommittedPathMatchesPinnedDigests)
{
    for (const StreamDigest &d : kStreamDigests) {
        auto w = makeSpecWorkload(d.benchmark);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint64_t i = 0; i < 100000; ++i) {
            h = fnvOp(h, w->op(i));
            if (i % 1000 == 999)
                h = fnvOp(h, w->op(i - 200));
            if (i >= 256)
                w->discardBefore(i - 256);
        }
        EXPECT_EQ(h, d.committed) << d.benchmark;
    }
}

TEST(StreamIdentity, WrongPathMatchesPinnedDigests)
{
    for (const StreamDigest &d : kStreamDigests) {
        auto w = makeSpecWorkload(d.benchmark);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint64_t i = 0; i < 20000; ++i) {
            // Some PCs past the code end exercise the slot wrap.
            const Addr pc =
                w->codeBase() + 4 * (mixHash(i) % (w->staticSize() + 16));
            h = fnvOp(h, w->wrongPathOp(pc, i));
        }
        EXPECT_EQ(h, d.wrongPath) << d.benchmark;
    }
}

} // namespace
} // namespace dmdc
