/**
 * @file
 * Unit tests for the core structures: ROB, rename, issue queue, FU
 * pool, register-file activity.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fu_pool.hh"
#include "core/issue_queue.hh"
#include "core/regfile.hh"
#include "core/rename.hh"
#include "core/rob.hh"

namespace dmdc
{
namespace
{

std::unique_ptr<DynInst>
makeInst(SeqNum seq, OpClass cls = OpClass::IntAlu,
         RegIndex dst = noReg, RegIndex src1 = noReg,
         RegIndex src2 = noReg)
{
    auto inst = std::make_unique<DynInst>();
    inst->seq = seq;
    inst->op.cls = cls;
    inst->op.dst = dst;
    inst->op.src1 = src1;
    inst->op.src2 = src2;
    return inst;
}

DynInst *
poolInst(DynInstPool &pool, SeqNum seq)
{
    DynInst *inst = pool.acquire();
    inst->seq = seq;
    return inst;
}

TEST(Rob, FifoOrderAndCapacity)
{
    DynInstPool pool(4);
    Rob rob(4, pool);
    EXPECT_TRUE(rob.empty());
    for (SeqNum s = 1; s <= 4; ++s)
        rob.allocate(poolInst(pool, s));
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head()->seq, 1u);
    EXPECT_EQ(rob.tail()->seq, 4u);
    rob.retireHead();
    EXPECT_EQ(rob.head()->seq, 2u);
    EXPECT_FALSE(rob.full());
    EXPECT_EQ(pool.liveCount(), 3u);
}

TEST(Rob, SquashFromRemovesSuffixYoungestFirst)
{
    DynInstPool pool(8);
    Rob rob(8, pool);
    for (SeqNum s = 1; s <= 6; ++s)
        rob.allocate(poolInst(pool, s));
    std::vector<SeqNum> squashed;
    rob.squashFrom(4, [&](DynInst *inst) {
        squashed.push_back(inst->seq);
        EXPECT_EQ(inst->stage, InstStage::Squashed);
    });
    ASSERT_EQ(squashed.size(), 3u);
    EXPECT_EQ(squashed[0], 6u);
    EXPECT_EQ(squashed[1], 5u);
    EXPECT_EQ(squashed[2], 4u);
    EXPECT_EQ(rob.tail()->seq, 3u);
    EXPECT_EQ(pool.liveCount(), 3u);
}

TEST(Rob, OutOfOrderAllocationPanics)
{
    DynInstPool pool(8);
    Rob rob(8, pool);
    rob.allocate(poolInst(pool, 5));
    EXPECT_DEATH(rob.allocate(poolInst(pool, 3)), ".*age order.*");
}

TEST(Rename, BindsProducersAndTracksFreeRegs)
{
    RenameState rs(40, 40);   // 8 free in each file
    EXPECT_EQ(rs.freeIntRegs(), 8u);

    auto p = makeInst(1, OpClass::IntAlu, 5);
    rs.rename(p.get());
    EXPECT_EQ(rs.freeIntRegs(), 7u);

    auto c = makeInst(2, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, p.get());
    EXPECT_EQ(c->src1ProducerSeq, 1u);

    // A consumer of an unwritten register has no producer.
    auto d = makeInst(3, OpClass::IntAlu, 7, 12);
    rs.rename(d.get());
    EXPECT_EQ(d->src1Producer, nullptr);
}

TEST(Rename, ReleaseClearsMapAndFreesReg)
{
    RenameState rs(40, 40);
    auto p = makeInst(1, OpClass::IntAlu, 5);
    rs.rename(p.get());
    rs.release(p.get());
    EXPECT_EQ(rs.freeIntRegs(), 8u);
    auto c = makeInst(2, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, nullptr);   // value is architectural
}

TEST(Rename, SquashRestoresPreviousMapping)
{
    RenameState rs(40, 40);
    auto p1 = makeInst(1, OpClass::IntAlu, 5);
    auto p2 = makeInst(2, OpClass::IntAlu, 5);
    rs.rename(p1.get());
    rs.rename(p2.get());
    rs.squash(p2.get(), 1);   // oldest active = 1: p1 still in flight
    auto c = makeInst(3, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, p1.get());
}

TEST(Rename, SquashDropsCommittedPrevMapping)
{
    RenameState rs(40, 40);
    auto p1 = makeInst(1, OpClass::IntAlu, 5);
    auto p2 = makeInst(2, OpClass::IntAlu, 5);
    rs.rename(p1.get());
    rs.rename(p2.get());
    rs.release(p1.get());      // p1 commits
    rs.squash(p2.get(), 3);    // oldest active seq is now 3
    auto c = makeInst(3, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, nullptr);
}

TEST(Rename, FpAndIntFilesIndependent)
{
    RenameState rs(33, 34);
    EXPECT_EQ(rs.freeIntRegs(), 1u);
    EXPECT_EQ(rs.freeFpRegs(), 2u);
    auto p = makeInst(1, OpClass::IntAlu, 3);
    EXPECT_TRUE(rs.canRename(p->op));
    rs.rename(p.get());
    auto q = makeInst(2, OpClass::IntAlu, 4);
    EXPECT_FALSE(rs.canRename(q->op));
    auto f = makeInst(3, OpClass::FpAdd, firstFpReg + 2);
    EXPECT_TRUE(rs.canRename(f->op));
}

TEST(IssueQueue, InsertRemoveSquash)
{
    // The pipeline squashes IQ entries from the ROB's youngest-first
    // squash walk; this drives the queue the same way.
    DynInstPool pool(4);
    Rob rob(4, pool);
    IssueQueue iq(3);
    DynInst *a = rob.allocate(poolInst(pool, 1));
    DynInst *b = rob.allocate(poolInst(pool, 2));
    DynInst *c = rob.allocate(poolInst(pool, 3));
    iq.insert(a);
    iq.insert(b);
    iq.insert(c);
    EXPECT_TRUE(a->inIssueQueue);
    EXPECT_TRUE(iq.full());
    iq.remove(b);   // b issues
    EXPECT_FALSE(b->inIssueQueue);
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_FALSE(iq.full());

    std::vector<SeqNum> squashed;
    rob.squashFrom(3, [&](DynInst *inst) {
        if (inst->inIssueQueue) {
            squashed.push_back(inst->seq);
            iq.remove(inst);
        }
    });
    ASSERT_EQ(squashed.size(), 1u);
    EXPECT_EQ(squashed[0], 3u);
    EXPECT_EQ(iq.size(), 1u);
    EXPECT_TRUE(a->inIssueQueue);

    // Seqs are never recycled: a younger dispatch is accepted, an
    // older one is an age-order violation.
    DynInst *d = rob.allocate(poolInst(pool, 4));
    iq.insert(d);
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_DEATH(iq.insert(poolInst(pool, 2)), ".*age order.*");
    EXPECT_DEATH(iq.remove(b), ".*absent.*");
}

TEST(SlotBitmap, WalksSetSlotsCircularlyFromStart)
{
    SlotBitmap bits(130);
    for (std::size_t slot : {0u, 5u, 63u, 64u, 100u, 129u})
        bits.set(slot);
    bits.set(0);    // already set: no double count
    bits.clear(5);
    bits.clear(6);  // never set
    EXPECT_TRUE(bits.test(64));
    EXPECT_FALSE(bits.test(5));
    EXPECT_EQ(bits.count(), 5u);

    std::vector<std::size_t> order;
    bits.forEachFrom(100, [&](std::size_t slot) {
        order.push_back(slot);
        return true;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{100, 129, 0, 63, 64}));

    // The walk stops when the visitor says so and tolerates the
    // visitor clearing the slot it was given.
    order.clear();
    bits.forEachFrom(64, [&](std::size_t slot) {
        order.push_back(slot);
        bits.clear(slot);
        return order.size() < 3;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{64, 100, 129}));
    EXPECT_FALSE(bits.test(129));
    EXPECT_TRUE(bits.test(0));
    EXPECT_EQ(bits.count(), 2u);

    SlotBitmap empty(64);
    empty.forEachFrom(0, [](std::size_t) {
        ADD_FAILURE() << "visited a slot of an empty bitmap";
        return true;
    });
}

TEST(FuPool, PerCycleBandwidth)
{
    FuPoolParams p;
    p.intAlu = 2;
    FuPool pool(p);
    pool.tick(1);
    unsigned lat = 0;
    EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, lat));
    EXPECT_EQ(lat, 1u);
    EXPECT_TRUE(pool.tryIssue(OpClass::Branch, lat));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntAlu, lat));
    pool.tick(2);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, lat));
}

TEST(FuPool, DividerIsUnpipelined)
{
    FuPoolParams p;
    FuPool pool(p);
    pool.tick(1);
    unsigned lat = 0;
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, lat));
    EXPECT_EQ(lat, p.intDivLat);
    pool.tick(2);
    EXPECT_FALSE(pool.tryIssue(OpClass::IntDiv, lat));
    pool.tick(1 + p.intDivLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, lat));
}

TEST(FuPool, ClassLatencies)
{
    FuPoolParams p;
    FuPool pool(p);
    pool.tick(1);
    unsigned lat = 0;
    EXPECT_TRUE(pool.tryIssue(OpClass::IntMult, lat));
    EXPECT_EQ(lat, p.intMultLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::FpAdd, lat));
    EXPECT_EQ(lat, p.fpAddLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::FpMult, lat));
    EXPECT_EQ(lat, p.fpMultLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::Load, lat));
    EXPECT_EQ(lat, p.intAluLat);
}

TEST(RegFileActivity, CountsByFile)
{
    RegFileActivity rf;
    auto inst = makeInst(1, OpClass::IntAlu, 3, 4, firstFpReg + 1);
    rf.noteIssueReads(inst.get());
    rf.noteWriteback(inst.get());
    EXPECT_EQ(rf.intReads(), 1u);
    EXPECT_EQ(rf.fpReads(), 1u);
    EXPECT_EQ(rf.intWrites(), 1u);
    EXPECT_EQ(rf.fpWrites(), 0u);
}

} // namespace
} // namespace dmdc
