/**
 * @file
 * DynInst — one in-flight dynamic instruction and all per-instruction
 * pipeline, memory and mechanism state.
 */

#ifndef DMDC_CORE_INST_HH
#define DMDC_CORE_INST_HH

#include <cstdint>

#include "branch/predictor.hh"
#include "common/types.hh"
#include "trace/microop.hh"

namespace dmdc
{

/** Progress of an instruction through the pipeline. */
enum class InstStage : std::uint8_t
{
    Fetched,      ///< in the fetch/decode queue
    Dispatched,   ///< in ROB (+IQ/LSQ), waiting for operands
    Issued,       ///< executing on a functional unit / memory
    Done,         ///< completed, waiting to commit
    Committed,
    Squashed,
};

/**
 * A waiter-list link names one consumer source: the consumer's ROB
 * slot times 4 plus the source index (0..2 for src1..src3). A
 * consumer stays in the ROB while linked, so its slot identifies it.
 */
constexpr std::uint32_t noWaitLink = ~std::uint32_t{0};

/** An in-flight dynamic instruction. */
struct DynInst
{
    MicroOp op;
    SeqNum seq = invalidSeqNum;   ///< global age, never recycled
    std::uint64_t traceIndex = ~std::uint64_t{0};  ///< correct-path index
    bool wrongPath = false;

    InstStage stage = InstStage::Fetched;
    Cycle fetchReadyCycle = 0;    ///< earliest dispatch cycle
    Cycle issueCycle = 0;
    Cycle doneCycle = 0;

    /**
     * Source operand producers; nullptr when the value was already
     * architectural at rename. The paired seq lets readiness checks
     * avoid dereferencing producers that have already committed (and
     * been freed): a producer with seq below the ROB head is done.
     */
    DynInst *src1Producer = nullptr;
    DynInst *src2Producer = nullptr;
    DynInst *src3Producer = nullptr;
    SeqNum src1ProducerSeq = invalidSeqNum;
    SeqNum src2ProducerSeq = invalidSeqNum;
    SeqNum src3ProducerSeq = invalidSeqNum;
    DynInst *renamePrev = nullptr;  ///< previous mapping of op.dst
    SeqNum renamePrevSeq = invalidSeqNum;
    bool inIssueQueue = false;

    // ---- wakeup state (see Pipeline::registerWaits) ----
    std::uint8_t pendingSrcs = 0; ///< issue-gating sources not yet done
    std::uint8_t waitMask = 0;    ///< bit k: source k is on a waiter list
    std::uint32_t robSlot = 0;    ///< ROB storage slot, set at dispatch
    /**
     * Waiter lists. @c waiters heads the list of consumer sources
     * waiting on this instruction, youngest first; waitNext[k]
     * continues a producer's list past this instruction's source k.
     * A link is followed only while its waitMask bit is set.
     */
    std::uint32_t waiters = noWaitLink;
    std::uint32_t waitNext[3] = {noWaitLink, noWaitLink, noWaitLink};
    /** Next completion of the same cycle, ascending seq (linked only
     *  while scheduled in the CompletionQueue). */
    DynInst *completionNext = nullptr;

    // ---- branch state ----
    BranchPrediction pred;
    bool predictionMade = false;
    bool mispredicted = false;

    // ---- memory state ----
    bool sqAddrReady = false;     ///< store address resolved
    bool sqDataReady = false;     ///< store data ready
    bool loadIssued = false;      ///< load has obtained its value
    Cycle memIssueCycle = 0;      ///< when the load accessed memory
    SeqNum forwardedFrom = invalidSeqNum; ///< store that forwarded data
    bool rejected = false;        ///< load rejected by SQ this attempt
    Cycle retryCycle = 0;         ///< when a rejected load retries

    // ---- mechanism state (YLA / DMDC) ----
    bool safeLoad = false;        ///< all older stores resolved at issue
    bool safeStore = false;       ///< YLA filtered the LQ check
    bool unsafeStoreChecked = false; ///< DMDC classification done
    SeqNum capturedWindowEnd = invalidSeqNum; ///< YLA value at resolve

    // ---- ground truth (simulator-only ghost state) ----
    bool ghostViolation = false;  ///< true premature load
    SeqNum ghostViolatingStore = invalidSeqNum;

    bool isLoad() const { return op.isLoad(); }
    bool isStore() const { return op.isStore(); }
    bool isBranch() const { return op.isBranch(); }
    bool completed() const
    {
        return stage == InstStage::Done || stage == InstStage::Committed;
    }
};

} // namespace dmdc

#endif // DMDC_CORE_INST_HH
