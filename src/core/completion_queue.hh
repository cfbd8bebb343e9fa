/**
 * @file
 * Calendar completion queue: the pipeline's timing wheel of scheduled
 * instruction completions.
 *
 * Every completion cycle is known when an instruction issues, and it
 * is never further ahead than the longest latency an issue can
 * schedule. A ring of span > that latency buckets, indexed by
 * cycle & (span - 1), therefore holds each pending cycle in its own
 * bucket, and a busy-bucket bitmap finds the next one with a word
 * scan. Each bucket is a list of its instructions in ascending seq,
 * linked through DynInst::completionNext, so popping the current
 * cycle's bucket front to back is exactly the (when, seq) order of a
 * binary heap on the same events, and the queue allocates nothing
 * after construction.
 */

#ifndef DMDC_CORE_COMPLETION_QUEUE_HH
#define DMDC_CORE_COMPLETION_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/inst.hh"

namespace dmdc
{

class CompletionQueue
{
  public:
    /**
     * @param max_latency the longest now-to-completion distance any
     *        schedule() will ask for; the span is the next power of
     *        two above it.
     */
    explicit CompletionQueue(Cycle max_latency);

    /** Number of buckets (a power of two > max_latency). */
    Cycle span() const { return mask_ + 1; }

    /**
     * Schedule @p inst, which must not be scheduled already, to
     * complete at @p when. Panics unless now < when < now + span().
     */
    void
    schedule(DynInst *inst, Cycle when, Cycle now)
    {
        if (when <= now || when - now > mask_)
            outOfSpan(when, now);
        const std::size_t b = when & mask_;
        Bucket &bucket = buckets_[b];
        inst->completionNext = nullptr;
        if (!bucket.head) {
            bucket.when = when;
            bucket.head = bucket.tail = inst;
            busy_[b >> 6] |= std::uint64_t{1} << (b & 63);
            return;
        }
        // Issue order is mostly age order: usually an append.
        ++examined_;
        if (bucket.tail->seq < inst->seq) {
            bucket.tail->completionNext = inst;
            bucket.tail = inst;
            return;
        }
        insertSorted(bucket, inst);
    }

    /**
     * Pop every completion due at @p now, oldest first, calling
     * @p complete on each. @p complete may call squashFrom() for seqs
     * younger than the instruction it was given (a branch resolving),
     * which drops the rest of this bucket before it is reached. It
     * must not schedule. @return the number completed.
     */
    template <typename Fn>
    unsigned
    popDue(Cycle now, Fn &&complete)
    {
        const std::size_t b = now & mask_;
        if (!((busy_[b >> 6] >> (b & 63)) & 1))
            return 0;
        Bucket &bucket = buckets_[b];
        if (bucket.when != now)
            stale(bucket.when, now);
        unsigned n = 0;
        for (DynInst *inst = bucket.head; inst;) {
            ++n;
            complete(inst);
            // Read the link only now: a squash inside complete() cuts
            // the list right after inst.
            inst = inst->completionNext;
        }
        examined_ += n;
        popped_ += n;
        bucket.head = bucket.tail = nullptr;
        busy_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        return n;
    }

    /** Drop every entry with seq >= @p from_seq (busy buckets only). */
    void squashFrom(SeqNum from_seq);

    /** Earliest pending completion cycle after @p now; 0 if none. */
    Cycle nextEvent(Cycle now) const;

    /**
     * Entries examined since construction: seq comparisons of inserts
     * and squash purges, plus one per pop. A deterministic work
     * counter, kept out of the stats tree.
     */
    std::uint64_t examined() const { return examined_; }

    /** Completions popped since construction. */
    std::uint64_t popped() const { return popped_; }

  private:
    struct Bucket
    {
        Cycle when = 0;             ///< valid while head is set
        DynInst *head = nullptr;    ///< oldest
        DynInst *tail = nullptr;    ///< youngest
    };

    void insertSorted(Bucket &bucket, DynInst *inst);
    [[noreturn]] void outOfSpan(Cycle when, Cycle now) const;
    [[noreturn]] void stale(Cycle when, Cycle now) const;

    Cycle mask_;
    std::vector<Bucket> buckets_;
    std::vector<std::uint64_t> busy_;   ///< one bit per bucket
    std::uint64_t examined_ = 0;
    std::uint64_t popped_ = 0;
};

} // namespace dmdc

#endif // DMDC_CORE_COMPLETION_QUEUE_HH
