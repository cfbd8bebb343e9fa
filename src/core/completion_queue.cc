/**
 * @file
 * Calendar completion queue implementation.
 */

#include "core/completion_queue.hh"

#include <bit>

#include "common/logging.hh"

namespace dmdc
{

CompletionQueue::CompletionQueue(Cycle max_latency)
    : mask_(std::bit_ceil(max_latency + 1) - 1),
      buckets_(mask_ + 1),
      busy_((mask_ + 1 + 63) / 64, 0)
{
}

void
CompletionQueue::insertSorted(Bucket &bucket, DynInst *inst)
{
    // The tail is younger, so the walk stops before the end.
    DynInst **link = &bucket.head;
    for (;;) {
        ++examined_;
        if ((*link)->seq > inst->seq)
            break;
        link = &(*link)->completionNext;
    }
    inst->completionNext = *link;
    *link = inst;
}

void
CompletionQueue::squashFrom(SeqNum from_seq)
{
    for (std::size_t w = 0; w < busy_.size(); ++w) {
        for (std::uint64_t bits = busy_[w]; bits; bits &= bits - 1) {
            const unsigned bit = std::countr_zero(bits);
            Bucket &bucket = buckets_[w * 64 + bit];
            ++examined_;
            if (bucket.tail->seq < from_seq)
                continue;
            // Keep the older prefix; cut the list after it.
            DynInst *last = nullptr;
            for (DynInst *inst = bucket.head; inst->seq < from_seq;
                 inst = inst->completionNext) {
                ++examined_;
                last = inst;
            }
            bucket.tail = last;
            if (last) {
                last->completionNext = nullptr;
            } else {
                bucket.head = nullptr;
                busy_[w] &= ~(std::uint64_t{1} << bit);
            }
        }
    }
}

Cycle
CompletionQueue::nextEvent(Cycle now) const
{
    // Every pending cycle lies in (now, now + span), so the first busy
    // bucket circularly after now's holds the earliest. The last pass
    // revisits the start word whole, picking up the wrapped low bits.
    const std::size_t start = (now + 1) & mask_;
    std::size_t w = start >> 6;
    std::uint64_t bits = busy_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t step = 0; step <= busy_.size(); ++step) {
        if (bits)
            return buckets_[w * 64 + std::countr_zero(bits)].when;
        w = w + 1 == busy_.size() ? 0 : w + 1;
        bits = busy_[w];
    }
    return 0;
}

void
CompletionQueue::outOfSpan(Cycle when, Cycle now) const
{
    panic("completion at cycle %llu outside (now %llu, now + span %llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now),
          static_cast<unsigned long long>(span()));
}

void
CompletionQueue::stale(Cycle when, Cycle now) const
{
    panic("completion bucket for cycle %llu still pending at cycle %llu",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now));
}

} // namespace dmdc
