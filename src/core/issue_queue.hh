/**
 * @file
 * Issue queue (scheduler window) occupancy and the ROB-slot bitmap
 * the pipeline's wakeup-driven select walks.
 */

#ifndef DMDC_CORE_ISSUE_QUEUE_HH
#define DMDC_CORE_ISSUE_QUEUE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "core/inst.hh"

namespace dmdc
{

/**
 * One issue queue (the paper's machine has separate INT and FP
 * queues). It bounds dispatch by capacity and owns the inIssueQueue
 * flag; which entries are ready, and their age order, live in the
 * pipeline's ready set (a SlotBitmap over ROB slots), so the queue
 * itself keeps no entry list.
 */
class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity);

    bool full() const { return size_ >= capacity_; }
    std::size_t size() const { return size_; }
    unsigned capacity() const { return capacity_; }

    /** Insert at dispatch; panics when full or out of age order. */
    void insert(DynInst *inst);

    /** Remove @p inst when it issues or is squashed. */
    void remove(DynInst *inst);

  private:
    unsigned capacity_;
    unsigned size_ = 0;
    SeqNum youngest_ = 0;   ///< seq of the last insert
};

/**
 * Fixed-size bitmap over ROB storage slots. Walking set slots
 * circularly from the ROB head slot visits them oldest-first, so a
 * slot set doubles as an age-ordered set of in-flight instructions
 * with O(1) insert and remove and no allocation after construction.
 */
class SlotBitmap
{
  public:
    explicit SlotBitmap(std::size_t slots) : words_((slots + 63) / 64) {}

    void
    set(std::size_t slot)
    {
        std::uint64_t &w = words_[slot >> 6];
        count_ += (w & bit(slot)) == 0;
        w |= bit(slot);
    }

    void
    clear(std::size_t slot)
    {
        std::uint64_t &w = words_[slot >> 6];
        count_ -= (w & bit(slot)) != 0;
        w &= ~bit(slot);
    }

    bool test(std::size_t slot) const
    {
        return (words_[slot >> 6] & bit(slot)) != 0;
    }

    std::size_t count() const { return count_; }

    /**
     * Call @p fn(slot) for every set slot, circularly from @p start,
     * until it returns false. Each word is read once before its slots
     * are visited, so @p fn may clear the slot it is given; it must
     * not set or clear any other slot. The walk ends at the last set
     * slot, so an empty bitmap costs one compare.
     */
    template <typename Fn>
    void
    forEachFrom(std::size_t start, Fn &&fn) const
    {
        std::size_t left = count_;
        if (left == 0)
            return;
        const std::size_t n = words_.size();
        const std::size_t first = start >> 6;
        const std::uint64_t high = ~std::uint64_t{0} << (start & 63);
        // Word `first` is visited twice: its slots >= start open the
        // walk and its slots < start close it.
        for (std::size_t i = 0; i <= n; ++i) {
            const std::size_t w = first + i < n ? first + i
                                                : first + i - n;
            std::uint64_t bits = words_[w];
            if (i == 0)
                bits &= high;
            else if (i == n)
                bits &= ~high;
            while (bits) {
                const unsigned b = std::countr_zero(bits);
                bits &= bits - 1;
                if (!fn((w << 6) + b) || --left == 0)
                    return;
            }
        }
    }

  private:
    static std::uint64_t bit(std::size_t slot)
    {
        return std::uint64_t{1} << (slot & 63);
    }

    std::vector<std::uint64_t> words_;
    std::size_t count_ = 0;   ///< set slots
};

} // namespace dmdc

#endif // DMDC_CORE_ISSUE_QUEUE_HH
