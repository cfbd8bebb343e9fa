/**
 * @file
 * Slab/freelist object pool and a fixed-capacity ring buffer — the
 * allocation-free building blocks of the simulator hot loop.
 *
 * ObjectPool hands out default-initialized objects from pre-allocated
 * slabs and recycles released ones LIFO, so the per-instruction
 * make_unique/delete churn of the seed implementation disappears from
 * fetch/retire. RingBuffer replaces std::deque in the fetch queue and
 * ROB: contiguous storage, no node allocation, O(1) push/pop at both
 * ends.
 *
 * Recycling safety: the pipeline already treats pointers to retired
 * instructions as dangling and guards every dereference with the
 * paired sequence number (see DynInst::src*ProducerSeq and
 * Pipeline::producerDone). A recycled slot is reused only for a
 * strictly younger instruction, so a guard that passes proves the
 * pointee is the live original — pooling is exactly as safe as the
 * seed's free-after-retire discipline.
 */

#ifndef DMDC_COMMON_OBJECT_POOL_HH
#define DMDC_COMMON_OBJECT_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/logging.hh"

namespace dmdc
{

/**
 * Slab allocator with a LIFO freelist. Objects are reset to their
 * default-constructed state on acquire, so callers never observe
 * stale fields from a previous life.
 *
 * @tparam T default-constructible, copy-assignable object type.
 */
template <typename T>
class ObjectPool
{
  public:
    /**
     * @param initial_capacity objects pre-allocated up front
     * @param max_objects hard cap on total objects (0 = grow on
     *        demand in slabs of the initial capacity)
     */
    explicit ObjectPool(std::size_t initial_capacity,
                        std::size_t max_objects = 0)
        : slabSize_(initial_capacity ? initial_capacity : 1),
          max_(max_objects)
    {
        addSlab(slabSize_);
    }

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    /** Objects currently handed out. */
    std::size_t liveCount() const { return total_ - free_.size(); }
    /** Objects allocated across all slabs. */
    std::size_t capacity() const { return total_; }

    /**
     * Acquire a freshly-reset object; nullptr when a bounded pool is
     * exhausted.
     */
    T *
    tryAcquire()
    {
        if (free_.empty()) {
            if (max_ && total_ >= max_)
                return nullptr;
            std::size_t grow = slabSize_;
            if (max_ && total_ + grow > max_)
                grow = max_ - total_;
            addSlab(grow);
        }
        T *obj = free_.back();
        free_.pop_back();
        *obj = T{};
        return obj;
    }

    /** Acquire a freshly-reset object; panics on exhaustion. */
    T *
    acquire()
    {
        T *obj = tryAcquire();
        if (!obj)
            panic("object pool exhausted (%zu objects live)", total_);
        return obj;
    }

    /** Return an object to the pool. It must come from this pool. */
    void
    release(T *obj)
    {
        free_.push_back(obj);
    }

  private:
    void
    addSlab(std::size_t count)
    {
        slabs_.push_back(std::make_unique<T[]>(count));
        T *base = slabs_.back().get();
        free_.reserve(free_.size() + count);
        // Pushed in reverse so the LIFO freelist hands out slab
        // objects in address order initially (cache-friendly).
        for (std::size_t i = count; i-- > 0;)
            free_.push_back(base + i);
        total_ += count;
    }

    std::vector<std::unique_ptr<T[]>> slabs_;
    std::vector<T *> free_;
    std::size_t slabSize_;
    std::size_t total_ = 0;
    std::size_t max_;
};

/**
 * Fixed-capacity circular queue. Indexing is oldest-first:
 * operator[](0) == front(). Push/pop at either end is O(1) with no
 * allocation after construction.
 */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity) : buf_(capacity) {}

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= buf_.size(); }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[wrap(size_ - 1)]; }
    const T &back() const { return buf_[wrap(size_ - 1)]; }

    /** @p i counts from the oldest element (0 == front). */
    T &operator[](std::size_t i) { return buf_[wrap(i)]; }
    const T &operator[](std::size_t i) const { return buf_[wrap(i)]; }

    /**
     * Storage slot of the element at logical position @p i. An
     * element keeps its slot until it is popped, so slots are stable
     * handles, and walking slots circularly from slotOf(0) visits
     * elements oldest-first.
     */
    std::size_t slotOf(std::size_t i) const { return wrap(i); }
    const T &atSlot(std::size_t slot) const { return buf_[slot]; }

    void
    push_back(const T &v)
    {
        if (full())
            panic("ring buffer overflow (capacity %zu)", buf_.size());
        buf_[wrap(size_)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        if (empty())
            panic("ring buffer pop_front on empty buffer");
        head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
        --size_;
    }

    void
    pop_back()
    {
        if (empty())
            panic("ring buffer pop_back on empty buffer");
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        i += head_;
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dmdc

#endif // DMDC_COMMON_OBJECT_POOL_HH
