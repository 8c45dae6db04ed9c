/**
 * @file
 * A fixed-capacity single-ended ring buffer (FIFO).
 *
 * FixedRing replaces std::deque in the simulator's hot queues (NI
 * input/output/privileged queues, mesh router input buffers).  The
 * capacity is fixed at reset() time -- queue depths come from the
 * architectural configuration (NiConfig depths, mesh buffer depth), so
 * the backing store is allocated once and the steady-state push/pop
 * path never touches the heap.  Overflow is a simulator bug: callers
 * are expected to test full()/size() against the architectural limit
 * before pushing, exactly as they previously tested the deque's size.
 *
 * The backing store is raw, uninitialised storage: push_back()
 * constructs the element in its slot and pop_front() destroys it, so
 * a deep ring costs one allocation and no per-slot construction (the
 * Table-1 harness builds 1024-deep client rings hundreds of times per
 * sweep), and any resources an element owns (e.g. the extra words of
 * a long Message) are released as soon as it is popped.
 */

#ifndef TCPNI_COMMON_RING_HH
#define TCPNI_COMMON_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace tcpni
{

template <typename T>
class FixedRing
{
  public:
    FixedRing() = default;
    explicit FixedRing(size_t capacity) { reset(capacity); }
    ~FixedRing() { release(); }

    FixedRing(FixedRing &&other) noexcept
        : buf_(std::exchange(other.buf_, nullptr)),
          cap_(std::exchange(other.cap_, 0)),
          head_(std::exchange(other.head_, 0)),
          len_(std::exchange(other.len_, 0))
    {}

    FixedRing &
    operator=(FixedRing &&other) noexcept
    {
        if (this != &other) {
            release();
            buf_ = std::exchange(other.buf_, nullptr);
            cap_ = std::exchange(other.cap_, 0);
            head_ = std::exchange(other.head_, 0);
            len_ = std::exchange(other.len_, 0);
        }
        return *this;
    }

    FixedRing(const FixedRing &) = delete;
    FixedRing &operator=(const FixedRing &) = delete;

    /** (Re)allocate the backing store; drops any current contents.
     *  A capacity of 0 is legal and yields a permanently-full ring. */
    void
    reset(size_t capacity)
    {
        release();
        if (capacity)
            buf_ = std::allocator<T>().allocate(capacity);
        cap_ = capacity;
    }

    size_t size() const { return len_; }
    size_t capacity() const { return cap_; }
    bool empty() const { return len_ == 0; }
    bool full() const { return len_ == cap_; }

    void
    push_back(T v)
    {
        tcpni_assert(len_ < cap_);
        std::construct_at(buf_ + wrap(head_ + len_), std::move(v));
        ++len_;
    }

    T &
    front()
    {
        tcpni_assert(len_ > 0);
        return buf_[head_];
    }

    const T &
    front() const
    {
        tcpni_assert(len_ > 0);
        return buf_[head_];
    }

    void
    pop_front()
    {
        tcpni_assert(len_ > 0);
        std::destroy_at(buf_ + head_);
        head_ = wrap(head_ + 1);
        --len_;
    }

    /** Element @p i positions behind the front (0 == front). */
    T &
    operator[](size_t i)
    {
        tcpni_assert(i < len_);
        return buf_[wrap(head_ + i)];
    }

    const T &
    operator[](size_t i) const
    {
        tcpni_assert(i < len_);
        return buf_[wrap(head_ + i)];
    }

  private:
    /** head_ + offset stays < 2 * cap_, so one subtraction wraps. */
    size_t wrap(size_t i) const { return i >= cap_ ? i - cap_ : i; }

    /** Destroy the live elements and free the store. */
    void
    release()
    {
        while (len_ > 0)
            pop_front();
        if (buf_)
            std::allocator<T>().deallocate(buf_, cap_);
        buf_ = nullptr;
        cap_ = 0;
        head_ = 0;
    }

    T *buf_ = nullptr;
    size_t cap_ = 0;
    size_t head_ = 0;
    size_t len_ = 0;
};

} // namespace tcpni

#endif // TCPNI_COMMON_RING_HH
