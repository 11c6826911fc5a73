/**
 * @file
 * FIFO ring over one power-of-two buffer, for the simulator's request
 * queues (DRAM channel queues, memory-controller staging, MSHR park
 * stamps). The buffer is allocated on the first push and doubles when
 * full; it never shrinks. Once a queue has reached its high-water
 * mark, pushes, pops and erases never allocate, where a std::deque
 * allocates a block each time its tail crosses into a new one.
 */

#ifndef CARVE_COMMON_RING_HH
#define CARVE_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace carve {

template <class T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Element @p i places behind the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }

    void
    push_back(T value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    /** Drop the front element (the ring must not be empty). */
    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /**
     * Remove element @p i, keeping the order of the rest. The @p i
     * elements in front of it each move back one place, so erasing
     * near the front (FR-FCFS picks inside a short scan window) is
     * cheap.
     */
    void
    erase(std::size_t i)
    {
        for (; i > 0; --i)
            (*this)[i] = std::move((*this)[i - 1]);
        pop_front();
    }

  private:
    static constexpr std::size_t min_capacity = 8;

    void
    grow()
    {
        std::vector<T> next(std::max(min_capacity, buf_.size() * 2));
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move((*this)[i]);
        buf_.swap(next);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace carve

#endif // CARVE_COMMON_RING_HH
