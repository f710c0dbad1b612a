/**
 * @file
 * Allocation-free FIFO for the simulator's hot paths.
 *
 * Ring<T>: a power-of-two ring buffer with deque semantics
 * (push_back/pop_front) and vector storage. A deque allocates and
 * frees fixed-size chunks as its window slides — per-packet churn on
 * wire and NIC queues; a ring reaches its high-water capacity once and
 * never allocates again. Growth preserves FIFO order.
 *
 * Rules (see DESIGN.md "Pooling rules"): containers that live in
 * steady-state paths reserve once and are reused via clear(), not
 * reconstructed.
 */

#ifndef NMAPSIM_SIM_POOL_HH_
#define NMAPSIM_SIM_POOL_HH_

#include <bit>
#include <cstddef>
#include <vector>

namespace nmapsim {

/**
 * Power-of-two ring buffer with deque semantics and vector storage.
 *
 * push_back/pop_front are O(1); growth (amortised, FIFO-preserving)
 * happens only until the high-water mark is reached, after which the
 * ring never touches the allocator again.
 */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t initial_capacity = 16)
    {
        buf_.resize(std::bit_ceil(
            initial_capacity < 2 ? std::size_t{2} : initial_capacity));
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    T &
    front()
    {
        return buf_[head_];
    }

    const T &
    front() const
    {
        return buf_[head_];
    }

    /** Element @p i positions behind the front (0 == front()). */
    T &
    at(std::size_t i)
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    const T &
    at(std::size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void
    push_back(const T &value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = value;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
        buf_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace nmapsim

#endif // NMAPSIM_SIM_POOL_HH_
