/**
 * @file
 * A bounded multi-producer/consumer hand-off queue.
 *
 * Decouples producers from a consumer thread: the fleet's shard
 * workers enqueue tenant alarm batches and a per-shard collector
 * drains them.  When the queue is full the producer blocks
 * (backpressure: it waits for the consumer to catch up), so no item is
 * ever lost.
 */

#ifndef CCHUNTER_UTIL_BOUNDED_QUEUE_HH
#define CCHUNTER_UTIL_BOUNDED_QUEUE_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/logging.hh"

namespace cchunter
{

/**
 * Fixed-capacity FIFO queue with blocking push and pop.  close() wakes
 * all waiters; pushes after (or racing) close() return a definite
 * rejection and never block, and pops drain the remaining items
 * before returning nullopt.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity) : cap_(capacity)
    {
        if (cap_ == 0)
            fatal("BoundedQueue requires capacity >= 1");
    }

    /**
     * Enqueue an item, waiting for space.  A close() arriving while
     * the producer waits (or before it) wakes the wait and yields a
     * definite rejection: false means the item was NOT enqueued, and
     * its side-effects are the producer's to handle.
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notFull_.wait(lock,
                      [this] { return queue_.size() < cap_ || closed_; });
        if (closed_)
            return false;
        queue_.push_back(std::move(item));
        highWater_ = std::max(highWater_, queue_.size());
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Dequeue the oldest item, waiting until one is available.
     * Returns nullopt once the queue is closed and drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notEmpty_.wait(lock,
                       [this] { return !queue_.empty() || closed_; });
        if (queue_.empty())
            return std::nullopt;
        T out = std::move(queue_.front());
        queue_.pop_front();
        notFull_.notify_one();
        return out;
    }

    /** Reject further pushes and wake all waiters. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    /** Deepest the queue has ever been. */
    std::size_t
    highWaterMark() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return highWater_;
    }

  private:
    const std::size_t cap_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> queue_;
    bool closed_ = false;
    std::size_t highWater_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_UTIL_BOUNDED_QUEUE_HH
