/**
 * @file
 * A bounded multi-producer/consumer hand-off queue.
 *
 * Decouples producers from a consumer thread: the fleet's shard
 * workers enqueue tenant alarm batches and a per-shard collector
 * drains them (the fleet's watchdog also waits on one with popFor).
 * When the queue is full the producer blocks (backpressure: it waits
 * for the consumer to catch up), so no item is ever lost.
 */

#ifndef CCHUNTER_UTIL_BOUNDED_QUEUE_HH
#define CCHUNTER_UTIL_BOUNDED_QUEUE_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
        ++pushed_;
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

    /**
     * Dequeue the oldest item, waiting at most `timeout`.  Returns
     * nullopt on timeout or once the queue is closed and drained —
     * callers that must tell the cases apart check closed().  A
     * close() arriving mid-wait wakes the waiter immediately, so a
     * watchdog polling on popFor() shuts down without serving out its
     * full interval.
     */
    template <typename Rep, typename Period>
    std::optional<T>
    popFor(std::chrono::duration<Rep, Period> timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notEmpty_.wait_for(lock, timeout, [this] {
            return !queue_.empty() || closed_;
        });
        if (queue_.empty())
            return std::nullopt;
        T out = std::move(queue_.front());
        queue_.pop_front();
        notFull_.notify_one();
        return out;
    }

    /** Non-blocking dequeue. */
    bool
    tryPop(T& out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        out = std::move(queue_.front());
        queue_.pop_front();
        notFull_.notify_one();
        return true;
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

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Items currently queued. */
    std::size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return queue_.size();
    }

    std::size_t capacity() const { return cap_; }

    /** Deepest the queue has ever been. */
    std::size_t
    highWaterMark() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return highWater_;
    }

    /** Successful pushes so far. */
    std::uint64_t
    pushed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return pushed_;
    }

  private:
    const std::size_t cap_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> queue_;
    bool closed_ = false;
    std::size_t highWater_ = 0;
    std::uint64_t pushed_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_UTIL_BOUNDED_QUEUE_HH
