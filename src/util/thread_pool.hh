/**
 * @file
 * A fixed-size worker-thread pool.
 *
 * The fleet auditor runs its shards on one, and an audit daemon fans
 * its per-slot quantum analyses across another; both need a reusable
 * pool rather than per-call thread spawning.  parallelFor() lets the
 * calling thread participate in its own work items, so nested parallel
 * sections (a daemon's slot fan-out inside a fleet shard) make
 * progress even when every worker is busy.
 */

#ifndef CCHUNTER_UTIL_THREAD_POOL_HH
#define CCHUNTER_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cchunter
{

/**
 * Fixed-size thread pool.  Jobs run in submission order (FIFO) but
 * complete in any order; destruction drains the queue and joins all
 * workers.
 */
class ThreadPool
{
  public:
    /** Spawn num_threads workers; 0 means hardwareConcurrency(). */
    explicit ThreadPool(std::size_t num_threads = 0);

    /** Runs any queued jobs to completion, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static std::size_t hardwareConcurrency();

    /** Enqueue a fire-and-forget job. */
    void run(std::function<void()> job);

    /**
     * Invoke body(i) for every i in [0, count), spread across the
     * workers *and* the calling thread, returning once all calls have
     * completed.  Work items are claimed from a shared counter, so the
     * partition is dynamic but writing results by index keeps output
     * deterministic.
     *
     * A body call that throws poisons the range: indices not yet
     * claimed are abandoned, already-running calls are allowed to
     * finish, and the first exception is rethrown on the caller — it
     * never deadlocks the caller's participation, and no body call can
     * still be executing (or start executing) once parallelFor has
     * returned.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)>& body);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

} // namespace cchunter

#endif // CCHUNTER_UTIL_THREAD_POOL_HH
