#include "util/thread_pool.hh"

#include <algorithm>
#include <exception>
#include <memory>

#include "util/logging.hh"

namespace cchunter
{

std::size_t
ThreadPool::hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareConcurrency();
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::run(std::function<void()> job)
{
    if (!job)
        fatal("ThreadPool::run: empty job");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            fatal("ThreadPool::run: pool is shutting down");
        queue_.push_back(std::move(job));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
    }
}

namespace
{

/**
 * Shared progress of one parallelFor call.  Owns a copy of the body so
 * helper tasks that start after the caller has already drained the
 * counter never touch a dead frame.
 *
 * Claims happen under the mutex (work items here are coarse — slot
 * analyses, fleet shards — so claim cost is noise) which makes the
 * termination invariant simple: once `error` is set or `next` reaches
 * `count`, no new item can ever start, and the caller only needs
 * `inFlight` to drain to zero before returning.  Both conditions are
 * monotone, so a helper task scheduled long after the caller has
 * returned observes them and exits without touching the body.
 */
struct ForState
{
    ForState(std::size_t n, std::function<void(std::size_t)> b)
        : count(n), body(std::move(b))
    {
    }

    const std::size_t count;
    const std::function<void(std::size_t)> body;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t next = 0;     //!< first unclaimed index
    std::size_t inFlight = 0; //!< items currently executing
    std::exception_ptr error;
};

/** Claim and run indices until the range is exhausted or poisoned. */
void
drainIndices(ForState& state)
{
    for (;;) {
        std::size_t i;
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            // A recorded failure poisons the range: indices never
            // claimed are abandoned rather than executed for a result
            // the caller will discard on rethrow.
            if (state.error || state.next >= state.count)
                return;
            i = state.next++;
            ++state.inFlight;
        }
        bool failed = false;
        try {
            state.body(i);
        } catch (...) {
            failed = true;
            std::lock_guard<std::mutex> lock(state.mutex);
            if (!state.error)
                state.error = std::current_exception();
            --state.inFlight;
        }
        if (!failed) {
            std::lock_guard<std::mutex> lock(state.mutex);
            --state.inFlight;
        }
        state.done.notify_all();
    }
}

} // namespace

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)>& body)
{
    if (count == 0)
        return;
    if (workers_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    auto state = std::make_shared<ForState>(count, body);
    // One helper task per worker (bounded by the item count); each
    // claims items from the shared counter until none remain.
    const std::size_t helpers = std::min(workers_.size(), count - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        run([state]() { drainIndices(*state); });

    // The caller participates too, which guarantees progress even when
    // all workers are blocked inside nested parallelFor calls.
    drainIndices(*state);

    // The caller's own drain only returns once the range is exhausted
    // or poisoned (both monotone), so waiting for the in-flight count
    // to reach zero is sufficient: helper tasks that have not yet run
    // will find the same condition and claim nothing.
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&]() {
        return state->inFlight == 0 &&
               (state->error || state->next >= state->count);
    });
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace cchunter
