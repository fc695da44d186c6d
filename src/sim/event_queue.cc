#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

void
EventQueue::schedule(Tick when, Handler handler, void* object,
                     std::uint64_t arg, EventPriority prio)
{
    if (when < now_)
        panic("EventQueue: scheduling into the past (", when, " < ",
              now_, ")");
    const std::uint64_t order =
        std::uint64_t{static_cast<std::uint8_t>(prio)} << seqBits |
        nextSeq_++;
    const Entry e{when, order, handler, object, arg};
    if (!empty() && !Later{}(earliest(), e)) {
        queue_.push_back(e);
        std::push_heap(queue_.begin(), queue_.end(), Later{});
        return;
    }
    // Earlier than everything pending: the slot takes it, and a
    // previous occupant moves to the heap.
    if (hasNext_) {
        queue_.push_back(next_);
        std::push_heap(queue_.begin(), queue_.end(), Later{});
    }
    next_ = e;
    hasNext_ = true;
}

void
EventQueue::fireNext()
{
    // Copied out: the handler may schedule into the slot.
    Entry e{};
    if (hasNext_) {
        e = next_;
        hasNext_ = false;
    } else {
        std::pop_heap(queue_.begin(), queue_.end(), Later{});
        e = queue_.back();
        queue_.pop_back();
    }
    now_ = e.when;
    e.handler(e.object, e.arg);
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t executed = 0;
    while (!empty() && earliest().when < until) {
        fireNext();
        ++executed;
    }
    if (now_ < until)
        now_ = until;
    return executed;
}

bool
EventQueue::step()
{
    if (empty())
        return false;
    fireNext();
    return true;
}

} // namespace cchunter
