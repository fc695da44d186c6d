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
    queue_.push_back(Entry{when, order, handler, object, arg});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void
EventQueue::fireNext()
{
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    const Entry e = queue_.back();
    queue_.pop_back();
    now_ = e.when;
    e.handler(e.object, e.arg);
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t executed = 0;
    while (!queue_.empty() && queue_.front().when < until) {
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
    if (queue_.empty())
        return false;
    fireNext();
    return true;
}

} // namespace cchunter
