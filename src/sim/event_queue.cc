#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    if (when < now_)
        panic("EventQueue: scheduling into the past (", when, " < ",
              now_, ")");
    queue_.push_back(Entry{when, prio, nextSeq_++, std::move(cb)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
}

EventQueue::Entry
EventQueue::popNext()
{
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Entry e = std::move(queue_.back());
    queue_.pop_back();
    return e;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t executed = 0;
    while (!queue_.empty() && queue_.front().when < until) {
        Entry e = popNext();
        now_ = e.when;
        e.cb();
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
    Entry e = popNext();
    now_ = e.when;
    e.cb();
    return true;
}

} // namespace cchunter
