/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single global event queue orders callbacks by (tick, priority,
 * insertion sequence); the machine model schedules context steps,
 * scheduler quanta and daemon work onto it.
 */

#ifndef CCHUNTER_SIM_EVENT_QUEUE_HH
#define CCHUNTER_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hh"

namespace cchunter
{

/** Relative ordering of simultaneous events. */
enum class EventPriority : std::uint8_t
{
    Scheduler = 0, //!< quantum boundaries run before context steps
    Default = 1,
    Late = 2,      //!< bookkeeping after all same-tick activity
};

/**
 * Time-ordered queue of simulation callbacks.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule a callback at an absolute tick. */
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::Default);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** @return true when no events are pending. */
    bool empty() const { return queue_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return queue_.size(); }

    /**
     * Execute events in order until the queue empties or the next event
     * is at or beyond `until`.  Time stops at the last executed event
     * (or `until` if it is later).
     *
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /** Execute exactly one event if any is pending. @return true if one
     *  ran. */
    bool step();

  private:
    /** Heap entry; popped by moving it out, so a callback is never
     *  copied once scheduled. */
    struct Entry
    {
        Tick when;
        EventPriority prio;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    /** Remove and return the earliest entry. */
    Entry popNext();

    std::vector<Entry> queue_; //!< binary heap ordered by Later
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_SIM_EVENT_QUEUE_HH
