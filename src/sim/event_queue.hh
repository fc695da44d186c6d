/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single global event queue orders events by (tick, priority,
 * insertion sequence); the machine model schedules context steps and
 * scheduler quanta onto it.
 */

#ifndef CCHUNTER_SIM_EVENT_QUEUE_HH
#define CCHUNTER_SIM_EVENT_QUEUE_HH

#include <cstdint>
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
 * Time-ordered queue of simulation events.  An event is a plain
 * handler called with the object pointer and the 64-bit argument it
 * was scheduled with, so the queue stores, sifts and fires trivially
 * copyable records.
 *
 * An event scheduled strictly before every pending event — a context
 * scheduling its own next step, most often — waits in a one-entry
 * slot outside the heap and fires without a push or a pop.
 */
class EventQueue
{
  public:
    /** What an event runs: `handler(object, arg)`. */
    using Handler = void (*)(void* object, std::uint64_t arg);

    /** One scheduled event. */
    struct Entry
    {
        Tick when;
        /** `priority << 56 | insertion sequence`: one compare orders
         *  simultaneous events. */
        std::uint64_t order;
        Handler handler;
        void* object;
        std::uint64_t arg;
    };

    /** Schedule `handler(object, arg)` at an absolute tick. */
    void schedule(Tick when, Handler handler, void* object,
                  std::uint64_t arg = 0,
                  EventPriority prio = EventPriority::Default);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** @return true when no events are pending. */
    bool empty() const { return !hasNext_ && queue_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return queue_.size() + hasNext_; }

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
    /** Bits of the order word below the priority. */
    static constexpr unsigned seqBits = 56;

    struct Later
    {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    /** The earliest pending entry; the queue must not be empty. */
    const Entry&
    earliest() const
    {
        return hasNext_ ? next_ : queue_.front();
    }

    /** Remove the earliest entry, advance time to it and fire it. */
    void fireNext();

    std::vector<Entry> queue_; //!< binary heap ordered by Later
    /** When hasNext_, an entry strictly earlier than every entry of
     *  queue_. */
    Entry next_{};
    bool hasNext_ = false;
    Tick now_ = 0;
    /** Insertion sequence; a run would need 2^56 events to reach the
     *  priority bits. */
    std::uint64_t nextSeq_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_SIM_EVENT_QUEUE_HH
