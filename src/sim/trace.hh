/**
 * @file
 * Category-gated simulation tracing, in the spirit of gem5's DPRINTF.
 *
 * Traces are off by default and cost one atomic load and a branch when
 * disabled.  Enable categories programmatically or from the
 * CCHUNTER_TRACE environment variable (comma-separated category names,
 * or "all"), which seeds the enabled set on first use:
 *
 *   CCHUNTER_TRACE=sched,auditor ./build/examples/quickstart
 *
 * Each record carries the current tick, the category and a message;
 * the sink defaults to stderr and can be redirected for tests.
 */

#ifndef CCHUNTER_SIM_TRACE_HH
#define CCHUNTER_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include "util/types.hh"

namespace cchunter
{

/** Trace categories (bitmask). */
enum class TraceCategory : std::uint32_t
{
    None = 0,
    Sched = 1u << 0,    //!< scheduler assignments and quanta
    Exec = 1u << 1,     //!< context action execution
    Cache = 1u << 2,    //!< cache accesses and evictions
    Bus = 1u << 3,      //!< bus transfers and locks
    Auditor = 1u << 4,  //!< auditor programming and snapshots
    Channel = 1u << 5,  //!< trojan/spy behaviour
    Detect = 1u << 6,   //!< analysis decisions
    All = 0xffffffffu,
};

/** Global trace controller; safe to use from several threads. */
class Trace
{
  public:
    /** Enable one or more categories. */
    static void enable(TraceCategory categories);

    /** Disable one or more categories. */
    static void disable(TraceCategory categories);

    /** Disable everything. */
    static void reset();

    /** @return true when the category is enabled. */
    static bool enabled(TraceCategory category);

    /** Redirect output (nullptr restores stderr). */
    static void setSink(std::ostream* sink);

    /** Parse a comma-separated category list ("sched,auditor",
     *  "all"); unknown names are ignored with a warning. */
    static void enableFromString(const std::string& spec);

    /** Emit one record (used by the TRACE macro). */
    static void emit(TraceCategory category, Tick tick,
                     const std::string& message);

    /** Category name for rendering. */
    static std::string categoryName(TraceCategory category);
};

/**
 * Convenience emitter: builds the message only when the category is
 * enabled.
 */
template <typename... Args>
inline void
trace(TraceCategory category, Tick tick, Args&&... args)
{
    if (!Trace::enabled(category))
        return;
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    Trace::emit(category, tick, os.str());
}

} // namespace cchunter

#endif // CCHUNTER_SIM_TRACE_HH
