#include "sim/trace.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

#include "util/logging.hh"

namespace cchunter
{

namespace
{

std::uint32_t
maskOf(TraceCategory c)
{
    return static_cast<std::uint32_t>(c);
}

/** Categories named by a comma-separated list ("sched,auditor",
 *  "all"); unknown names are ignored with a warning. */
std::uint32_t
parseCategories(const std::string& spec)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string name =
            spec.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (name == "all")
            mask |= maskOf(TraceCategory::All);
        else if (name == "sched")
            mask |= maskOf(TraceCategory::Sched);
        else if (name == "exec")
            mask |= maskOf(TraceCategory::Exec);
        else if (name == "cache")
            mask |= maskOf(TraceCategory::Cache);
        else if (name == "bus")
            mask |= maskOf(TraceCategory::Bus);
        else if (name == "auditor")
            mask |= maskOf(TraceCategory::Auditor);
        else if (name == "channel")
            mask |= maskOf(TraceCategory::Channel);
        else if (name == "detect")
            mask |= maskOf(TraceCategory::Detect);
        else if (!name.empty())
            warn("unknown trace category '", name, "'");
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return mask;
}

/** The enabled categories.  CCHUNTER_TRACE seeds them the first time
 *  any thread touches the mask (a function-local static initialises
 *  exactly once, thread-safely); every later access is atomic, so
 *  machines on shard workers may check the gate concurrently. */
std::atomic<std::uint32_t>&
enabledMask()
{
    static std::atomic<std::uint32_t> mask{[] {
        const char* spec = std::getenv("CCHUNTER_TRACE");
        return spec ? parseCategories(spec) : std::uint32_t{0};
    }()};
    return mask;
}

std::atomic<std::ostream*> sink{nullptr};

} // namespace

void
Trace::enable(TraceCategory categories)
{
    enabledMask().fetch_or(maskOf(categories), std::memory_order_relaxed);
}

void
Trace::disable(TraceCategory categories)
{
    enabledMask().fetch_and(~maskOf(categories),
                            std::memory_order_relaxed);
}

void
Trace::reset()
{
    enabledMask().store(0, std::memory_order_relaxed);
}

bool
Trace::enabled(TraceCategory category)
{
    return (enabledMask().load(std::memory_order_relaxed) &
            maskOf(category)) != 0;
}

void
Trace::setSink(std::ostream* s)
{
    sink.store(s, std::memory_order_relaxed);
}

void
Trace::enableFromString(const std::string& spec)
{
    enabledMask().fetch_or(parseCategories(spec),
                           std::memory_order_relaxed);
}

void
Trace::emit(TraceCategory category, Tick tick,
            const std::string& message)
{
    std::ostream* s = sink.load(std::memory_order_relaxed);
    std::ostream& os = s ? *s : std::cerr;
    os << tick << ": [" << categoryName(category) << "] " << message
       << '\n';
}

std::string
Trace::categoryName(TraceCategory category)
{
    switch (category) {
      case TraceCategory::Sched:
        return "sched";
      case TraceCategory::Exec:
        return "exec";
      case TraceCategory::Cache:
        return "cache";
      case TraceCategory::Bus:
        return "bus";
      case TraceCategory::Auditor:
        return "auditor";
      case TraceCategory::Channel:
        return "channel";
      case TraceCategory::Detect:
        return "detect";
      case TraceCategory::None:
        return "none";
      case TraceCategory::All:
        return "all";
    }
    return "?";
}

} // namespace cchunter
