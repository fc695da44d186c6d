#include "sim/scheduler.hh"

#include <algorithm>

#include "sim/machine.hh"
#include "sim/trace.hh"
#include "util/logging.hh"

namespace cchunter
{

Scheduler::Scheduler(Machine& machine, SchedulerParams params)
    : machine_(machine), params_(params), rng_(params.seed)
{
    if (params_.quantum == 0)
        fatal("Scheduler: quantum must be positive");
}

Process&
Scheduler::addProcess(std::unique_ptr<Process> process)
{
    if (process->pinned() &&
        process->pinnedContext() >= machine_.numContexts())
        fatal("Scheduler: process pinned to non-existent context ",
              int{process->pinnedContext()});
    processes_.push_back(std::move(process));
    Process& ref = *processes_.back();
    if (started_) {
        // Late arrival: it will be picked up at the next boundary; if
        // its pinned context is idle, install it immediately.
        assign(machine_.now());
    }
    return ref;
}

void
Scheduler::addQuantumObserver(QuantumObserver observer)
{
    observers_.push_back(std::move(observer));
}

void
Scheduler::start()
{
    if (started_)
        return;
    started_ = true;
    assign(machine_.now());
    machine_.eventQueue().schedule(machine_.now() + params_.quantum,
                                   &Scheduler::boundaryEvent, this, 0,
                                   EventPriority::Scheduler);
}

void
Scheduler::boundaryEvent(void* scheduler, std::uint64_t)
{
    static_cast<Scheduler*>(scheduler)->quantumBoundary();
}

void
Scheduler::quantumBoundary()
{
    const Tick now = machine_.now();
    trace(TraceCategory::Sched, now, "quantum ", quanta_, " ends");
    for (const auto& obs : observers_)
        obs(quanta_, now);
    ++quanta_;
    assign(now);
    machine_.eventQueue().schedule(now + params_.quantum,
                                   &Scheduler::boundaryEvent, this, 0,
                                   EventPriority::Scheduler);
}

void
Scheduler::checkContext(ContextId ctx, const char* who) const
{
    if (ctx >= machine_.numContexts())
        fatal("Scheduler::", who, ": context out of range ", int{ctx});
}

bool
Scheduler::partitionContexts(ContextId a, ContextId b)
{
    checkContext(a, "partitionContexts");
    checkContext(b, "partitionContexts");
    if (a == b)
        fatal("Scheduler::partitionContexts: contexts must differ");
    if (a > b)
        std::swap(a, b);
    for (const auto& p : partitions_)
        if (p.a == a && p.b == b)
            return false;
    partitions_.push_back({a, b});
    ++isolation_.partitionsEngaged;
    return true;
}

bool
Scheduler::releasePartition(ContextId a, ContextId b)
{
    if (a > b)
        std::swap(a, b);
    for (auto it = partitions_.begin(); it != partitions_.end(); ++it) {
        if (it->a == a && it->b == b) {
            partitions_.erase(it);
            ++isolation_.partitionsReleased;
            return true;
        }
    }
    return false;
}

bool
Scheduler::throttleContext(ContextId ctx, std::uint32_t period,
                           std::uint32_t active)
{
    checkContext(ctx, "throttleContext");
    if (period == 0 || active == 0 || active >= period)
        fatal("Scheduler::throttleContext: need 0 < active < period");
    for (auto& t : throttles_) {
        if (t.ctx == ctx) {
            t.period = period;
            t.active = active;
            return false;
        }
    }
    throttles_.push_back({ctx, period, active});
    ++isolation_.throttlesEngaged;
    return true;
}

bool
Scheduler::releaseThrottle(ContextId ctx)
{
    for (auto it = throttles_.begin(); it != throttles_.end(); ++it) {
        if (it->ctx == ctx) {
            throttles_.erase(it);
            ++isolation_.throttlesReleased;
            return true;
        }
    }
    return false;
}

bool
Scheduler::quarantineContext(ContextId ctx)
{
    checkContext(ctx, "quarantineContext");
    for (ContextId q : quarantined_)
        if (q == ctx)
            return false;
    quarantined_.push_back(ctx);
    ++isolation_.quarantinesEngaged;
    return true;
}

bool
Scheduler::releaseQuarantine(ContextId ctx)
{
    for (auto it = quarantined_.begin(); it != quarantined_.end();
         ++it) {
        if (*it == ctx) {
            quarantined_.erase(it);
            ++isolation_.quarantinesReleased;
            return true;
        }
    }
    return false;
}

bool
Scheduler::contextSuppressed(ContextId ctx, std::uint64_t quantum) const
{
    for (ContextId q : quarantined_)
        if (q == ctx)
            return true;
    for (const auto& t : throttles_)
        if (t.ctx == ctx && quantum % t.period >= t.active)
            return true;
    for (const auto& p : partitions_) {
        // `a` owns even quanta, `b` odd ones.
        if (p.b == ctx && quantum % 2 == 0)
            return true;
        if (p.a == ctx && quantum % 2 == 1)
            return true;
    }
    return false;
}

void
Scheduler::assign(Tick now)
{
    const unsigned n_ctx = machine_.numContexts();

    // Partition live processes.
    std::vector<std::vector<Process*>> pinned(n_ctx);
    std::vector<Process*> floating;
    for (const auto& p : processes_) {
        if (p->halted())
            continue;
        if (p->pinned())
            pinned[p->pinnedContext()].push_back(p.get());
        else
            floating.push_back(p.get());
    }

    // Pinned processes: round-robin within their context by quantum.
    // Suppressed contexts (quarantine / throttle off-phase / partition
    // off-phase) are forced idle and withheld from the floating pool so
    // nothing migrates onto them.
    const bool isolating = isolationActive();
    std::vector<Process*> chosen(n_ctx, nullptr);
    std::vector<ContextId> free_ctx;
    for (unsigned c = 0; c < n_ctx; ++c) {
        const auto ctx = static_cast<ContextId>(c);
        if (isolating && contextSuppressed(ctx, quanta_)) {
            if (!pinned[c].empty() &&
                lastSuppressCountQuantum_ != quanta_)
                ++isolation_.suppressedQuanta;
            continue;
        }
        if (!pinned[c].empty()) {
            chosen[c] = pinned[c][quanta_ % pinned[c].size()];
        } else {
            free_ctx.push_back(ctx);
        }
    }
    if (isolating)
        lastSuppressCountQuantum_ = quanta_;

    // Optional migration: randomise which free context each floating
    // process lands on this quantum.
    if (params_.migrate)
        rng_.shuffle(free_ctx);

    // Floating processes: rotate through the free contexts.
    if (!floating.empty()) {
        const std::size_t n_float = floating.size();
        for (std::size_t i = 0;
             i < free_ctx.size() && i < n_float; ++i) {
            Process* p = floating[(rrOffset_ + i) % n_float];
            chosen[free_ctx[i]] = p;
        }
        rrOffset_ = (rrOffset_ + std::min(free_ctx.size(), n_float)) %
                    n_float;
    }

    for (unsigned c = 0; c < n_ctx; ++c)
        machine_.assignContext(static_cast<ContextId>(c), chosen[c],
                               now);

    // Count scheduled quanta for stats.
    for (unsigned c = 0; c < n_ctx; ++c)
        if (chosen[c])
            ++chosen[c]->stats().scheduledQuanta;
}

} // namespace cchunter
