/**
 * @file
 * The OS scheduler model: time quanta, round-robin assignment of
 * processes to hardware contexts, optional migration, and quantum
 * observers (the hook the CC-Hunter software daemon uses to record the
 * auditor's buffers each quantum).
 */

#ifndef CCHUNTER_SIM_SCHEDULER_HH
#define CCHUNTER_SIM_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/process.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cchunter
{

class Machine;

/** Scheduler configuration. */
struct SchedulerParams
{
    Tick quantum = defaultQuantumTicks; //!< OS time quantum (0.1 s)
    bool migrate = false; //!< unpinned processes hop contexts randomly
    std::uint64_t seed = 1;
};

/**
 * Callback invoked at the end of every OS time quantum, before
 * processes are re-assigned.  quantum_index counts completed quanta.
 */
using QuantumObserver =
    std::function<void(std::uint64_t quantum_index, Tick now)>;

/** Counted engage/release transitions of the scheduler's isolation
 *  mechanisms (the knobs the response subsystem drives). */
struct IsolationStats
{
    std::uint64_t partitionsEngaged = 0;
    std::uint64_t partitionsReleased = 0;
    std::uint64_t throttlesEngaged = 0;
    std::uint64_t throttlesReleased = 0;
    std::uint64_t quarantinesEngaged = 0;
    std::uint64_t quarantinesReleased = 0;
    /** Context-quanta a pinned process was denied its context. */
    std::uint64_t suppressedQuanta = 0;
};

/** Two contexts that must never run in the same quantum: they
 *  alternate, `a` on even quanta and `b` on odd ones. */
struct TemporalPartition
{
    ContextId a = invalidContext;
    ContextId b = invalidContext;
};

/** Duty-cycle throttle: the context runs `active` quanta out of every
 *  `period` and is forced idle for the rest. */
struct ContextThrottle
{
    ContextId ctx = invalidContext;
    std::uint32_t period = 4;
    std::uint32_t active = 3;
};

/**
 * Quantum-based scheduler over the machine's hardware contexts.
 *
 * Pinned processes always run on their context (several pinned to one
 * context round-robin across quanta); unpinned processes round-robin
 * over the remaining contexts, optionally migrating.
 */
class Scheduler
{
  public:
    Scheduler(Machine& machine, SchedulerParams params);

    /** Register a process. */
    Process& addProcess(std::unique_ptr<Process> process);

    /** Begin scheduling: performs the initial assignment and arms the
     *  quantum timer.  Idempotent. */
    void start();

    /** Register an end-of-quantum observer. */
    void addQuantumObserver(QuantumObserver observer);

    /** Completed quanta. */
    std::uint64_t quantaElapsed() const { return quanta_; }

    /** All registered processes. */
    const std::vector<std::unique_ptr<Process>>& processes() const
    {
        return processes_;
    }

    const SchedulerParams& params() const { return params_; }

    /**
     * Isolation hooks.  All engage/release pairs are counted in
     * isolation() and are no-ops (returning false) when the requested
     * state is already present/absent.  With no isolation engaged the
     * schedule is bit-identical to a scheduler without these hooks: no
     * rng draws, no rotation changes.
     */

    /** Temporally partition two contexts: they alternate quanta and
     *  are never co-scheduled.  Returns false if already engaged. */
    bool partitionContexts(ContextId a, ContextId b);
    /** Release a partition (order-insensitive).  Returns false if no
     *  such partition is engaged. */
    bool releasePartition(ContextId a, ContextId b);

    /** Throttle a context to `active` out of every `period` quanta.
     *  Re-engaging an existing throttle updates its duty cycle without
     *  counting a new transition. */
    bool throttleContext(ContextId ctx, std::uint32_t period,
                         std::uint32_t active);
    bool releaseThrottle(ContextId ctx);

    /** Quarantine a context: nothing is ever scheduled on it. */
    bool quarantineContext(ContextId ctx);
    bool releaseQuarantine(ContextId ctx);

    /** True if any partition, throttle, or quarantine is engaged. */
    bool isolationActive() const
    {
        return !partitions_.empty() || !throttles_.empty() ||
               !quarantined_.empty();
    }

    /** Would `ctx` be forced idle during quantum `quantum`? */
    bool contextSuppressed(ContextId ctx, std::uint64_t quantum) const;

    const IsolationStats& isolation() const { return isolation_; }
    std::size_t activePartitions() const { return partitions_.size(); }
    std::size_t activeThrottles() const { return throttles_.size(); }
    std::size_t activeQuarantines() const { return quarantined_.size(); }

  private:
    void quantumBoundary();
    /** Event handler: quantumBoundary() on its scheduler. */
    static void boundaryEvent(void* scheduler, std::uint64_t);
    void assign(Tick now);
    void checkContext(ContextId ctx, const char* who) const;

    Machine& machine_;
    SchedulerParams params_;
    Rng rng_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<QuantumObserver> observers_;
    std::uint64_t quanta_ = 0;
    std::uint64_t rrOffset_ = 0;
    bool started_ = false;
    std::vector<TemporalPartition> partitions_;
    std::vector<ContextThrottle> throttles_;
    std::vector<ContextId> quarantined_;
    IsolationStats isolation_;
    std::uint64_t lastSuppressCountQuantum_ = ~std::uint64_t{0};
};

} // namespace cchunter

#endif // CCHUNTER_SIM_SCHEDULER_HH
