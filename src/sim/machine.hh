/**
 * @file
 * The simulated machine: a quad-core SMT processor (two hardware
 * contexts per core, 2.5 GHz), per-context L1s, per-core shared L2s, a
 * shared memory bus, DRAM, and one shared integer divider per core —
 * the platform of the paper's evaluation (MARSSx86 model).
 */

#ifndef CCHUNTER_SIM_MACHINE_HH
#define CCHUNTER_SIM_MACHINE_HH

#include <memory>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "sim/scheduler.hh"
#include "sim/workload.hh"
#include "uarch/divider.hh"
#include "uarch/multiplier.hh"
#include "util/types.hh"

namespace cchunter
{

/** Full machine configuration. */
struct MachineParams
{
    double ghz = defaultCoreGHz;
    MemSystemParams mem;
    DividerParams divider;
    MultiplierParams multiplier;
    SchedulerParams scheduler;
    /** Cycles of pipeline refill charged after a context switch. */
    Cycles switchPenalty = 1000;
};

/**
 * Top-level simulation object.  Construct, add processes, run.
 */
class Machine
{
  public:
    explicit Machine(MachineParams params = {});

    /**
     * Create a process executing `workload`, optionally pinned to a
     * hardware context.
     */
    Process& addProcess(std::unique_ptr<Workload> workload,
                        ContextId pinned = invalidContext);

    /** Advance simulated time by `duration` ticks. */
    void run(Tick duration);

    /** Advance by a whole number of OS time quanta. */
    void runQuanta(std::uint64_t quanta);

    /** Current simulated time. */
    Tick now() const { return eq_.now(); }

    MemSystem& mem() { return mem_; }
    DividerUnit& divider(unsigned core);
    MultiplierUnit& multiplier(unsigned core);
    Scheduler& scheduler() { return sched_; }
    EventQueue& eventQueue() { return eq_; }

    unsigned numCores() const { return mem_.numCores(); }
    unsigned numContexts() const { return mem_.numContexts(); }

    /** Process currently running on a context (nullptr when idle). */
    Process* runningOn(ContextId ctx) const;

    const MachineParams& params() const { return params_; }

  private:
    friend class Scheduler;

    struct ContextState
    {
        Process* running = nullptr;
        std::uint64_t generation = 0;
        Tick busyUntil = 0;
        ExecView view;
    };

    /** Scheduler-facing: install a process on a context (nullptr to
     *  idle the context). */
    void assignContext(ContextId ctx, Process* process, Tick now);

    void scheduleStep(ContextId ctx, Tick when);
    /** Event handler: step() on the machine it was scheduled with. */
    static void stepEvent(void* machine, std::uint64_t key);
    void step(std::uint64_t key);
    Tick executeAction(ContextId ctx, Process& process,
                       const Action& action);

    MachineParams params_;
    EventQueue eq_;
    MemSystem mem_;
    std::vector<std::unique_ptr<DividerUnit>> dividers_;
    std::vector<std::unique_ptr<MultiplierUnit>> multipliers_;
    Scheduler sched_;
    std::vector<ContextState> contexts_;
};

} // namespace cchunter

#endif // CCHUNTER_SIM_MACHINE_HH
