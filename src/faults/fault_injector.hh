/**
 * @file
 * Deterministic fault injection at the auditor boundary.
 *
 * The injector turns a FaultPlan into concrete per-opportunity
 * decisions.  Each fault class draws from its own Rng stream (seeded
 * from the plan's seed with a distinct salt), so enabling or tuning
 * one fault never perturbs the schedule of another — a plan is a
 * reproducible experiment, not a soup of correlated randomness.
 *
 * The injector is passive: it only answers "does this fault fire
 * here?" and mutates data handed to it.  The AuditDaemon owns the
 * degradation policy (what to do when a fault fires); the injector
 * owns the accounting of what it injected, so tests can reconcile
 * injected faults against the daemon's degraded-operation counters.
 */

#ifndef CCHUNTER_FAULTS_FAULT_INJECTOR_HH
#define CCHUNTER_FAULTS_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "auditor/conflict_event.hh"
#include "faults/fault_plan.hh"
#include "util/rng.hh"

namespace cchunter
{

/** Running totals of every fault the injector has fired. */
struct FaultInjectionStats
{
    std::uint64_t droppedQuanta = 0;    //!< daemon wakeups skipped
    std::uint64_t duplicatedQuanta = 0; //!< snapshots recorded twice
    std::uint64_t truncatedBatches = 0; //!< conflict batches cut short
    std::uint64_t truncatedEvents = 0;  //!< conflict events lost to cuts
    std::uint64_t reorderedBatches = 0; //!< conflict batches shuffled
    std::uint64_t corruptedContexts = 0; //!< context IDs overwritten
    std::uint64_t bloomAliases = 0;     //!< forced Bloom false positives
};

/** What one conflict-batch mutation did. */
struct ConflictBatchMutation
{
    bool truncated = false;
    bool reordered = false;
    std::uint64_t truncatedEvents = 0;
    std::uint64_t corruptedContexts = 0;

    bool any() const
    {
        return truncated || reordered || corruptedContexts != 0;
    }
};

/**
 * The runtime half of a FaultPlan: seeded decision streams plus the
 * injection bookkeeping.
 */
class FaultInjector
{
  public:
    /** Validates the plan; each fault class gets its own stream. */
    explicit FaultInjector(FaultPlan plan);

    const FaultPlan& plan() const { return plan_; }

    /** True when the plan schedules any fault at all. */
    bool enabled() const { return plan_.enabled(); }

    /** Draw: does the daemon miss this quantum boundary?  Counts the
     *  drop when it fires. */
    bool dropQuantum();

    /** Draw: is this quantum's snapshot recorded twice?  Counts the
     *  duplication when it fires. */
    bool duplicateQuantum();

    /** True when any conflict-batch fault (truncate/reorder/corrupt)
     *  is scheduled, i.e. the drain path must copy before mutating. */
    bool conflictPathActive() const;

    /** Mutate one drained conflict-event batch in place (truncate,
     *  then reorder, then per-event context corruption) and account
     *  for everything that fired. */
    ConflictBatchMutation mutateConflictBatch(
        std::vector<ConflictMissEvent>& events);

    /** Draw: does this Bloom-filter miss report a hit?  Counts the
     *  alias when it fires. */
    bool aliasBloom();

    const FaultInjectionStats& stats() const { return stats_; }

  private:
    FaultPlan plan_;
    Rng dropRng_;
    Rng dupRng_;
    Rng batchRng_;
    Rng contextRng_;
    Rng aliasRng_;
    FaultInjectionStats stats_;
};

} // namespace cchunter

#endif // CCHUNTER_FAULTS_FAULT_INJECTOR_HH
