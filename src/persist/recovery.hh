/**
 * @file
 * Crash-recovery policy and bookkeeping for the fleet auditor.
 *
 * PersistPolicy names where state lands and how often it is
 * checkpointed; recoverFleetState() turns whatever survived a crash —
 * the last atomic snapshot plus the journal's intact prefix — back
 * into the set of completed tenant batches.  Recovery never throws
 * and never trusts bytes: every defect (wrong magic, bad checksum,
 * unknown version, torn tail, unreadable file, fingerprint from a
 * different fleet) is counted under the persistence quarantine
 * taxonomy and degrades the restore toward a cold start, the worst
 * case being "re-audit everything", never "crash" or "wrong answer".
 */

#ifndef CCHUNTER_PERSIST_RECOVERY_HH
#define CCHUNTER_PERSIST_RECOVERY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "persist/fleet_snapshot.hh"
#include "persist/journal.hh"
#include "sim/stats_report.hh"
#include "util/config.hh"

namespace cchunter::persist
{

/** Where and how often fleet state is persisted. */
struct PersistPolicy
{
    /** Directory for the snapshot + journal; empty disables
     *  persistence entirely. */
    std::string dir;

    /**
     * Rewrite the snapshot every this many ingested batches; the
     * journal is reset only when the snapshot lands, and a refused
     * one is retried a full interval later.  0 journals every batch
     * but never compacts mid-run; recovery then replays the journal
     * alone.
     */
    std::size_t checkpointIntervalBatches = 4;

    /** Attempt recovery from `dir` before auditing. */
    bool resume = false;

    /** Write a finalized snapshot (batches + scored incidents) after
     *  a successful run.  Without it the run keeps its journal, so a
     *  resume restores every batch from the last checkpoint plus the
     *  journal. */
    bool finalSnapshot = true;

    bool enabled() const { return !dir.empty(); }

    /** Parse the `persist.*` keys of a Config (missing keys keep
     *  their defaults). */
    static PersistPolicy fromConfig(const Config& cfg);

    /** Echo the policy into a Config under the `persist.*` keys. */
    void toConfig(Config& cfg) const;
};

/** Snapshot file inside the policy directory. */
std::string snapshotPath(const PersistPolicy& policy);

/** Journal file inside the policy directory. */
std::string journalPath(const PersistPolicy& policy);

/** Everything the persistence layer did during one fleet run. */
struct PersistStats
{
    std::uint64_t checkpointsWritten = 0; //!< snapshot rewrites
    std::uint64_t lastSnapshotBytes = 0;  //!< size of the newest one
    std::uint64_t journalAppends = 0;     //!< records journaled
    std::uint64_t journalBytes = 0;       //!< bytes journaled

    /** Failed journal opens and appends plus failed snapshot writes:
     *  state the run meant to make durable and could not. */
    std::uint64_t writeFailures = 0;

    std::uint64_t restoredFromSnapshot = 0; //!< batches, via snapshot
    std::uint64_t restoredFromJournal = 0;  //!< batches, via journal
    std::uint64_t restoredTenants = 0; //!< distinct tenants recovered
    std::uint64_t duplicateRestored = 0; //!< journal/snapshot overlap
    std::uint64_t unknownTenantBatches = 0; //!< recovered, not in plan

    /** Journal records lost to a torn or corrupt tail. */
    std::uint64_t journalTailDiscards = 0;

    /** Snapshots/journals refused because they were captured from a
     *  differently-configured fleet. */
    std::uint64_t registryMismatches = 0;

    /** Resumes that recovered nothing and re-audited everything. */
    std::uint64_t coldStarts = 0;

    /** Response actions restored with the orchestrator's state. */
    std::uint64_t restoredResponseActions = 0;

    /** Per-reason defect tally across snapshot + journal reads. */
    DefectCounts defects;

    /** Wall-clock cost of the recovery load (microseconds). */
    double restoreMicros = 0.0;
};

/** PersistStats as flat stat entries under `prefix`. */
std::vector<StatEntry> persistStatEntries(
    const PersistStats& stats, const std::string& prefix = "persist.");

/** What a recovery pass salvaged. */
struct RecoveredFleetState
{
    /** One batch per recovered tenant (first occurrence wins:
     *  snapshot before journal). */
    std::vector<TenantAlarmBatch> batches;

    /** The response orchestrator's state, when the snapshot carried
     *  one (active quarantines survive the restart through this). */
    std::optional<ResponseOrchestratorState> respond;
};

/**
 * Load the snapshot and journal under `policy.dir`, validate both
 * against `expectedFingerprint`, and merge their batches (deduped by
 * tenant).  All defects are counted into `stats`; an empty result
 * with `stats.coldStarts == 1` is the graceful floor, never an
 * abort.
 */
RecoveredFleetState recoverFleetState(const PersistPolicy& policy,
                                      std::uint64_t expectedFingerprint,
                                      PersistStats& stats);

} // namespace cchunter::persist

#endif // CCHUNTER_PERSIST_RECOVERY_HH
