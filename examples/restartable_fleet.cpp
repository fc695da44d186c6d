/**
 * @file
 * Restart-safe fleet audit: checkpoint the audit to disk, kill it
 * mid-run, then resume and finish with a byte-identical incident
 * stream.
 *
 * A fleet audit over thousands of tenants can take hours; the machine
 * running it will eventually be rebooted, OOM-killed, or preempted.
 * This example shows the crash-safety loop end to end:
 *
 *   1. run a persisted audit with an injected crash halfway through
 *      (simulateCrashAfterBatches stands in for kill -9),
 *   2. inspect what survived on disk — an atomic snapshot plus an
 *      append-only journal, both checksummed per record,
 *   3. resume from that directory: already-audited tenants are
 *      restored, only the remainder is re-audited,
 *   4. verify the resumed stream hashes identically to an
 *      uninterrupted baseline run.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/examples/restartable_fleet
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "fleet/fleet_auditor.hh"
#include "persist/recovery.hh"
#include "sim/stats_report.hh"

using namespace cchunter;

int
main()
{
    std::printf("== Restart-safe fleet audit ==\n\n");

    // The default eight-tenant synthetic fleet: planted divider and
    // cache channels, benign pairs, a degraded host.
    const TenantRegistry registry = TenantRegistry::synthetic({});
    const std::string dir = "restartable_fleet_state";
    std::filesystem::remove_all(dir);

    // Baseline: the answer an uninterrupted audit produces.
    FleetAuditParams params;
    params.shards = 2;
    FleetAuditReport baseline = FleetAuditor(registry, params).run();
    const std::uint64_t truth = baseline.incidents.streamHash();
    std::printf("uninterrupted stream hash: 0x%016llx\n\n",
                static_cast<unsigned long long>(truth));

    // 1. Persisted run, killed after five of eight tenants.  Every
    //    finished batch is journaled as it lands; every fourth batch
    //    the journal is compacted into an atomically-replaced
    //    snapshot.
    params.persist.dir = dir;
    params.persist.checkpointIntervalBatches = 4;
    params.simulateCrashAfterBatches = 5;
    FleetAuditReport crashed = FleetAuditor(registry, params).run();
    std::printf("crash injected after %llu batches (crashed=%s):\n",
                static_cast<unsigned long long>(
                    params.simulateCrashAfterBatches),
                crashed.crashed ? "yes" : "no");
    std::printf("  checkpoints written: %llu\n",
                static_cast<unsigned long long>(
                    crashed.persist.checkpointsWritten));
    std::printf("  journal appends:     %llu\n\n",
                static_cast<unsigned long long>(
                    crashed.persist.journalAppends));

    // 2. What survived on disk, as the recovery loader sees it.
    persist::PersistStats peek;
    const persist::RecoveredFleetState salvaged =
        persist::recoverFleetState(
            params.persist, persist::registryFingerprint(registry),
            peek);
    std::printf("on-disk state recovers %zu tenant batches "
                "(%llu from snapshot, %llu from journal)\n\n",
                salvaged.batches.size(),
                static_cast<unsigned long long>(
                    peek.restoredFromSnapshot),
                static_cast<unsigned long long>(
                    peek.restoredFromJournal));

    // 3. Resume.  Restored tenants are NOT re-audited; the fleet
    //    picks up where the crash left it and finishes the rest.
    params.simulateCrashAfterBatches = 0;
    params.persist.resume = true;
    FleetAuditReport resumed = FleetAuditor(registry, params).run();
    std::printf("resumed: %llu tenants restored from disk, %zu "
                "re-audited\n",
                static_cast<unsigned long long>(
                    resumed.persist.restoredTenants),
                registry.size() - static_cast<std::size_t>(
                                      resumed.persist.restoredTenants));

    // 4. The resumed answer must be the uninterrupted answer.
    const std::uint64_t resumedHash = resumed.incidents.streamHash();
    std::printf("resumed stream hash:       0x%016llx\n\n",
                static_cast<unsigned long long>(resumedHash));
    std::printf("incident stream (canonical order):\n%s\n",
                resumed.incidents.streamText().c_str());
    dumpStatEntries(resumed.statEntries(), std::cout,
                    "resumed fleet audit");

    std::filesystem::remove_all(dir);
    if (resumedHash != truth) {
        std::fprintf(stderr, "resumed stream diverged from the "
                             "uninterrupted baseline\n");
        return 1;
    }
    std::printf("\nresumed audit is byte-identical to the "
                "uninterrupted one.\n");
    return 0;
}
