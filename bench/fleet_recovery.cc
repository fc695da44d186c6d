/**
 * @file
 * Crash-recovery benchmark: what does crash safety cost, and how fast
 * is a restart?
 *
 * Three measurements over the same synthetic fleet, emitted as
 * BENCH_recovery.json:
 *
 *  - Checkpoint overhead: wall-clock of a persisted run (journal every
 *    batch + snapshot every checkpoint interval) versus the same run
 *    with persistence off, as a percentage.
 *  - Snapshot footprint: final snapshot bytes, total and per tenant.
 *  - Restore latency: the fleet is killed mid-run
 *    (simulateCrashAfterBatches), then the recovery load —
 *    snapshot + journal read, validate, merge — is sampled `trials`
 *    times for p50/p99 microseconds.
 *
 * Equivalence gate (always): the resumed run's incident stream hash
 * must equal the uninterrupted baseline's, or the bench exits 1 —
 * recovery speed means nothing if the answer changed.
 *
 * Arguments (key=value): tenants=16, quanta=8, quantum=2500000,
 * seed=1, shards=2, workers=0, interval=4, kill_after=0 (0 = half the
 * fleet), trials=32, dir=bench_recovery_state,
 * out=BENCH_recovery.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "fleet/fleet_auditor.hh"
#include "persist/recovery.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        p * static_cast<double>(sorted.size() - 1) / 100.0;
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct RecoveryNumbers
{
    double baselineMs = 0.0;
    double persistedMs = 0.0;
    double overheadPct = 0.0;
    std::uint64_t snapshotBytes = 0;
    double bytesPerTenant = 0.0;
    std::uint64_t journalBytes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t killAfter = 0;
    std::uint64_t restoredTenants = 0;
    double restoreP50Us = 0.0;
    double restoreP99Us = 0.0;
    std::size_t trials = 0;
    bool equivalent = false;
    std::uint64_t incidentHash = 0;
};

void
writeJson(const std::string& path, const SyntheticFleetOptions& fleet,
          std::size_t shards, std::size_t interval,
          const RecoveryNumbers& n)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"fleet_recovery\",\n");
    std::fprintf(f, "  \"tenants\": %zu,\n", fleet.tenants);
    std::fprintf(f, "  \"quanta\": %zu,\n", fleet.quanta);
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(fleet.seed));
    std::fprintf(f, "  \"shards\": %zu,\n", shards);
    std::fprintf(f, "  \"checkpoint_interval\": %zu,\n", interval);
    std::fprintf(f, "  \"baseline_wall_ms\": %.2f,\n", n.baselineMs);
    std::fprintf(f, "  \"persisted_wall_ms\": %.2f,\n", n.persistedMs);
    std::fprintf(f, "  \"checkpoint_overhead_pct\": %.2f,\n",
                 n.overheadPct);
    std::fprintf(f, "  \"snapshot_bytes\": %llu,\n",
                 static_cast<unsigned long long>(n.snapshotBytes));
    std::fprintf(f, "  \"snapshot_bytes_per_tenant\": %.1f,\n",
                 n.bytesPerTenant);
    std::fprintf(f, "  \"journal_bytes\": %llu,\n",
                 static_cast<unsigned long long>(n.journalBytes));
    std::fprintf(f, "  \"checkpoints\": %llu,\n",
                 static_cast<unsigned long long>(n.checkpoints));
    std::fprintf(f, "  \"kill_after_batches\": %llu,\n",
                 static_cast<unsigned long long>(n.killAfter));
    std::fprintf(f, "  \"restored_tenants\": %llu,\n",
                 static_cast<unsigned long long>(n.restoredTenants));
    std::fprintf(f, "  \"restore_trials\": %zu,\n", n.trials);
    std::fprintf(f, "  \"restore_us_p50\": %.1f,\n", n.restoreP50Us);
    std::fprintf(f, "  \"restore_us_p99\": %.1f,\n", n.restoreP99Us);
    std::fprintf(f, "  \"equivalent\": %s,\n",
                 n.equivalent ? "true" : "false");
    std::fprintf(f, "  \"incident_hash\": \"0x%016llx\"\n",
                 static_cast<unsigned long long>(n.incidentHash));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    SyntheticFleetOptions fleet;
    fleet.tenants = cfg.getUint("tenants", 16);
    fleet.quanta = cfg.getUint("quanta", 8);
    fleet.quantum = cfg.getUint("quantum", 2500000);
    fleet.seed = cfg.getUint("seed", 1);
    const std::size_t shards = cfg.getUint("shards", 2);
    const auto workers =
        static_cast<std::size_t>(cfg.getUint("workers", 0));
    const std::size_t interval = cfg.getUint("interval", 4);
    std::uint64_t killAfter = cfg.getUint("kill_after", 0);
    const std::size_t trials =
        static_cast<std::size_t>(cfg.getUint("trials", 32));
    const std::string dir =
        cfg.getString("dir", "bench_recovery_state");
    const std::string out =
        cfg.getString("out", "BENCH_recovery.json");
    if (killAfter == 0)
        killAfter = fleet.tenants / 2;

    banner("Fleet crash recovery: overhead, footprint, restore "
           "latency",
           "A persisted fleet run versus a bare one, then a "
           "kill-and-resume whose incident stream must be "
           "byte-identical to the uninterrupted baseline.");

    const TenantRegistry registry = TenantRegistry::synthetic(fleet);
    std::filesystem::remove_all(dir);

    const auto timedRun = [&](const FleetAuditParams& params,
                              double& wallMs) {
        FleetAuditor auditor(registry, params);
        const auto start = std::chrono::steady_clock::now();
        FleetAuditReport report = auditor.run();
        wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
        return report;
    };

    RecoveryNumbers n;
    n.killAfter = killAfter;
    n.trials = trials;

    // 1. Baseline: persistence off.
    FleetAuditParams bare;
    bare.shards = shards;
    bare.workerThreads = workers;
    const FleetAuditReport baseline = timedRun(bare, n.baselineMs);
    const std::uint64_t baselineHash = baseline.incidents.streamHash();

    // 2. Persisted run: journal every batch, checkpoint on interval.
    FleetAuditParams persisted = bare;
    persisted.persist.dir = dir;
    persisted.persist.checkpointIntervalBatches = interval;
    const FleetAuditReport withPersist =
        timedRun(persisted, n.persistedMs);
    n.overheadPct = n.baselineMs > 0.0
                        ? 100.0 * (n.persistedMs - n.baselineMs) /
                              n.baselineMs
                        : 0.0;
    n.snapshotBytes = withPersist.persist.lastSnapshotBytes;
    n.bytesPerTenant =
        static_cast<double>(n.snapshotBytes) /
        static_cast<double>(std::max<std::size_t>(1, fleet.tenants));
    n.journalBytes = withPersist.persist.journalBytes;
    n.checkpoints = withPersist.persist.checkpointsWritten;

    // 3. Kill mid-run, then sample the recovery load.
    std::filesystem::remove_all(dir);
    FleetAuditParams killed = persisted;
    killed.simulateCrashAfterBatches = killAfter;
    double crashMs = 0.0;
    const FleetAuditReport crashReport = timedRun(killed, crashMs);
    if (!crashReport.crashed) {
        std::fprintf(stderr, "FAIL: kill_after=%llu did not crash "
                             "the run\n",
                     static_cast<unsigned long long>(killAfter));
        return 1;
    }

    const std::uint64_t fingerprint =
        persist::registryFingerprint(registry);
    std::vector<double> restoreUs;
    restoreUs.reserve(trials);
    std::uint64_t restoredTenants = 0;
    for (std::size_t i = 0; i < trials; ++i) {
        persist::PersistStats stats;
        persist::PersistPolicy policy = persisted.persist;
        const auto start = std::chrono::steady_clock::now();
        const persist::RecoveredFleetState state =
            persist::recoverFleetState(policy, fingerprint, stats);
        restoreUs.push_back(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count());
        restoredTenants = state.batches.size();
    }
    n.restoredTenants = restoredTenants;
    n.restoreP50Us = percentile(restoreUs, 50.0);
    n.restoreP99Us = percentile(restoreUs, 99.0);

    // 4. Resume and gate on equivalence.
    FleetAuditParams resume = persisted;
    resume.persist.resume = true;
    double resumeMs = 0.0;
    const FleetAuditReport resumed = timedRun(resume, resumeMs);
    n.incidentHash = resumed.incidents.streamHash();
    n.equivalent = n.incidentHash == baselineHash &&
                   withPersist.incidents.streamHash() == baselineHash;

    TableWriter t({"metric", "value"});
    t.addRow({"baseline wall ms", fmtDouble(n.baselineMs, 1)});
    t.addRow({"persisted wall ms", fmtDouble(n.persistedMs, 1)});
    t.addRow({"checkpoint overhead %", fmtDouble(n.overheadPct, 2)});
    t.addRow({"snapshot bytes", std::to_string(n.snapshotBytes)});
    t.addRow({"bytes / tenant", fmtDouble(n.bytesPerTenant, 1)});
    t.addRow({"journal bytes", std::to_string(n.journalBytes)});
    t.addRow({"kill after batches", std::to_string(n.killAfter)});
    t.addRow({"restored tenants", std::to_string(n.restoredTenants)});
    t.addRow({"restore us p50", fmtDouble(n.restoreP50Us, 1)});
    t.addRow({"restore us p99", fmtDouble(n.restoreP99Us, 1)});
    t.addRow({"resume wall ms", fmtDouble(resumeMs, 1)});
    t.addRow({"equivalent", n.equivalent ? "yes" : "NO"});
    t.render(std::cout);

    writeJson(out, fleet, shards, interval, n);
    std::filesystem::remove_all(dir);

    if (!n.equivalent) {
        std::fprintf(stderr, "FAIL: resumed incident stream differs "
                             "from the uninterrupted baseline\n");
        return 1;
    }
    return 0;
}
