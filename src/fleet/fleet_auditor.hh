/**
 * @file
 * The fleet auditor: sharded multi-tenant audit orchestration.
 *
 * Every tenant in the registry is one independent simulated machine
 * under live audit (scenario/runOnlineAudit).  The auditor partitions
 * the fleet into shards with the registry's deterministic assignment
 * rule and runs the shards concurrently on a ThreadPool (the calling
 * thread participates).  The shard worker that audited a tenant
 * journals that tenant's alarm batch (with persistence on) and
 * ingests it into the AlarmAggregator before it starts the next
 * tenant.  Because each tenant run is deterministic, ingest is
 * order-insensitive and finalization is canonical, the resulting
 * incident stream is bit-identical for any shard count, worker count
 * or per-tenant analysis thread count — parallelism buys wall-clock
 * time, never different answers.
 */

#ifndef CCHUNTER_FLEET_FLEET_AUDITOR_HH
#define CCHUNTER_FLEET_FLEET_AUDITOR_HH

#include <cstdint>
#include <vector>

#include "fleet/alarm_aggregator.hh"
#include "fleet/incident_store.hh"
#include "fleet/tenant_registry.hh"
#include "persist/recovery.hh"
#include "respond/orchestrator.hh"
#include "respond/residual.hh"

namespace cchunter
{

/**
 * Incident-driven response orchestration for the fleet run.  When
 * enabled, the finalized incident stream is fed through a
 * ResponseOrchestrator (respond/orchestrator.hh) after aggregation:
 * each (tenant, unit) pair climbs the policy's escalation ladder, the
 * resulting action log inherits the incident stream's byte-identity
 * contract, and — with persistence on — the orchestrator's state rides
 * the snapshot so active quarantines survive a crash/restart.
 */
struct FleetResponseParams
{
    bool enabled = false;

    /** Ladder thresholds, hysteresis, rate caps and plan knobs. */
    ResponsePolicy policy;

    /**
     * After orchestration, re-run each engaged pair's trojan/spy
     * scenario under its response level and price the mitigation:
     * residual channel bandwidth (protocol decoder as ground truth)
     * and benign-workload performance tax.  Deterministic but not
     * free — each measurement is three extra scenario runs.
     */
    bool measureResidual = false;

    /** Cap on residual measurements per run (engaged pairs beyond it
     *  are skipped in canonical (tenant, unit) order). */
    std::size_t maxResidualProbes = 4;
};

/** One engaged pair's measured mitigation outcome. */
struct ResidualMeasurement
{
    TenantId tenant = 0;
    MonitorTarget unit = MonitorTarget::None;
    ResponseLevel level = ResponseLevel::Observe;

    /** The channel re-run with no response engaged (the baseline). */
    ResidualProbe unmitigated;

    /** The channel re-run under `level`. */
    ResidualProbe mitigated;

    /** Bandwidth reduction fraction in [0, 1]. */
    double reduction = 0.0;

    /** Benign-pair slowdown under `level`. */
    TaxProbe tax;
};

/** What the response loop did during one fleet run. */
struct FleetResponseReport
{
    bool enabled = false;

    /** The orchestrator after observing the finalized incidents;
     *  exposes the action log, stream hash and pair levels. */
    ResponseOrchestrator orchestrator;

    /** Actions carried in from a restored snapshot (restart case). */
    std::uint64_t restoredActions = 0;

    /** Residual-bandwidth + tax measurements for engaged pairs. */
    std::vector<ResidualMeasurement> residuals;

    /** The report as flat stat entries under `prefix`. */
    std::vector<StatEntry> statEntries(
        const std::string& prefix = "fleet.respond.") const;
};

/** Fleet-run knobs. */
struct FleetAuditParams
{
    /** Shard count; 0 sizes to the hardware concurrency.  Always
     *  clamped to the fleet size (an empty shard does no work). */
    std::size_t shards = 0;

    /** ThreadPool workers running the shards; 0 sizes to the hardware
     *  concurrency.  The calling thread participates either way. */
    std::size_t workerThreads = 0;

    /**
     * Override of every tenant's online.analysisThreads (the
     * per-tenant analysis fan-out); 0 keeps each tenant's own
     * setting.  Any value yields the same incident stream.
     */
    std::size_t analysisThreads = 0;

    /**
     * Run tenants with deferred end-of-run cache verdicts: the shard
     * worker resolves each tenant's deferred series through
     * finalizeDeferredOscillations (the thread's cached FFT plans)
     * right after that tenant's audit, before it ingests the batch.
     * Outcomes are identical to the inline transforms — incidents
     * derive from the (unaffected) alarm stream either way, so the
     * cross-shard bit-identity contract is preserved.  Config key:
     * `fleet.batchedFft`.
     */
    bool batchedFft = true;

    AggregatorParams aggregator;
    IncidentRateLimit rateLimit;

    /**
     * Crash-safe persistence (persist/recovery.hh): with a directory
     * configured, every tenant's batch is journaled before it is
     * ingested, the journal is compacted into an atomic snapshot every
     * checkpointIntervalBatches, and `resume` replays whatever
     * survived a previous kill — the resumed run's incident stream is
     * byte-identical to an uninterrupted one.  Config keys:
     * `persist.dir`, `persist.checkpoint_interval`, `persist.resume`,
     * `persist.final_snapshot`.
     */
    persist::PersistPolicy persist;

    /** Incident-driven mitigation orchestration (off by default). */
    FleetResponseParams respond;

    /**
     * Test hook simulating a kill: the run "dies" immediately after
     * the Nth batch of this run has been durably persisted — no
     * finalize, no final snapshot, report.crashed set.  0 disables;
     * meaningful only with persistence enabled (ignored otherwise).
     */
    std::uint64_t simulateCrashAfterBatches = 0;
};

/**
 * One shard's accounting.  Recovery fills `recoveredTenants` and its
 * batches' tallies before the shard pool starts; after that only the
 * shard's own worker writes these fields.
 */
struct ShardStats
{
    std::size_t shard = 0;
    std::size_t tenants = 0;         //!< tenants assigned by the plan
    std::uint64_t tenantsRun = 0;    //!< tenants this run audited
    std::uint64_t alarms = 0;        //!< raw alarms ingested
    /** Always 0: the worker ingests each batch itself, so no batch
     *  waits in a queue.  Kept only because fleetbench's frozen
     *  traced replica still reads it (fleet.queue_high_water). */
    std::size_t queueHighWater = 0;
    std::uint64_t offlineDetected = 0; //!< end-of-run unit detections
    std::uint64_t batchedSeries = 0; //!< series through the batched FFT
    std::uint64_t recoveredTenants = 0; //!< tenants restored, not run
};

/** Everything one fleet run produced. */
struct FleetAuditReport
{
    /** The scored, rate-limited, canonically ordered incident log. */
    IncidentStore incidents;

    std::size_t shardsUsed = 0;
    std::vector<ShardStats> shards;

    /** Tenant batches that reached the aggregator. */
    std::size_t tenantsAudited = 0;

    std::uint64_t alarmsTotal = 0;
    std::uint64_t alarmsFiltered = 0;

    /** Quanta simulated across the whole fleet. */
    std::uint64_t quantaTotal = 0;

    /** Pipeline health accumulated across every tenant daemon. */
    PipelineStats pipeline;

    /** Degradation ledger accumulated across every tenant daemon. */
    DegradedStats degraded;

    /** True when simulateCrashAfterBatches killed the run: incidents
     *  were NOT finalized; resume from the persistence directory. */
    bool crashed = false;

    /** Persistence-layer accounting (checkpoints, journal, recovery
     *  defects). */
    persist::PersistStats persist;

    /** Response-loop outcome (enabled=false when the loop was off;
     *  a crashed run never orchestrates — resume first). */
    FleetResponseReport respond;

    /**
     * The whole report as flat stat entries with two-level prefixes
     * (fleet.alarms.*, fleet.shardN.*, fleet.incidents.*, ...), ready
     * for dumpStatEntries.
     */
    std::vector<StatEntry> statEntries() const;
};

/**
 * Runs a tenant registry as one sharded fleet audit.
 */
class FleetAuditor
{
  public:
    explicit FleetAuditor(const TenantRegistry& registry,
                          FleetAuditParams params = {});

    /** Effective shard count for the configured registry. */
    std::size_t effectiveShards() const;

    /**
     * Audit the whole fleet and aggregate the result.  Deterministic
     * for a fixed registry: the incident stream (and its hash) is
     * independent of shards, workerThreads and analysisThreads.
     */
    FleetAuditReport run();

  private:
    const TenantRegistry& registry_;
    FleetAuditParams params_;
};

} // namespace cchunter

#endif // CCHUNTER_FLEET_FLEET_AUDITOR_HH
