/**
 * @file
 * Fleet alarm aggregation.
 *
 * Shard workers hand the aggregator one TenantAlarmBatch per audited
 * tenant.  Ingest is thread-safe and order-insensitive (batches are
 * keyed by tenant id), so the incident stream does not depend on which
 * shard or thread finished first; finalize() then walks tenants in
 * ascending-id order, deduplicates repeated alarms per (slot, channel
 * signature), correlates recurring signatures across tenants (the same
 * channel on several hosts is a stronger fleet-level signal than any
 * single alarm) and emits scored incidents into an IncidentStore.
 */

#ifndef CCHUNTER_FLEET_ALARM_AGGREGATOR_HH
#define CCHUNTER_FLEET_ALARM_AGGREGATOR_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "auditor/daemon.hh"
#include "fleet/incident_store.hh"
#include "fleet/tenant_registry.hh"

namespace cchunter
{

/** One tenant's audit output, as handed off by a shard worker. */
struct TenantAlarmBatch
{
    TenantId tenant = 0;
    std::size_t shard = 0;
    std::vector<Alarm> alarms;
    PipelineStats pipeline;
    DegradedStats degraded;
    std::uint64_t quantaRecorded = 0;

    /** Monitored units whose end-of-run (offline) verdict detected a
     *  channel — observability for the batched-FFT finalization; not
     *  part of the incident stream. */
    std::uint64_t offlineDetectedUnits = 0;
};

/** Aggregation policy. */
struct AggregatorParams
{
    /** Alarms below this confidence are dropped (and counted). */
    double minConfidence = 0.0;

    /**
     * Alarms on the same (slot, signature) merge into one incident
     * while their quantum gap stays within this; a longer silence
     * starts a fresh incident.
     */
    std::uint64_t dedupGapQuanta = 8;

    /** Distinct tenants a signature needs for fleet-wide correlation. */
    std::size_t crossTenantMinTenants = 2;

    /** Severity thresholds on the incident score. */
    double warningScore = 0.35;
    double criticalScore = 0.7;

    /** Score boost applied to cross-tenant correlated incidents. */
    double crossTenantBoost = 0.25;
};

/**
 * Order-insensitive alarm collector with deterministic finalization.
 */
class AlarmAggregator
{
  public:
    explicit AlarmAggregator(AggregatorParams params = {});

    /**
     * Record one tenant's batch.  Thread-safe; repeated batches for
     * the same tenant append in arrival order (a tenant audited in
     * stages).  The eventual incident stream depends only on the *set*
     * of batches per tenant, not on ingest interleaving across
     * tenants.
     */
    void ingest(TenantAlarmBatch batch);

    /**
     * Deduplicate, correlate and emit incidents into `store`.
     * Deterministic: tenants in ascending-id order (per-tenant
     * incidents in first-alarm order), then fleet-wide correlation
     * records in ascending-signature order.  Call once, after every
     * worker has finished ingesting.
     */
    void finalize(IncidentStore& store);

    std::size_t batchesIngested() const { return batches_; }
    std::uint64_t alarmsSeen() const { return alarmsSeen_; }

    /** Alarms dropped by the confidence floor (set by finalize()). */
    std::uint64_t alarmsFiltered() const { return alarmsFiltered_; }

    /** Pipeline health accumulated across every ingested batch. */
    const PipelineStats& pipeline() const { return pipeline_; }

    /** Degradation ledger accumulated across every ingested batch. */
    const DegradedStats& degraded() const { return degraded_; }

  private:
    double scoreOf(double mean_confidence,
                   std::uint64_t occurrences) const;
    IncidentSeverity severityOf(double score) const;

    AggregatorParams params_;

    std::mutex mutex_;
    std::map<TenantId, std::vector<Alarm>> alarmsByTenant_;
    std::size_t batches_ = 0;
    std::uint64_t alarmsSeen_ = 0;
    std::uint64_t alarmsFiltered_ = 0;
    PipelineStats pipeline_;
    DegradedStats degraded_;
};

} // namespace cchunter

#endif // CCHUNTER_FLEET_ALARM_AGGREGATOR_HH
