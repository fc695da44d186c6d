#include "fleet/fleet_auditor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <system_error>

#include "scenario/experiment.hh"
#include "units/unit_registry.hh"
#include "util/thread_pool.hh"

namespace cchunter
{

FleetAuditor::FleetAuditor(const TenantRegistry& registry,
                           FleetAuditParams params)
    : registry_(registry), params_(params)
{
}

std::size_t
FleetAuditor::effectiveShards() const
{
    std::size_t shards = params_.shards != 0
                             ? params_.shards
                             : ThreadPool::hardwareConcurrency();
    shards = std::max<std::size_t>(1, shards);
    if (!registry_.empty())
        shards = std::min(shards, registry_.size());
    return shards;
}

FleetAuditReport
FleetAuditor::run()
{
    FleetAuditReport report;
    report.incidents = IncidentStore(params_.rateLimit);

    const std::size_t shards = effectiveShards();
    report.shardsUsed = shards;
    const auto plan = registry_.shardPlan(shards);
    report.shards.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        report.shards[s].shard = s;
        report.shards[s].tenants = plan[s].size();
    }

    const bool persistOn = params_.persist.enabled();
    const std::uint64_t fingerprint =
        persistOn ? persist::registryFingerprint(registry_) : 0;
    const std::uint64_t crashAfter =
        persistOn ? params_.simulateCrashAfterBatches : 0;

    AlarmAggregator aggregator(params_.aggregator);

    // Plan slots whose batch was restored from disk.  Set on this
    // thread before the pool starts; only the one shard worker that
    // runs shard s reads restored[s], and it skips those tenants.
    std::vector<std::vector<bool>> restored(shards);
    for (std::size_t s = 0; s < shards; ++s)
        restored[s].resize(plan[s].size(), false);

    const auto planIndexOf = [&](TenantId id, std::size_t& s,
                                 std::size_t& i) {
        s = TenantRegistry::shardOf(id, shards);
        for (i = 0; i < plan[s].size(); ++i)
            if (plan[s][i] == id)
                return true;
        return false;
    };

    // --- persistence state (all mutation under persistMutex) ---
    persist::JournalWriter journal;
    persist::FramedBatches completed; //!< persisted batches, framed once
    std::mutex persistMutex;
    std::uint64_t sinceCheckpoint = 0;
    std::uint64_t persistedThisRun = 0;
    std::atomic<bool> crashed{false};

    // Response state carried in from a restored snapshot.  Mid-run
    // checkpoints re-emit it verbatim (the orchestrator only runs
    // after finalize), so an active quarantine survives any number of
    // crash/restart cycles in between.
    std::optional<ResponseOrchestratorState> restoredResponse;

    const auto writeSnapshot = [&](bool finalized,
                                   const IncidentStore* incidents,
                                   const ResponseOrchestratorState*
                                       respond) {
        const std::vector<std::uint8_t> bytes =
            persist::encodeFleetCheckpoint(fingerprint, finalized,
                                           completed, incidents,
                                           respond, params_.rateLimit);
        if (!persist::writeFileAtomic(
                persist::snapshotPath(params_.persist), bytes)) {
            ++report.persist.writeFailures;
            return false;
        }
        ++report.persist.checkpointsWritten;
        report.persist.lastSnapshotBytes = bytes.size();
        return true;
    };
    const auto journalFrame = [&](std::span<const std::uint8_t> frame) {
        if (!journal.appendFrame(frame)) {
            ++report.persist.writeFailures;
            return false;
        }
        ++report.persist.journalAppends;
        report.persist.journalBytes += frame.size();
        return true;
    };
    // A reset re-opens the journal; a closed one has nothing to reset
    // and its failed open or append was already counted.  Call it only
    // after a snapshot landed: until then the journal is the one
    // durable copy of its batches.
    const auto resetJournal = [&]() {
        if (journal.isOpen() && !journal.reset())
            ++report.persist.writeFailures;
    };

    // --- recovery (before any worker starts) ---
    std::vector<TenantAlarmBatch> recovered;
    if (persistOn && params_.persist.resume) {
        const auto start = std::chrono::steady_clock::now();
        persist::RecoveredFleetState rec = persist::recoverFleetState(
            params_.persist, fingerprint, report.persist);
        recovered = std::move(rec.batches);
        restoredResponse = std::move(rec.respond);
        if (restoredResponse)
            report.respond.restoredActions =
                restoredResponse->actions.size();
        report.persist.restoreMicros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
    }
    std::vector<std::uint64_t> shardQuanta(shards, 0);
    for (TenantAlarmBatch& batch : recovered) {
        std::size_t s = 0;
        std::size_t i = 0;
        if (!planIndexOf(batch.tenant, s, i)) {
            ++report.persist.unknownTenantBatches;
            --report.persist.restoredTenants;
            continue;
        }
        restored[s][i] = true;
        batch.shard = s; // re-home under the current shard layout
        report.shards[s].alarms += batch.alarms.size();
        report.shards[s].offlineDetected += batch.offlineDetectedUnits;
        ++report.shards[s].recoveredTenants;
        shardQuanta[s] += batch.quantaRecorded;
        completed.add(batch);
        aggregator.ingest(std::move(batch));
    }

    if (persistOn) {
        // A directory that cannot be made shows up as counted write
        // failures below, not as an error here.
        std::error_code ec;
        std::filesystem::create_directories(params_.persist.dir, ec);
        // Fresh journal stamped with this fleet's fingerprint; a
        // resume first compacts whatever it salvaged into a clean
        // snapshot, so the on-disk pair is consistent from here on.
        // Opening truncates the old journal, so when that snapshot is
        // refused the new journal carries the salvaged batches again.
        const bool compacted =
            params_.persist.resume &&
            writeSnapshot(false, nullptr,
                          restoredResponse ? &*restoredResponse
                                           : nullptr);
        if (!journal.open(persist::journalPath(params_.persist),
                          persist::encodeMeta(fingerprint, false, 0)))
            ++report.persist.writeFailures;
        else if (!compacted)
            for (std::size_t i = 0; i < completed.size(); ++i)
                journalFrame(completed.frame(i));
    }

    // Each shard worker handles a tenant's batch itself before it
    // starts the next tenant: it journals the batch, writes the
    // interval checkpoint when one is due, checks the kill switch and
    // then ingests into the (order-insensitive, locked) aggregator.
    // Journal-before-ingest: a batch only ever reaches the aggregator
    // after it is durable, so a kill can lose in-memory state but
    // never disk/memory agreement.  A kill after K journaled batches
    // leaves at most one audited, unjournaled tenant on each other
    // shard.  Alarms — and hence incidents — are identical with
    // batching on or off.
    const auto runShard = [&](std::size_t s) {
        for (std::size_t i = 0; i < plan[s].size(); ++i) {
            if (crashed.load(std::memory_order_acquire))
                break;
            if (restored[s][i])
                continue;
            const TenantId id = plan[s][i];
            OnlineAuditOptions options = registry_.at(id).audit;
            if (params_.analysisThreads != 0)
                options.online.analysisThreads =
                    params_.analysisThreads;
            options.deferOscillationVerdicts = params_.batchedFft;
            OnlineAuditResult result = runOnlineAudit(options);
            ++report.shards[s].tenantsRun;
            if (params_.batchedFft) {
                std::vector<UnitOutcome*> pending;
                for (UnitOutcome& unit : result.finalVerdicts)
                    if (unit.deferredOscillation)
                        pending.push_back(&unit);
                report.shards[s].batchedSeries +=
                    finalizeDeferredOscillations(pending);
            }
            TenantAlarmBatch batch;
            batch.tenant = id;
            batch.shard = s;
            batch.alarms = std::move(result.alarms);
            batch.pipeline = result.pipeline;
            batch.degraded = result.degraded;
            batch.quantaRecorded = result.quantaRecorded;
            for (const UnitOutcome& unit : result.finalVerdicts)
                batch.offlineDetectedUnits += unit.detected ? 1 : 0;

            if (persistOn) {
                std::lock_guard<std::mutex> lock(persistMutex);
                if (crashed.load(std::memory_order_acquire))
                    break; // a killed process does nothing more
                if (journalFrame(completed.add(batch)))
                    ++persistedThisRun;
                ++sinceCheckpoint;
                const std::size_t interval =
                    params_.persist.checkpointIntervalBatches;
                if (interval != 0 && sinceCheckpoint >= interval) {
                    // A refused snapshot keeps the journal and waits
                    // a full interval before the next try.
                    if (writeSnapshot(false, nullptr,
                                      restoredResponse
                                          ? &*restoredResponse
                                          : nullptr))
                        resetJournal();
                    sinceCheckpoint = 0;
                }
                if (crashAfter != 0 && persistedThisRun >= crashAfter) {
                    // The Nth journaled batch is durable; the
                    // "process" dies here.  Later batches are
                    // dropped, the run never finalizes.
                    crashed.store(true, std::memory_order_release);
                    journal.close();
                }
            }
            report.shards[s].alarms += batch.alarms.size();
            report.shards[s].offlineDetected +=
                batch.offlineDetectedUnits;
            shardQuanta[s] += batch.quantaRecorded;
            aggregator.ingest(std::move(batch));
        }
    };

    // A tenant audit that throws propagates out of parallelFor, which
    // rethrows only once every in-flight shard body has returned.
    ThreadPool pool(params_.workerThreads);
    pool.parallelFor(shards, runShard);

    if (!crashed.load()) {
        aggregator.finalize(report.incidents);

        // --- close the loop: incidents -> response actions ---
        // Runs strictly after finalize, on the canonical incident
        // stream, so the action log inherits the fleet's byte-identity
        // contract for free.  A restored orchestrator picks up the
        // ladder exactly where the previous run left it.
        if (params_.respond.enabled) {
            ResponseOrchestrator orchestrator =
                restoredResponse
                    ? ResponseOrchestrator::restored(
                          params_.respond.policy,
                          std::move(*restoredResponse))
                    : ResponseOrchestrator(params_.respond.policy);
            orchestrator.observeIncidents(
                report.incidents.incidents());

            if (params_.respond.measureResidual) {
                const UnitRegistry& units = UnitRegistry::instance();
                std::size_t probes = 0;
                for (const ResponsePairState& pair :
                     orchestrator.engagedPairs()) {
                    if (probes >= params_.respond.maxResidualProbes)
                        break;
                    const TenantConfig* tenant = nullptr;
                    for (const TenantConfig& t : registry_.tenants())
                        if (t.id == pair.tenant) {
                            tenant = &t;
                            break;
                        }
                    if (tenant == nullptr)
                        continue;
                    // Only the unit the tenant's workload actually
                    // exercises can be re-run as a probe.
                    const UnitDescriptor* unit =
                        units.byWorkload(tenant->audit.workload);
                    if (unit == nullptr || unit->id != pair.unit)
                        continue;
                    ResidualMeasurement m;
                    m.tenant = pair.tenant;
                    m.unit = pair.unit;
                    m.level = pair.level;
                    m.unmitigated = probeResidualBandwidth(
                        tenant->audit.workload, tenant->audit,
                        params_.respond.policy.planFor(
                            ResponseLevel::Observe));
                    m.mitigated = probeResidualBandwidth(
                        tenant->audit.workload, tenant->audit,
                        params_.respond.policy.planFor(pair.level));
                    m.reduction = bandwidthReduction(
                        m.unmitigated.effectiveBandwidthBps,
                        m.mitigated.effectiveBandwidthBps);
                    m.tax = measureBenignTax(
                        tenant->audit,
                        params_.respond.policy.planFor(pair.level));
                    report.respond.residuals.push_back(std::move(m));
                    ++probes;
                }
            }

            report.respond.enabled = true;
            report.respond.orchestrator = std::move(orchestrator);
            restoredResponse =
                report.respond.orchestrator.snapshotState();
        }

        if (persistOn) {
            std::lock_guard<std::mutex> lock(persistMutex);
            if (params_.persist.finalSnapshot &&
                writeSnapshot(true, &report.incidents,
                              restoredResponse ? &*restoredResponse
                                               : nullptr))
                resetJournal(); // the snapshot absorbed every batch
            journal.close();
        }
    } else {
        report.crashed = true;
    }

    report.tenantsAudited = aggregator.batchesIngested();
    report.alarmsTotal = aggregator.alarmsSeen();
    report.alarmsFiltered = aggregator.alarmsFiltered();
    report.pipeline = aggregator.pipeline();
    report.degraded = aggregator.degraded();
    for (const std::uint64_t quanta : shardQuanta)
        report.quantaTotal += quanta;
    return report;
}

std::vector<StatEntry>
FleetAuditReport::statEntries() const
{
    std::vector<StatEntry> entries;
    std::size_t tenantsPlanned = 0;
    for (const ShardStats& shard : shards)
        tenantsPlanned += shard.tenants;
    entries.push_back({"fleet.tenants",
                       static_cast<double>(tenantsPlanned),
                       "tenant machines in the shard plan"});
    entries.push_back({"fleet.audited",
                       static_cast<double>(tenantsAudited),
                       "tenant batches aggregated"});
    entries.push_back({"fleet.shards", static_cast<double>(shardsUsed),
                       "shards the fleet ran on"});
    entries.push_back({"fleet.alarms.total",
                       static_cast<double>(alarmsTotal),
                       "raw alarms across the fleet"});
    entries.push_back({"fleet.alarms.filtered",
                       static_cast<double>(alarmsFiltered),
                       "alarms below the confidence floor"});
    entries.push_back({"fleet.quanta",
                       static_cast<double>(quantaTotal),
                       "OS time quanta simulated fleet-wide"});
    for (const ShardStats& shard : shards) {
        const std::string prefix =
            "fleet.shard" + std::to_string(shard.shard) + '.';
        entries.push_back({prefix + "tenants",
                           static_cast<double>(shard.tenants),
                           "tenants assigned to this shard"});
        entries.push_back({prefix + "run",
                           static_cast<double>(shard.tenantsRun),
                           "tenants this run audited and handed off"});
        entries.push_back({prefix + "alarms",
                           static_cast<double>(shard.alarms),
                           "raw alarms collected on this shard"});
        entries.push_back({prefix + "offlineDetected",
                           static_cast<double>(shard.offlineDetected),
                           "end-of-run unit detections"});
        entries.push_back({prefix + "batchedSeries",
                           static_cast<double>(shard.batchedSeries),
                           "series through the batched FFT pass"});
        entries.push_back({prefix + "recovered",
                           static_cast<double>(shard.recoveredTenants),
                           "tenants restored instead of re-audited"});
    }
    entries.push_back({"fleet.crashed", crashed ? 1.0 : 0.0,
                       "run killed by the crash switch"});
    const auto append = [&entries](std::vector<StatEntry> more) {
        entries.insert(entries.end(),
                       std::make_move_iterator(more.begin()),
                       std::make_move_iterator(more.end()));
    };
    append(incidents.statEntries("fleet.incidents."));
    append(pipelineStatEntries(pipeline, "fleet.pipeline."));
    append(degradedStatEntries(degraded, "fleet.degraded."));
    append(persistStatEntries(persist, "persist."));
    if (respond.enabled)
        append(respond.statEntries("fleet.respond."));
    return entries;
}

std::vector<StatEntry>
FleetResponseReport::statEntries(const std::string& prefix) const
{
    std::vector<StatEntry> entries =
        orchestrator.statEntries(prefix);
    entries.push_back({prefix + "restoredActions",
                       static_cast<double>(restoredActions),
                       "actions carried in from a restored snapshot"});
    entries.push_back({prefix + "residual.measurements",
                       static_cast<double>(residuals.size()),
                       "engaged pairs re-run under their response"});
    double worstResidualBps = 0.0;
    double meanReduction = 0.0;
    double worstTax = 0.0;
    for (const ResidualMeasurement& m : residuals) {
        worstResidualBps =
            std::max(worstResidualBps,
                     m.mitigated.effectiveBandwidthBps);
        meanReduction += m.reduction;
        worstTax = std::max(worstTax, m.tax.tax);
    }
    if (!residuals.empty())
        meanReduction /= static_cast<double>(residuals.size());
    entries.push_back({prefix + "residual.worstBps", worstResidualBps,
                       "highest surviving channel bandwidth (bits/s)"});
    entries.push_back({prefix + "residual.meanReduction",
                       meanReduction,
                       "mean bandwidth reduction across measurements"});
    entries.push_back({prefix + "residual.worstTax", worstTax,
                       "worst benign-pair slowdown fraction"});
    return entries;
}

} // namespace cchunter
