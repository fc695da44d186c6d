#include "fleet/fleet_auditor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "scenario/experiment.hh"
#include "units/unit_registry.hh"
#include "util/thread_pool.hh"

namespace cchunter
{

namespace
{

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Live supervision state of one shard (heartbeats + claim summary). */
struct ShardProgress
{
    std::atomic<bool> started{false}; //!< a worker reached this shard
    std::atomic<bool> active{false};  //!< a worker is running it now
    std::atomic<bool> died{false};    //!< simulated worker death fired
    std::atomic<std::int64_t> lastBeatNs{0};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<bool> abandoned{false}; //!< restart budget exhausted
};

} // namespace

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

    const bool stallSim = params_.watchdog.simulateStallShard !=
                          WatchdogParams::kNoStall;
    // A simulated worker death would strand its staged batches, so
    // stall runs take the unstaged path (stream-identical either way).
    const bool batchedFft = params_.batchedFft && !stallSim;

    AlarmAggregator aggregator(params_.aggregator);

    // Per-tenant claim flags: exchange(true) is the single admission
    // point to auditing a tenant, so recovery pre-claims and watchdog
    // redispatch can never double-audit.  (C++20 value-initializes
    // the atomics to false.)
    std::vector<std::deque<std::atomic<bool>>> claimed(shards);
    for (std::size_t s = 0; s < shards; ++s)
        claimed[s].resize(plan[s].size());

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
    std::vector<TenantAlarmBatch> completed; //!< persisted batches
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
        persist::FleetCheckpoint checkpoint;
        checkpoint.registryFingerprint = fingerprint;
        checkpoint.finalized = finalized;
        checkpoint.batches = completed;
        if (incidents)
            checkpoint.incidents = *incidents;
        if (respond)
            checkpoint.respond = *respond;
        const std::vector<std::uint8_t> bytes =
            persist::encodeFleetCheckpoint(checkpoint,
                                           params_.rateLimit);
        if (persist::writeFileAtomic(
                persist::snapshotPath(params_.persist), bytes)) {
            ++report.persist.checkpointsWritten;
            report.persist.lastSnapshotBytes = bytes.size();
        }
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
        claimed[s][i].store(true);
        batch.shard = s; // re-home under the current shard layout
        report.shards[s].alarms += batch.alarms.size();
        report.shards[s].offlineDetected += batch.offlineDetectedUnits;
        ++report.shards[s].recoveredTenants;
        shardQuanta[s] += batch.quantaRecorded;
        completed.push_back(batch);
        aggregator.ingest(std::move(batch));
    }

    if (persistOn) {
        // Fresh journal stamped with this fleet's fingerprint; a
        // resume first compacts whatever it salvaged into a clean
        // snapshot, so the on-disk pair is consistent from here on.
        if (params_.persist.resume)
            writeSnapshot(false, nullptr,
                          restoredResponse ? &*restoredResponse
                                           : nullptr);
        journal.open(persist::journalPath(params_.persist),
                     persist::encodeMeta(fingerprint, false, 0));
    }

    using Queue = BoundedQueue<TenantAlarmBatch>;
    std::vector<std::unique_ptr<Queue>> queues;
    queues.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s)
        queues.push_back(
            std::make_unique<Queue>(params_.batchQueueCapacity));

    // One collector per shard drains that shard's hand-off queue into
    // the (order-insensitive) aggregator and keeps shard-local tallies
    // — no cross-thread sharing beyond the queue, the aggregator's own
    // lock and the persistence lock.  Journal-before-ingest: a batch
    // only ever reaches the aggregator after it is durable, so a kill
    // can lose in-memory state but never disk/memory agreement.
    std::vector<std::thread> collectors;
    collectors.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        collectors.emplace_back([&, s]() {
            while (auto batch = queues[s]->pop()) {
                if (crashed.load(std::memory_order_acquire))
                    continue; // a killed process does nothing more
                if (persistOn) {
                    std::lock_guard<std::mutex> lock(persistMutex);
                    if (crashed.load(std::memory_order_acquire))
                        continue;
                    const std::uint64_t before =
                        journal.bytesWritten();
                    if (journal.append(
                            persist::encodeTenantBatch(*batch))) {
                        ++report.persist.journalAppends;
                        report.persist.journalBytes +=
                            journal.bytesWritten() - before;
                    }
                    completed.push_back(*batch);
                    ++sinceCheckpoint;
                    ++persistedThisRun;
                    const std::size_t interval =
                        params_.persist.checkpointIntervalBatches;
                    if (interval != 0 && sinceCheckpoint >= interval) {
                        writeSnapshot(false, nullptr,
                                      restoredResponse
                                          ? &*restoredResponse
                                          : nullptr);
                        journal.reset();
                        sinceCheckpoint = 0;
                    }
                    if (crashAfter != 0 &&
                        persistedThisRun >= crashAfter) {
                        // The Nth batch is durable; the "process"
                        // dies here.  Later batches are dropped, the
                        // run never finalizes.
                        crashed.store(true,
                                      std::memory_order_release);
                        journal.close();
                    }
                }
                report.shards[s].alarms += batch->alarms.size();
                report.shards[s].offlineDetected +=
                    batch->offlineDetectedUnits;
                shardQuanta[s] += batch->quantaRecorded;
                aggregator.ingest(std::move(*batch));
            }
        });
    }

    const auto closeAndJoin = [&]() {
        for (auto& queue : queues)
            queue->close();
        for (std::thread& collector : collectors)
            if (collector.joinable())
                collector.join();
    };

    std::vector<std::uint64_t> shardBatchedSeries(shards, 0);
    std::deque<ShardProgress> progress(shards);

    // The shard worker body; `redispatch` marks watchdog re-entry
    // (immune to the simulated death, claims only leftover tenants).
    const auto runShard = [&](std::size_t s, bool redispatch) {
        ShardProgress& prog = progress[s];
        prog.started.store(true);
        prog.active.store(true);
        prog.lastBeatNs.store(steadyNowNs());

        const auto detectedOf =
            [](const std::vector<UnitOutcome>& verdicts) {
                std::uint64_t detected = 0;
                for (const UnitOutcome& unit : verdicts)
                    detected += unit.detected ? 1 : 0;
                return detected;
            };

        const bool simulateDeath =
            !redispatch && params_.watchdog.simulateStallShard == s;

        // With batching on, tenants defer their end-of-run cache
        // transforms; the shard resolves all of them in one planned
        // FFT pass after its last tenant, then hands the staged
        // batches off.  Alarms — and hence incidents — are identical
        // either way.
        std::vector<TenantAlarmBatch> staged;
        std::vector<std::vector<UnitOutcome>> stagedVerdicts;
        if (batchedFft) {
            staged.reserve(plan[s].size());
            stagedVerdicts.reserve(plan[s].size());
        }

        std::size_t processed = 0;
        for (std::size_t i = 0; i < plan[s].size(); ++i) {
            if (crashed.load(std::memory_order_acquire))
                break;
            if (simulateDeath &&
                processed >=
                    params_.watchdog.simulateStallAfterTenants) {
                // The worker "dies": unclaimed tenants stay
                // unclaimed for the watchdog to pick up.
                prog.died.store(true);
                prog.active.store(false);
                return;
            }
            if (claimed[s][i].exchange(true))
                continue; // recovered or another worker's claim
            const TenantId id = plan[s][i];
            OnlineAuditOptions options = registry_.at(id).audit;
            if (params_.analysisThreads != 0)
                options.online.analysisThreads =
                    params_.analysisThreads;
            options.deferOscillationVerdicts = batchedFft;
            OnlineAuditResult result = runOnlineAudit(options);
            TenantAlarmBatch batch;
            batch.tenant = id;
            batch.shard = s;
            batch.alarms = std::move(result.alarms);
            batch.pipeline = result.pipeline;
            batch.degraded = result.degraded;
            batch.quantaRecorded = result.quantaRecorded;
            if (batchedFft) {
                staged.push_back(std::move(batch));
                stagedVerdicts.push_back(
                    std::move(result.finalVerdicts));
            } else {
                batch.offlineDetectedUnits =
                    detectedOf(result.finalVerdicts);
                queues[s]->push(std::move(batch));
            }
            prog.lastBeatNs.store(steadyNowNs());
            ++processed;
        }

        if (batchedFft) {
            std::vector<UnitOutcome*> pending;
            for (std::vector<UnitOutcome>& verdicts : stagedVerdicts)
                for (UnitOutcome& unit : verdicts)
                    if (unit.deferredOscillation)
                        pending.push_back(&unit);
            shardBatchedSeries[s] +=
                finalizeDeferredOscillations(pending);
            for (std::size_t i = 0; i < staged.size(); ++i) {
                if (crashed.load(std::memory_order_acquire))
                    break;
                staged[i].offlineDetectedUnits =
                    detectedOf(stagedVerdicts[i]);
                queues[s]->push(std::move(staged[i]));
            }
        }
        prog.active.store(false);
    };

    const auto unclaimedCount = [&](std::size_t s) {
        std::size_t unclaimed = 0;
        for (std::size_t i = 0; i < plan[s].size(); ++i)
            if (!claimed[s][i].load())
                ++unclaimed;
        return unclaimed;
    };

    // Redispatch a shard whose worker died or went silent, honouring
    // the per-shard restart budget and exponential backoff.  Runs on
    // the watchdog thread (or the caller, for the final sweep); the
    // claim flags make it safe even against a worker that is merely
    // slow rather than dead.
    const auto superviseShard = [&](std::size_t s) {
        ShardProgress& prog = progress[s];
        if (crashed.load(std::memory_order_acquire))
            return;
        if (unclaimedCount(s) == 0)
            return;
        const bool dead = prog.died.load();
        const bool silent =
            prog.started.load() && prog.active.load() &&
            static_cast<double>(steadyNowNs() -
                                prog.lastBeatNs.load()) >
                params_.watchdog.stallTimeoutMs * 1e6;
        const bool vanished = prog.started.load() && !prog.active.load();
        if (prog.abandoned.load())
            return;
        if (!dead && !silent && !vanished)
            return;
        prog.died.store(false);
        // The stall is counted whether or not a restart is still in
        // budget — an abandoned shard must not read as a healthy one.
        ++report.watchdog.stallsDetected;
        if (prog.restarts.load() >=
            params_.watchdog.maxRestartsPerShard) {
            prog.abandoned.store(true);
            return;
        }
        const std::uint64_t attempt = prog.restarts.fetch_add(1) + 1;
        ++report.watchdog.restartsDispatched;
        report.watchdog.tenantsRedispatched += unclaimedCount(s);
        const double backoffMs = params_.watchdog.backoffBaseMs *
                                 static_cast<double>(1ull
                                                     << (attempt - 1));
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoffMs));
        runShard(s, true);
    };

    // The watchdog waits on its own (always-empty) control queue so
    // shutdown — close() — interrupts a poll interval immediately.
    std::unique_ptr<BoundedQueue<int>> watchdogControl;
    std::thread watchdogThread;
    if (params_.watchdog.enabled) {
        watchdogControl = std::make_unique<BoundedQueue<int>>(1);
        watchdogThread = std::thread([&]() {
            const auto interval = std::chrono::duration<
                double, std::milli>(params_.watchdog.pollIntervalMs);
            while (true) {
                watchdogControl->popFor(interval);
                if (watchdogControl->closed())
                    return;
                ++report.watchdog.polls;
                for (std::size_t s = 0; s < shards; ++s)
                    superviseShard(s);
            }
        });
    }

    const auto stopWatchdog = [&]() {
        if (watchdogControl)
            watchdogControl->close();
        if (watchdogThread.joinable())
            watchdogThread.join();
    };

    ThreadPool pool(params_.workerThreads);
    try {
        pool.parallelFor(shards,
                         [&](std::size_t s) { runShard(s, false); });
    } catch (...) {
        stopWatchdog();
        closeAndJoin();
        throw;
    }

    // Workers are done (or dead); stop the watchdog, then sweep any
    // leftovers synchronously — a stall the watchdog had not noticed
    // yet is picked up here, inside the same restart budget.
    stopWatchdog();
    if (params_.watchdog.enabled) {
        for (std::size_t s = 0; s < shards; ++s)
            superviseShard(s);
        for (std::size_t s = 0; s < shards; ++s)
            report.watchdog.abandonedTenants += unclaimedCount(s);
    }
    closeAndJoin();

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
            if (params_.persist.finalSnapshot)
                writeSnapshot(true, &report.incidents,
                              restoredResponse ? &*restoredResponse
                                               : nullptr);
            journal.reset(); // the snapshot absorbed every batch
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
    for (std::size_t s = 0; s < shards; ++s) {
        report.shards[s].batchesPushed = queues[s]->pushed();
        report.shards[s].queueHighWater = queues[s]->highWaterMark();
        report.shards[s].batchedSeries = shardBatchedSeries[s];
        report.shards[s].restarts = progress[s].restarts.load();
        report.quantaTotal += shardQuanta[s];
    }
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
        entries.push_back({prefix + "alarms",
                           static_cast<double>(shard.alarms),
                           "raw alarms collected on this shard"});
        entries.push_back({prefix + "batches",
                           static_cast<double>(shard.batchesPushed),
                           "batches through the hand-off queue"});
        entries.push_back({prefix + "queueHighWater",
                           static_cast<double>(shard.queueHighWater),
                           "deepest hand-off backlog"});
        entries.push_back({prefix + "offlineDetected",
                           static_cast<double>(shard.offlineDetected),
                           "end-of-run unit detections"});
        entries.push_back({prefix + "batchedSeries",
                           static_cast<double>(shard.batchedSeries),
                           "series through the batched FFT pass"});
        entries.push_back({prefix + "restarts",
                           static_cast<double>(shard.restarts),
                           "watchdog redispatches of this shard"});
        entries.push_back({prefix + "recovered",
                           static_cast<double>(shard.recoveredTenants),
                           "tenants restored instead of re-audited"});
    }
    entries.push_back({"fleet.crashed", crashed ? 1.0 : 0.0,
                       "run killed by the crash switch"});
    entries.push_back({"fleet.watchdog.polls",
                       static_cast<double>(watchdog.polls),
                       "watchdog wake-ups"});
    entries.push_back({"fleet.watchdog.stalls",
                       static_cast<double>(watchdog.stallsDetected),
                       "dead or silent shard workers detected"});
    entries.push_back({"fleet.watchdog.restarts",
                       static_cast<double>(watchdog.restartsDispatched),
                       "shard redispatches across the fleet"});
    entries.push_back(
        {"fleet.watchdog.redispatchedTenants",
         static_cast<double>(watchdog.tenantsRedispatched),
         "tenants picked back up by a redispatch"});
    entries.push_back({"fleet.watchdog.abandoned",
                       static_cast<double>(watchdog.abandonedTenants),
                       "tenants left after the restart budget"});
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
