#include "traced.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "channels/protocol.hh"
#include "cpu_time.hh"
#include "detect/incremental_autocorr.hh"
#include "faults/fault_injector.hh"
#include "persist/recovery.hh"
#include "respond/residual.hh"
#include "sim/machine.hh"
#include "units/unit_registry.hh"
#include "util/rng.hh"
#include "workloads/suites.hh"

using namespace cchunter;

namespace fleetbench
{

namespace
{

/**
 * Span recorder on the pass thread's CPU clock, which it can pause.
 * Work done only to attribute time (the bare-machine replay, the
 * autocorrelation replay, the runOnlineAudit fidelity check) runs with
 * the clock paused, so the pass's time is the fleet work alone.
 */
class Tracer
{
  public:
    Tracer() : origin_(threadCpuSeconds()) {}

    double now() const { return threadCpuSeconds() - origin_ - paused_; }

    int open(const char* name, std::int64_t tenant = -1)
    {
        spans_.push_back({name, now(), 0.0, top(), tenant});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int span)
    {
        if (stack_.empty() || stack_.back() != span)
            throw std::logic_error("trace: spans closed out of order");
        spans_[span].end = now();
        stack_.pop_back();
    }

    /** A finished span under the currently open one. */
    int record(const char* name, double start, double end,
               std::int64_t tenant)
    {
        spans_.push_back({name, start, end, top(), tenant});
        return static_cast<int>(spans_.size()) - 1;
    }

    /**
     * A child of `parent` whose duration was measured elsewhere (the
     * daemon's own analysis latency, or a replay): placed at the end of
     * the parent and clamped to the parent's still-uncovered time, so
     * no self time goes negative.
     */
    void carve(int parent, const char* name, double seconds)
    {
        const double kept = std::clamp(seconds, 0.0,
                                       std::max(0.0, selfTime(parent)));
        const double end = spans_[parent].end;
        spans_.push_back(
            {name, end - kept, end, parent, spans_[parent].tenant});
    }

    /** Run `fn` with the clock paused; returns its duration. */
    template <typename Fn>
    double offClock(Fn&& fn)
    {
        const double t0 = threadCpuSeconds();
        fn();
        const double d = threadCpuSeconds() - t0;
        paused_ += d;
        return d;
    }

    /** Self time (duration minus direct children) summed per name. */
    std::map<std::string, double> selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span& s : spans_)
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        return out;
    }

    std::vector<Span> take() { return std::move(spans_); }

  private:
    int top() const { return stack_.empty() ? -1 : stack_.back(); }

    double selfTime(int span) const
    {
        double self = spans_[span].end - spans_[span].start;
        for (std::size_t i = span + 1; i < spans_.size(); ++i)
            if (spans_[i].parent == span)
                self -= spans_[i].end - spans_[i].start;
        return self;
    }

    double origin_;
    double paused_ = 0.0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer& t, const char* name, std::int64_t tenant = -1)
        : t_(t), span_(t.open(name, tenant))
    {
    }
    ~Scope()
    {
        if (open_)
            t_.close(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int close()
    {
        t_.close(span_);
        open_ = false;
        return span_;
    }

  private:
    Tracer& t_;
    int span_;
    bool open_ = true;
};

/**
 * Span name -> the per-layer self-time metric it feeds.  The
 * tenant.run span is the machine run; what its boundary, sim and
 * incremental children leave is the CC-Auditor model (conflict
 * tracker, histogram buffers, mid-quantum drains).
 */
const std::pair<const char*, const char*> kSelfTimeMetrics[] = {
    {"scenario", "scenario.build_s"},
    {"sim", "sim.self_s"},
    {"tenant.run", "auditor.model_s"},
    {"auditor.boundary", "auditor.boundary_s"},
    {"detect.online", "detect.online_s"},
    {"detect.incremental", "detect.incremental_s"},
    {"detect.final", "detect.final_s"},
    {"fleet.ingest", "fleet.ingest_s"},
    {"fleet.finalize", "fleet.finalize_s"},
    {"persist.journal", "persist.journal_s"},
    {"persist.checkpoint", "persist.checkpoint_s"},
    {"persist.fingerprint", "persist.fingerprint_s"},
    {"persist.recover", "persist.recover_s"},
    {"respond.observe", "respond.observe_s"},
    {"respond.probe", "respond.probe_s"},
};

bool
sameAlarms(const std::vector<Alarm>& a, const std::vector<Alarm>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].slot != b[i].slot || a[i].when != b[i].when ||
            a[i].quantum != b[i].quantum || a[i].summary != b[i].summary ||
            a[i].confidence != b[i].confidence || a[i].unit != b[i].unit ||
            a[i].kind != b[i].kind ||
            a[i].dominantFeature != b[i].dominantFeature)
            return false;
    return true;
}

/**
 * One tenant machine built from the public pieces runOnlineAudit uses:
 * the unit descriptor's hooks, Machine, CCAuditor and AuditDaemon.
 * With `audited` false no auditor slot is programmed and no daemon is
 * attached: the bare simulation the sim layer is measured on.
 */
class TenantMachine
{
  public:
    TenantMachine(const OnlineAuditOptions& options, bool audited)
        : options_(options)
    {
        const ScenarioOptions& opts = options.scenario;
        if (opts.response.active() || options.autoRespond.enabled)
            throw std::invalid_argument(
                "traced tenant: response axes are not replicated");
        const UnitRegistry& registry = UnitRegistry::instance();

        Message payload = opts.message;
        if (payload.empty()) {
            Rng rng(opts.seed ^ 0xabcdef);
            payload = Message::random64(rng);
        }
        ChannelTiming timing;
        timing.start = 1000;
        timing.bandwidthBps = opts.bandwidthBps;
        timing.maxSignalTicks = opts.effectiveSignalTicks();
        if (opts.evasion.enabled())
            opts.evasion.validate();
        timing.evasion = opts.evasion;
        UnitRunContext ctx;
        ctx.message = encodeProtocol(payload, opts.protocol);
        ctx.timing = timing;
        ctx.seed = opts.seed;
        ctx.channelSets = opts.channelSets;
        ctx.linesPerSet = opts.linesPerSet;
        ctx.cacheNoiseEvery = opts.cacheNoiseEvery;
        ctx.cacheDormantNoiseGap = opts.cacheDormantNoiseGap;
        ctx.roundsPerBit = opts.effectiveCacheRounds();
        ctx.tlbChannelSets = opts.tlbChannelSets;
        ctx.busEvasionPeriod = opts.busEvasionPeriod;
        ctx.idealTracker = opts.idealTracker;
        ctx.trackerParams = opts.trackerParams;

        const UnitDescriptor* unit = registry.byWorkload(options.workload);
        const BenignPairing* pairing =
            unit ? nullptr : &benignPairing(options.benignUnits);
        MachineParams mp;
        mp.scheduler.quantum = opts.quantum;
        mp.scheduler.seed = opts.seed;
        if (unit) {
            if (unit->configureMachine)
                unit->configureMachine(mp, ctx);
        } else {
            for (const MonitorTarget target : pairing->slots) {
                const UnitDescriptor& d = registry.require(target);
                if (d.configureBenignMachine)
                    d.configureBenignMachine(mp, ctx);
            }
        }
        machine_ = std::make_unique<Machine>(mp);
        if (unit) {
            unit->buildWorkload(*machine_, ctx);
        } else {
            machine_->addProcess(
                makeBenchmark(options.benignA, opts.seed + 1), 0);
            machine_->addProcess(
                makeBenchmark(options.benignB, opts.seed + 2), 1);
        }
        const std::vector<std::string> pool{"mcf", "gobmk", "stream",
                                            "bzip2", "webserver"};
        for (unsigned i = 0; i < opts.noiseProcesses; ++i)
            machine_->addProcess(makeBenchmark(pool[i % pool.size()],
                                               opts.seed + 100 + i,
                                               opts.noiseIntensity));
        if (!audited)
            return;

        auditor_ = std::make_unique<CCAuditor>(*machine_);
        if (opts.faults.enabled()) {
            opts.faults.validate();
            if (opts.faults.saturatePaperWidths) {
                HistogramBufferParams hp = auditor_->histogramParams();
                hp.saturate16 = true;
                auditor_->setHistogramParams(hp);
            }
            injector_.emplace(opts.faults);
        }
        const AuditKey key = requestAuditKey(true);
        if (unit) {
            unit->program(*auditor_, key, 0, ctx);
        } else {
            UnitRunContext benign = ctx;
            benign.idealTracker = false;
            for (unsigned slot = 0; slot < pairing->slots.size(); ++slot)
                registry.require(pairing->slots[slot])
                    .program(*auditor_, key, slot, benign);
        }
    }

    /** Register a quantum observer (before or after the daemon's). */
    void observe(QuantumObserver observer)
    {
        machine_->scheduler().addQuantumObserver(std::move(observer));
    }

    /** Attach the daemon with the run's online cadence. */
    void attachDaemon()
    {
        daemon_ = std::make_unique<AuditDaemon>(*machine_, *auditor_);
        if (injector_)
            daemon_->attachFaultInjector(&*injector_);
        const ScenarioOptions& opts = options_.scenario;
        online_ = options_.online;
        if (opts.quanta != 0 &&
            online_.clusteringIntervalQuanta > opts.quanta)
            online_.clusteringIntervalQuanta = opts.quanta;
        online_.hunter = opts.thresholds.apply(online_.hunter);
        daemon_->enableOnlineAnalysis(online_);
    }

    /** Machine::runQuanta, stepping the event queue here so events can
     *  be counted.  Returns the events executed. */
    std::uint64_t run()
    {
        Scheduler& sched = machine_->scheduler();
        EventQueue& eq = machine_->eventQueue();
        sched.start();
        const std::uint64_t target =
            sched.quantaElapsed() + options_.scenario.quanta;
        std::uint64_t events = 0;
        while (sched.quantaElapsed() < target && !eq.empty()) {
            eq.step();
            ++events;
        }
        return events;
    }

    AuditDaemon& daemon() { return *daemon_; }

    /** The end-of-run verdict calls runOnlineAudit makes. */
    std::vector<UnitOutcome> finalVerdicts(bool defer) const
    {
        const ScenarioOptions& opts = options_.scenario;
        const UnitRegistry& registry = UnitRegistry::instance();
        std::vector<UnitOutcome> out;
        for (unsigned s = 0; s < auditor_->numSlots(); ++s) {
            if (!auditor_->slotActive(s))
                continue;
            UnitOutcome outcome;
            outcome.slot = s;
            outcome.unit = auditor_->slotTarget(s);
            outcome.backend = opts.thresholds.backend;
            outcome.indicator2Threshold =
                opts.thresholds.indicator2Threshold;
            const UnitDescriptor& d = registry.require(outcome.unit);
            Indicator2Params i2params;
            if (d.indicator2Scale > 0.0) {
                if (d.policy == AlarmKind::Oscillation)
                    i2params.runScale = d.indicator2Scale;
                else
                    i2params.contentionScale = d.indicator2Scale;
            }
            const Indicator2 indicator2(i2params);
            const bool byIndicator2 =
                outcome.backend == DetectBackend::Indicator2;
            if (d.policy == AlarmKind::Oscillation) {
                outcome.kind = AlarmKind::Oscillation;
                outcome.confidence = daemon_->oscillationConfidence(s);
                outcome.indicator2 =
                    indicator2.scoreOscillation(daemon_->labelSeries(s));
                if (defer) {
                    outcome.deferredOscillation = true;
                    outcome.pendingSeries = daemon_->labelSeries(s);
                    outcome.pendingParams = online_.hunter.oscillation;
                    if (byIndicator2)
                        outcome.detected = outcome.indicator2.detectedAt(
                            outcome.indicator2Threshold);
                } else {
                    outcome.oscillation =
                        daemon_->analyzeOscillation(s, online_.hunter);
                    outcome.detected =
                        byIndicator2 ? outcome.indicator2.detectedAt(
                                           outcome.indicator2Threshold)
                                     : outcome.oscillation.detected;
                }
            } else {
                outcome.kind = AlarmKind::Contention;
                outcome.contention =
                    daemon_->analyzeContention(s, online_.hunter);
                outcome.indicator2 = indicator2.scoreContention(
                    daemon_->contentionQuanta(s));
                outcome.detected =
                    byIndicator2 ? outcome.indicator2.detectedAt(
                                       outcome.indicator2Threshold)
                                 : outcome.contention.detected;
                outcome.confidence =
                    daemon_->contentionConfidence(s, outcome.contention);
            }
            out.push_back(std::move(outcome));
        }
        return out;
    }

    /** Label series of every conflict-tracking slot. */
    std::vector<std::vector<double>> labelSeries() const
    {
        std::vector<std::vector<double>> out;
        for (unsigned s = 0; s < auditor_->numSlots(); ++s)
            if (auditor_->slotActive(s) && auditor_->vectorRegisters(s))
                out.push_back(daemon_->labelSeries(s));
        return out;
    }

    const OnlineAnalysisParams& online() const { return online_; }

  private:
    OnlineAuditOptions options_;
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<CCAuditor> auditor_;
    std::optional<FaultInjector> injector_;
    OnlineAnalysisParams online_;
    // Declared last so it is destroyed first, while what it observes
    // still exists.
    std::unique_ptr<AuditDaemon> daemon_;
};

/** Counters summed over the pass. */
struct Counts
{
    std::uint64_t tenantRuns = 0;
    std::uint64_t quanta = 0;
    std::uint64_t events = 0;
    std::uint64_t drainedHistograms = 0;
    std::uint64_t drainedConflicts = 0;
    std::uint64_t evictedConflicts = 0;
    std::uint64_t analyses = 0;
    std::uint64_t batchedSeries = 0;
    std::uint64_t journalBytes = 0;
    std::uint64_t checkpointBytes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t defects = 0;
    std::uint64_t probes = 0;
};

/** Attribution replays of one tenant, measured on its first run and
 *  reused when a resume re-runs it. */
struct Replays
{
    double simSeconds = 0.0;
    double incrementalSeconds = 0.0;
};

/** The outcome of one FleetAuditor::run equivalent. */
struct FleetRunOutcome
{
    bool crashed = false;
    IncidentStore incidents;
    std::optional<ResponseOrchestrator> orchestrator;
    std::size_t tenantsAudited = 0;
    std::uint64_t alarms = 0;
    std::uint64_t alarmsFiltered = 0;
};

/** The traced pass: FleetAuditor::run's stages, one thread, spanned. */
class TracedRun
{
  public:
    explicit TracedRun(const Workload& w)
        : w_(w), policy_(w.params.persist),
          replays_(w.registry.size())
    {
        for (const TenantConfig& t : w.registry.tenants())
            if (t.id >= w.registry.size())
                throw std::invalid_argument(
                    "traced pass: tenant ids must be dense");
    }

    TracedPass run(std::size_t shards);

  private:
    FleetRunOutcome fleetRun(std::size_t shards, bool resume,
                             std::uint64_t crashAfter);
    TenantAlarmBatch auditTenant(TenantId id, std::size_t shard,
                                 std::vector<UnitOutcome>& verdicts);
    Replays replay(const OnlineAuditOptions& options,
                   const TenantMachine& m, const TenantAlarmBatch& batch);
    void writeSnapshot(bool finalized, const IncidentStore* incidents);
    void journalBatch(const TenantAlarmBatch& batch);

    const Workload& w_;
    const persist::PersistPolicy policy_;
    std::vector<std::optional<Replays>> replays_;
    Tracer t_;
    Counts c_;
    std::string fidelityError_;

    // Persistence replay state, as FleetAuditor::run keeps it.
    persist::JournalWriter journal_;
    std::vector<TenantAlarmBatch> completed_;
    std::uint64_t fingerprint_ = 0;
    std::size_t sinceCheckpoint_ = 0;
    std::optional<ResponseOrchestratorState> restoredResponse_;
};

TenantAlarmBatch
TracedRun::auditTenant(TenantId id, std::size_t shard,
                       std::vector<UnitOutcome>& verdicts)
{
    OnlineAuditOptions options = w_.registry.at(id).audit;
    if (w_.params.analysisThreads != 0)
        options.online.analysisThreads = w_.params.analysisThreads;
    options.deferOscillationVerdicts = w_.params.batchedFft;
    const std::int64_t tenant = id;
    ++c_.tenantRuns;
    c_.quanta += options.scenario.quanta;

    Scope build(t_, "scenario", tenant);
    std::optional<TenantMachine> m(std::in_place, options, true);
    // Bracket the daemon's boundary work with one observer registered
    // before the daemon's and one after it.
    double boundaryStart = 0.0;
    double latencyBefore = 0.0;
    AuditDaemon* daemon = nullptr;
    m->observe([&](std::uint64_t, Tick) {
        boundaryStart = t_.now();
        latencyBefore = daemon->pipelineStats().latencyTotalUs;
    });
    m->attachDaemon();
    daemon = &m->daemon();
    m->observe([&](std::uint64_t, Tick) {
        const double end = t_.now();
        const double onlineUs =
            daemon->pipelineStats().latencyTotalUs - latencyBefore;
        const int b =
            t_.record("auditor.boundary", boundaryStart, end, tenant);
        t_.carve(b, "detect.online", onlineUs * 1e-6);
    });
    build.close();

    Scope run(t_, "tenant.run", tenant);
    c_.events += m->run();
    const int runSpan = run.close();

    const PipelineStats ps = daemon->pipelineStats();
    c_.drainedHistograms += ps.drainedHistograms;
    c_.drainedConflicts += ps.drainedConflicts;
    c_.evictedConflicts += ps.evictedConflicts;
    c_.analyses += ps.analysesRun;
    {
        Scope fin(t_, "detect.final", tenant);
        verdicts = m->finalVerdicts(options.deferOscillationVerdicts);
    }
    TenantAlarmBatch batch;
    batch.tenant = id;
    batch.shard = shard;
    batch.alarms = daemon->alarms();
    batch.pipeline = ps;
    batch.degraded = daemon->degradedStats();
    batch.quantaRecorded = daemon->quantaRecorded();

    if (!replays_[id])
        replays_[id] = replay(options, *m, batch);
    t_.carve(runSpan, "sim", replays_[id]->simSeconds);
    t_.carve(runSpan, "detect.incremental",
             replays_[id]->incrementalSeconds);
    Scope teardown(t_, "scenario", tenant);
    m.reset();
    return batch;
}

Replays
TracedRun::replay(const OnlineAuditOptions& options, const TenantMachine& m,
                  const TenantAlarmBatch& batch)
{
    Replays r;
    // The same tenant with no auditor slot programmed: the bare
    // simulation.  Only its run is timed.
    std::optional<TenantMachine> bare;
    t_.offClock([&] { bare.emplace(options, false); });
    r.simSeconds = t_.offClock([&] { bare->run(); });
    t_.offClock([&] { bare.reset(); });

    // Each conflict slot's label series through the maintainer the
    // daemon feeds at every drain, sized like the daemon's.
    const std::size_t lag =
        std::max<std::size_t>(2, m.online().hunter.oscillation.maxLag);
    std::vector<std::vector<double>> labels;
    std::vector<std::unique_ptr<IncrementalAutocorrelation>> maintainers;
    t_.offClock([&] {
        labels = m.labelSeries();
        for (std::size_t i = 0; i < labels.size(); ++i)
            maintainers.push_back(
                std::make_unique<IncrementalAutocorrelation>(
                    lag, DaemonRetention{}.conflictRecords));
    });
    r.incrementalSeconds = t_.offClock([&] {
        for (std::size_t i = 0; i < labels.size(); ++i)
            for (const double x : labels[i])
                maintainers[i]->push(x);
    });
    t_.offClock([&] { maintainers.clear(); });

    t_.offClock([&] {
        const OnlineAuditResult ref = runOnlineAudit(options);
        if (fidelityError_.empty() &&
            (!sameAlarms(ref.alarms, batch.alarms) ||
             ref.quantaRecorded != batch.quantaRecorded))
            fidelityError_ = "traced tenant " +
                             std::to_string(batch.tenant) + " (" +
                             w_.registry.at(batch.tenant).name +
                             "): alarms differ from runOnlineAudit";
    });
    return r;
}

void
TracedRun::writeSnapshot(bool finalized, const IncidentStore* incidents)
{
    Scope s(t_, "persist.checkpoint");
    persist::FleetCheckpoint checkpoint;
    checkpoint.registryFingerprint = fingerprint_;
    checkpoint.finalized = finalized;
    checkpoint.batches = completed_;
    if (incidents)
        checkpoint.incidents = *incidents;
    if (restoredResponse_)
        checkpoint.respond = *restoredResponse_;
    const std::vector<std::uint8_t> bytes =
        persist::encodeFleetCheckpoint(checkpoint, w_.params.rateLimit);
    if (persist::writeFileAtomic(persist::snapshotPath(policy_), bytes)) {
        ++c_.checkpoints;
        c_.checkpointBytes += bytes.size();
    }
}

void
TracedRun::journalBatch(const TenantAlarmBatch& batch)
{
    {
        Scope s(t_, "persist.journal");
        const std::uint64_t before = journal_.bytesWritten();
        if (journal_.append(persist::encodeTenantBatch(batch)))
            c_.journalBytes += journal_.bytesWritten() - before;
        completed_.push_back(batch);
    }
    const std::size_t interval = policy_.checkpointIntervalBatches;
    if (interval != 0 && ++sinceCheckpoint_ >= interval) {
        writeSnapshot(false, nullptr);
        Scope s(t_, "persist.journal");
        journal_.reset();
        sinceCheckpoint_ = 0;
    }
}

FleetRunOutcome
TracedRun::fleetRun(std::size_t shards, bool resume,
                    std::uint64_t crashAfter)
{
    FleetRunOutcome out;
    out.incidents = IncidentStore(w_.params.rateLimit);
    const bool persistOn = policy_.enabled();
    AlarmAggregator aggregator(w_.params.aggregator);
    std::vector<bool> claimed(w_.registry.size(), false);
    completed_.clear();
    sinceCheckpoint_ = 0;
    restoredResponse_.reset();

    if (persistOn) {
        Scope s(t_, "persist.fingerprint");
        fingerprint_ = persist::registryFingerprint(w_.registry);
    }
    if (persistOn && resume) {
        persist::PersistStats stats;
        persist::RecoveredFleetState rec;
        {
            Scope s(t_, "persist.recover");
            rec = persist::recoverFleetState(policy_, fingerprint_, stats);
        }
        c_.defects += stats.defects.total();
        restoredResponse_ = std::move(rec.respond);
        for (TenantAlarmBatch& batch : rec.batches) {
            claimed.at(batch.tenant) = true;
            batch.shard = TenantRegistry::shardOf(batch.tenant, shards);
            completed_.push_back(batch);
            Scope s(t_, "fleet.ingest");
            aggregator.ingest(std::move(batch));
        }
    }
    if (persistOn) {
        if (resume)
            writeSnapshot(false, nullptr);
        Scope s(t_, "persist.journal");
        journal_.open(persist::journalPath(policy_),
                      persist::encodeMeta(fingerprint_, false, 0));
    }

    std::uint64_t persisted = 0;
    const auto plan = w_.registry.shardPlan(shards);
    for (std::size_t s = 0; s < plan.size() && !out.crashed; ++s) {
        // A shard stages its batches, resolves the deferred series in
        // one batched pass, then hands the batches off in order.
        std::vector<TenantAlarmBatch> staged;
        std::vector<std::vector<UnitOutcome>> verdicts;
        for (const TenantId id : plan[s]) {
            if (claimed[id])
                continue;
            claimed[id] = true;
            verdicts.emplace_back();
            staged.push_back(auditTenant(id, s, verdicts.back()));
        }
        if (w_.params.batchedFft) {
            Scope fin(t_, "detect.final");
            std::vector<UnitOutcome*> pending;
            for (auto& units : verdicts)
                for (UnitOutcome& unit : units)
                    if (unit.deferredOscillation)
                        pending.push_back(&unit);
            c_.batchedSeries += finalizeDeferredOscillations(pending);
        }
        for (std::size_t i = 0; i < staged.size() && !out.crashed; ++i) {
            for (const UnitOutcome& unit : verdicts[i])
                staged[i].offlineDetectedUnits += unit.detected ? 1 : 0;
            if (persistOn) {
                journalBatch(staged[i]);
                if (crashAfter != 0 && ++persisted >= crashAfter) {
                    out.crashed = true;
                    journal_.close();
                }
            }
            Scope ingest(t_, "fleet.ingest");
            aggregator.ingest(std::move(staged[i]));
        }
    }
    if (out.crashed)
        return out;

    {
        Scope s(t_, "fleet.finalize");
        aggregator.finalize(out.incidents);
    }
    const FleetResponseParams& respond = w_.params.respond;
    if (respond.enabled) {
        out.orchestrator =
            restoredResponse_
                ? ResponseOrchestrator::restored(
                      respond.policy, std::move(*restoredResponse_))
                : ResponseOrchestrator(respond.policy);
        {
            Scope s(t_, "respond.observe");
            out.orchestrator->observeIncidents(out.incidents.incidents());
        }
        if (respond.measureResidual) {
            // The fleet auditor's probe loop: engaged pairs in canonical
            // order, only the unit the tenant's channel runs on, capped.
            Scope s(t_, "respond.probe");
            const UnitRegistry& units = UnitRegistry::instance();
            std::size_t probes = 0;
            for (const ResponsePairState& pair :
                 out.orchestrator->engagedPairs()) {
                if (probes >= respond.maxResidualProbes)
                    break;
                if (!w_.registry.contains(pair.tenant))
                    continue;
                const OnlineAuditOptions& audit =
                    w_.registry.at(pair.tenant).audit;
                const UnitDescriptor* unit = units.byWorkload(audit.workload);
                if (unit == nullptr || unit->id != pair.unit)
                    continue;
                probeResidualBandwidth(
                    audit.workload, audit,
                    respond.policy.planFor(ResponseLevel::Observe));
                probeResidualBandwidth(audit.workload, audit,
                                       respond.policy.planFor(pair.level));
                measureBenignTax(audit, respond.policy.planFor(pair.level));
                ++probes;
            }
            c_.probes += probes;
        }
        restoredResponse_ = out.orchestrator->snapshotState();
    }
    if (persistOn) {
        if (policy_.finalSnapshot)
            writeSnapshot(true, &out.incidents);
        Scope s(t_, "persist.journal");
        journal_.reset();
        journal_.close();
    }
    out.tenantsAudited = aggregator.batchesIngested();
    out.alarms = aggregator.alarmsSeen();
    out.alarmsFiltered = aggregator.alarmsFiltered();
    return out;
}

TracedPass
TracedRun::run(std::size_t shards)
{
    if (policy_.enabled())
        t_.offClock([&] {
            std::filesystem::remove_all(policy_.dir);
            std::filesystem::create_directories(policy_.dir);
        });
    const double start = t_.now();
    FleetRunOutcome result;
    if (w_.killAfterBatches != 0) {
        if (!fleetRun(shards, false, w_.killAfterBatches).crashed)
            throw std::runtime_error("traced pass: kill point not reached");
        result = fleetRun(shards, true, 0);
    } else {
        result = fleetRun(shards, false, 0);
    }
    const double total = t_.now() - start;

    TracedPass out;
    out.coreSeconds = total;
    out.incidentHash = result.incidents.streamHash();
    out.actionHash =
        result.orchestrator ? result.orchestrator->streamHash() : 0;
    out.tenantAudits = c_.tenantRuns;
    if (result.tenantsAudited < w_.registry.size())
        out.tenantsMissing = w_.registry.size() - result.tenantsAudited;
    out.fidelityError = fidelityError_;

    const std::map<std::string, double> self = t_.selfTimes();
    std::map<std::string, double> layer;
    double attributed = 0.0;
    for (const auto& [span, seconds] : self) {
        const auto it = std::find_if(
            std::begin(kSelfTimeMetrics), std::end(kSelfTimeMetrics),
            [&](const auto& m) { return span == m.first; });
        if (it == std::end(kSelfTimeMetrics))
            throw std::logic_error("trace: span '" + span +
                                   "' feeds no metric");
        layer[it->second] += seconds;
        attributed += seconds;
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    const double simSelf = layer["sim.self_s"];
    const double online = layer["detect.online_s"];
    out.metrics = {
        {"scenario.build_s", layer["scenario.build_s"]},
        {"scenario.tenant_runs", d(c_.tenantRuns)},
        {"scenario.rerun_ratio",
         ratio(d(c_.tenantRuns), d(w_.registry.size()))},
        {"sim.self_s", simSelf},
        {"sim.events", d(c_.events)},
        {"sim.ns_per_event", 1e9 * ratio(simSelf, d(c_.events))},
        {"sim.events_per_quantum", ratio(d(c_.events), d(c_.quanta))},
        {"auditor.model_s", layer["auditor.model_s"]},
        {"auditor.boundary_s", layer["auditor.boundary_s"]},
        {"auditor.drained_histograms", d(c_.drainedHistograms)},
        {"auditor.drained_conflicts", d(c_.drainedConflicts)},
        {"auditor.evicted_conflicts", d(c_.evictedConflicts)},
        {"detect.online_s", online},
        {"detect.analyses", d(c_.analyses)},
        {"detect.us_per_analysis", 1e6 * ratio(online, d(c_.analyses))},
        {"detect.incremental_s", layer["detect.incremental_s"]},
        {"detect.final_s", layer["detect.final_s"]},
        {"detect.batched_series", d(c_.batchedSeries)},
        {"fleet.ingest_s", layer["fleet.ingest_s"]},
        {"fleet.finalize_s", layer["fleet.finalize_s"]},
        {"fleet.alarms", d(result.alarms)},
        {"fleet.alarms_filtered", d(result.alarmsFiltered)},
        {"fleet.incidents", d(result.incidents.incidents().size())},
        {"fleet.fleetwide", d(result.incidents.fleetWideCount())},
        {"fleet.suppressed", d(result.incidents.suppressed())},
        {"persist.journal_s", layer["persist.journal_s"]},
        {"persist.journal_bytes", d(c_.journalBytes)},
        {"persist.checkpoint_s", layer["persist.checkpoint_s"]},
        {"persist.checkpoint_bytes", d(c_.checkpointBytes)},
        {"persist.checkpoints", d(c_.checkpoints)},
        {"persist.fingerprint_s", layer["persist.fingerprint_s"]},
        {"persist.recover_s", layer["persist.recover_s"]},
        {"persist.defects", d(c_.defects)},
        {"respond.observe_s", layer["respond.observe_s"]},
        {"respond.actions",
         d(result.orchestrator ? result.orchestrator->actions().size()
                               : 0)},
        {"respond.suppressed",
         d(result.orchestrator ? result.orchestrator->suppressed() : 0)},
        {"respond.probe_s", layer["respond.probe_s"]},
        {"respond.probes", d(c_.probes)},
        {"trace.core_s", total},
        {"trace.unattributed_s", total - attributed},
    };
    out.spans = t_.take();
    return out;
}

} // namespace

TracedPass
runTracedPass(const Workload& workload, const FleetAuditReport& untraced)
{
    TracedPass pass = TracedRun(workload).run(untraced.shardsUsed);
    std::size_t highWater = 0;
    for (const ShardStats& shard : untraced.shards)
        highWater = std::max(highWater, shard.queueHighWater);
    pass.metrics.emplace_back("fleet.queue_high_water",
                              static_cast<double>(highWater));
    return pass;
}

void
writeSpans(const std::vector<Span>& spans, const std::string& path)
{
    const std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write spans to " + path);
    std::fprintf(f, "name\tstart_s\tend_s\tparent\ttenant\n");
    for (const Span& s : spans)
        std::fprintf(f, "%s\t%.9f\t%.9f\t%d\t%lld\n", s.name.c_str(),
                     s.start, s.end, s.parent,
                     static_cast<long long>(s.tenant));
    std::fclose(f);
}

} // namespace fleetbench
