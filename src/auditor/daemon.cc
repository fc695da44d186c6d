#include "auditor/daemon.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/logging.hh"

namespace cchunter
{

double
PipelineStats::latencyMeanUs() const
{
    return analysesRun == 0
               ? 0.0
               : latencyTotalUs / static_cast<double>(analysesRun);
}

void
PipelineStats::accumulate(const PipelineStats& other)
{
    drainedHistograms += other.drainedHistograms;
    drainedConflicts += other.drainedConflicts;
    evictedQuanta += other.evictedQuanta;
    evictedConflicts += other.evictedConflicts;
    if (other.analysesRun != 0) {
        latencyMinUs = analysesRun == 0
                           ? other.latencyMinUs
                           : std::min(latencyMinUs, other.latencyMinUs);
        latencyMaxUs = std::max(latencyMaxUs, other.latencyMaxUs);
    }
    analysesRun += other.analysesRun;
    latencyTotalUs += other.latencyTotalUs;
}

std::string
PipelineStats::summary() const
{
    std::ostringstream os;
    os << "drained " << drainedHistograms << " hist / "
       << drainedConflicts << " conflicts, evicted " << evictedQuanta
       << " quanta / " << evictedConflicts << " conflicts, analyses "
       << analysesRun;
    return os.str();
}

std::vector<StatEntry>
pipelineStatEntries(const PipelineStats& s, const std::string& prefix)
{
    std::vector<StatEntry> out;
    auto add = [&](const char* name, double value, const char* desc) {
        out.push_back(StatEntry{prefix + name, value, desc});
    };
    add("drained_histograms",
        static_cast<double>(s.drainedHistograms),
        "quantum histogram snapshots drained");
    add("drained_conflicts", static_cast<double>(s.drainedConflicts),
        "conflict records drained from vector registers");
    add("evicted_quanta", static_cast<double>(s.evictedQuanta),
        "histograms aged out of retention windows");
    add("evicted_conflicts", static_cast<double>(s.evictedConflicts),
        "conflict records aged out of retention windows");
    add("analyses_run", static_cast<double>(s.analysesRun),
        "online analysis passes completed");
    add("latency_min_us", s.latencyMinUs,
        "fastest analysis pass");
    add("latency_mean_us", s.latencyMeanUs(),
        "mean analysis pass");
    add("latency_max_us", s.latencyMaxUs,
        "slowest analysis pass");
    return out;
}

void
DegradedStats::accumulate(const DegradedStats& other)
{
    missedQuanta += other.missedQuanta;
    duplicatedQuanta += other.duplicatedQuanta;
    truncatedBatches += other.truncatedBatches;
    truncatedEvents += other.truncatedEvents;
    reorderedBatches += other.reorderedBatches;
    corruptedContexts += other.corruptedContexts;
    bloomAliases += other.bloomAliases;
    saturatedBinEvents += other.saturatedBinEvents;
    accumulatorSaturations += other.accumulatorSaturations;
    unmergeUnderflows += other.unmergeUnderflows;
    degradedAlarms += other.degradedAlarms;
    minAlarmConfidence =
        std::min(minAlarmConfidence, other.minAlarmConfidence);
    windowCoverage = std::min(windowCoverage, other.windowCoverage);
}

std::uint64_t
DegradedStats::totalFaults() const
{
    return missedQuanta + duplicatedQuanta + truncatedBatches +
           reorderedBatches + corruptedContexts + bloomAliases +
           saturatedBinEvents + accumulatorSaturations +
           unmergeUnderflows;
}

std::string
DegradedStats::summary() const
{
    std::ostringstream os;
    os << "missed " << missedQuanta << " quanta (coverage ";
    os.precision(3);
    os << std::fixed << windowCoverage << "), duplicated "
       << duplicatedQuanta << ", truncated " << truncatedBatches
       << " batches (" << truncatedEvents << " events), reordered "
       << reorderedBatches << ", corrupt contexts "
       << corruptedContexts << ", bloom aliases " << bloomAliases
       << ", saturated bins " << saturatedBinEvents
       << ", degraded alarms " << degradedAlarms << " (min confidence "
       << minAlarmConfidence << ')';
    return os.str();
}

std::vector<StatEntry>
degradedStatEntries(const DegradedStats& s, const std::string& prefix)
{
    std::vector<StatEntry> out;
    auto add = [&](const char* name, double value, const char* desc) {
        out.push_back(StatEntry{prefix + name, value, desc});
    };
    add("missed_quanta", static_cast<double>(s.missedQuanta),
        "quantum boundaries the daemon never attended");
    add("duplicated_quanta", static_cast<double>(s.duplicatedQuanta),
        "quantum snapshots recorded twice");
    add("truncated_batches", static_cast<double>(s.truncatedBatches),
        "conflict-event batches that lost their tail");
    add("truncated_events", static_cast<double>(s.truncatedEvents),
        "conflict events lost to batch truncation");
    add("reordered_batches", static_cast<double>(s.reorderedBatches),
        "conflict-event batches delivered out of order");
    add("corrupted_contexts", static_cast<double>(s.corruptedContexts),
        "conflict events with corrupted context IDs");
    add("bloom_aliases", static_cast<double>(s.bloomAliases),
        "forced Bloom-filter false positives");
    add("saturated_bin_events",
        static_cast<double>(s.saturatedBinEvents),
        "histogram bins clamped at the 16-bit entry width");
    add("accumulator_saturations",
        static_cast<double>(s.accumulatorSaturations),
        "event increments lost to 16-bit accumulator ceilings");
    add("unmerge_underflows",
        static_cast<double>(s.unmergeUnderflows),
        "merged-window bins clamped at zero on eviction");
    add("degraded_alarms", static_cast<double>(s.degradedAlarms),
        "alarms raised with confidence below 1");
    add("min_alarm_confidence", s.minAlarmConfidence,
        "weakest confidence among raised alarms");
    add("window_coverage", s.windowCoverage,
        "attended fraction of the retained quanta");
    return out;
}

const char*
alarmKindName(AlarmKind kind)
{
    switch (kind) {
    case AlarmKind::Contention:
        return "contention";
    case AlarmKind::Oscillation:
        return "oscillation";
    }
    return "?";
}

std::uint64_t
Alarm::channelSignature() const
{
    // Layout (high to low): unit kind byte, analysis-path byte, then
    // the dominant feature in the low 48 bits.  Burst-peak bins are
    // bounded by the 128-entry histogram and autocorrelation lags by
    // OscillationParams::maxLag, so 48 bits never truncate in
    // practice; masking keeps the packing well-defined regardless.
    return (static_cast<std::uint64_t>(unit) << 56) |
           (static_cast<std::uint64_t>(kind) << 48) |
           (dominantFeature & ((std::uint64_t{1} << 48) - 1));
}

AuditDaemon::AuditDaemon(Machine& machine, CCAuditor& auditor,
                         DaemonRetention retention)
    : machine_(machine), auditor_(auditor), retention_(retention)
{
    if (retention_.contentionQuanta == 0)
        fatal("AuditDaemon: contention retention must be > 0");
    if (retention_.conflictRecords == 0)
        fatal("AuditDaemon: conflict-record retention must be > 0");
    slots_.resize(auditor_.numSlots());
    for (auto& st : slots_) {
        st.window.setCapacity(retention_.contentionQuanta);
        st.records.setCapacity(retention_.conflictRecords);
    }
    presence_.setCapacity(retention_.contentionQuanta);
    machine_.scheduler().addQuantumObserver(
        [this](std::uint64_t q, Tick now) { onQuantum(q, now); });
    for (unsigned s = 0; s < auditor_.numSlots(); ++s)
        wireCacheSlot(s);
}

namespace
{

double
labelOf(const ConflictRecord& r)
{
    return r.replacerPid != invalidProcess &&
                   r.victimPid != invalidProcess &&
                   r.replacerPid < r.victimPid
               ? 1.0
               : 0.0;
}

} // namespace

void
AuditDaemon::wireCacheSlot(unsigned slot)
{
    auto* vr = auditor_.vectorRegisters(slot);
    if (!vr)
        return;
    vr->setDrainCallback(
        [this, slot](const std::vector<ConflictMissEvent>& evs) {
            if (injector_ && injector_->conflictPathActive()) {
                // Mutate a copy at the hardware/daemon boundary — the
                // vector registers themselves are not ours to edit.
                std::vector<ConflictMissEvent> mutated(evs);
                const ConflictBatchMutation m =
                    injector_->mutateConflictBatch(mutated);
                SlotState& st = slots_[slot];
                st.conflictsTruncated += m.truncatedEvents;
                st.conflictsCorrupted += m.corruptedContexts;
                if (m.truncated)
                    ++degraded_.truncatedBatches;
                degraded_.truncatedEvents += m.truncatedEvents;
                if (m.reordered)
                    ++degraded_.reorderedBatches;
                degraded_.corruptedContexts += m.corruptedContexts;
                ingestConflicts(slot, mutated);
            } else {
                ingestConflicts(slot, evs);
            }
        });
    if (injector_ && injector_->plan().bloomAliasRate > 0.0) {
        if (auto* tracker = auditor_.tracker(slot))
            tracker->setAliasHook(
                [this] { return injector_->aliasBloom(); });
    }
}

void
AuditDaemon::ingestConflicts(unsigned slot,
                             const std::vector<ConflictMissEvent>& evs)
{
    SlotState& st = slots_[slot];
    st.conflictsIngested += evs.size();
    for (const auto& ev : evs) {
        ConflictRecord rec;
        rec.time = ev.time;
        rec.replacerContext = ev.replacer;
        rec.victimContext = ev.victim;
        rec.quantum = currentQuantum_;
        if (ev.replacer != invalidContext &&
            ev.replacer < machine_.numContexts()) {
            if (Process* p = machine_.runningOn(ev.replacer))
                rec.replacerPid = p->pid();
        }
        if (ev.victim != invalidContext &&
            ev.victim < machine_.numContexts()) {
            if (Process* p = machine_.runningOn(ev.victim))
                rec.victimPid = p->pid();
        }
        // Maintain the label series as records arrive so the
        // per-quantum analysis never rescans the full log.
        st.quantumLabels.push_back(labelOf(rec));
        st.records.push(rec);
    }
    stats_.drainedConflicts += evs.size();
}

void
AuditDaemon::attachFaultInjector(FaultInjector* injector)
{
    injector_ = injector;
    // Re-wire every cache slot so the drain callbacks and alias hooks
    // see the injector (idempotent; onQuantum re-wires too).
    for (unsigned s = 0; s < auditor_.numSlots(); ++s)
        wireCacheSlot(s);
}

void
AuditDaemon::onQuantum(std::uint64_t quantum_index, Tick now)
{
    if (injector_ && injector_->dropQuantum()) {
        // The daemon was preempted past this quantum boundary:
        // nothing is drained or analysed.  The hardware keeps
        // accumulating, so the next attended snapshot covers the gap;
        // drained-but-unconsumed labels likewise carry over.  The
        // presence ring records the hole so analyses can report
        // effective (not nominal) coverage.
        presence_.push(0);
        ++degraded_.missedQuanta;
        currentQuantum_ = quantum_index + 1;
        ++quanta_;
        return;
    }
    presence_.push(1);
    const bool duplicate =
        injector_ && injector_->duplicateQuantum();
    for (unsigned s = 0; s < auditor_.numSlots(); ++s) {
        if (!auditor_.slotActive(s))
            continue;
        // Slots may have been (re)programmed since construction; keep
        // the drain callback wired (idempotent).
        wireCacheSlot(s);
        if (auto* hb = auditor_.histogramBuffer(s)) {
            Histogram h = hb->snapshotAndReset(now);
            SlotState& st = slots_[s];
            const std::size_t saturated = h.saturatedBins();
            if (!st.mergedInit) {
                st.merged = Histogram(h.numBins());
                st.mergedInit = true;
            }
            st.merged.merge(h);
            if (duplicate) {
                // A double wakeup replays the drain: the same
                // snapshot enters the window (and the merged sum)
                // twice.
                st.merged.merge(h);
                if (auto evicted = st.window.push(Histogram(h)))
                    st.merged.unmerge(*evicted);
            }
            if (auto evicted = st.window.push(std::move(h)))
                st.merged.unmerge(*evicted);
            ++stats_.drainedHistograms;
            degraded_.saturatedBinEvents += saturated;
        }
        if (auto* vr = auditor_.vectorRegisters(s))
            vr->flush();
    }
    if (duplicate)
        ++degraded_.duplicatedQuanta;
    if (online_)
        dispatchAnalyses(quantum_index, now);
    // The per-quantum label buffers only live for the quantum they
    // were drained in.
    for (auto& st : slots_)
        st.quantumLabels.clear();
    currentQuantum_ = quantum_index + 1;
    ++quanta_;
}

void
AuditDaemon::enableOnlineAnalysis(OnlineAnalysisParams params,
                                  AlarmCallback callback)
{
    if (params.clusteringIntervalQuanta == 0)
        fatal("enableOnlineAnalysis: clustering interval must be > 0");
    online_ = true;
    onlineParams_ = params;
    alarmCallback_ = std::move(callback);
    if (onlineParams_.analysisThreads != 1)
        pool_ = std::make_unique<ThreadPool>(
            onlineParams_.analysisThreads);
    else
        pool_.reset();
    setContentionRetention(params.retentionQuanta != 0
                               ? params.retentionQuanta
                               : params.clusteringIntervalQuanta);
}

void
AuditDaemon::setContentionRetention(std::size_t quanta)
{
    retention_.contentionQuanta = quanta;
    for (auto& st : slots_) {
        // Shrinking evicts the oldest histograms; keep the merged sum
        // consistent by subtracting them out before they go.
        while (st.window.size() > quanta) {
            auto evicted = st.window.popFront();
            if (st.mergedInit)
                st.merged.unmerge(*evicted);
        }
        st.window.setCapacity(quanta);
    }
    // The presence ring measures scheduler attendance over the run's
    // recent history for coverage reporting; it only ever grows so a
    // tight clustering interval cannot blind windowCoverage() to drops
    // that happened a few quanta ago.
    if (quanta > presence_.capacity())
        presence_.setCapacity(quanta);
}

void
AuditDaemon::dispatchAnalyses(std::uint64_t quantum_index, Tick now)
{
    const bool clusteringDue =
        (quantum_index + 1) % onlineParams_.clusteringIntervalQuanta ==
        0;

    AnalysisBatch batch;
    batch.quantum = quantum_index;
    batch.now = now;
    for (unsigned s = 0; s < auditor_.numSlots(); ++s) {
        if (!auditor_.slotActive(s))
            continue;
        SlotWork sv;
        sv.slot = s;
        sv.hasContention =
            auditor_.histogramBuffer(s) != nullptr && clusteringDue;
        sv.hasOscillation = auditor_.vectorRegisters(s) != nullptr;
        if (!sv.hasContention && !sv.hasOscillation)
            continue;
        batch.work.push_back(std::move(sv));
    }
    if (batch.work.empty())
        return;

    const auto t0 = std::chrono::steady_clock::now();
    analyzeBatch(batch);
    applyVerdicts(batch);
    const auto t1 = std::chrono::steady_clock::now();
    recordAnalysisLatency(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
}

void
AuditDaemon::analyzeBatch(AnalysisBatch& batch)
{
    // Contention makes the end-of-run per-slot call, so an alarm and a
    // final verdict over the same window agree; oscillation reads the
    // labels drained this quantum.  The pool only fans out across
    // slots, not within one.
    auto analyzeOne = [&](std::size_t i) {
        SlotWork& sv = batch.work[i];
        if (sv.hasContention)
            sv.contention =
                analyzeContention(sv.slot, onlineParams_.hunter);
        if (sv.hasOscillation)
            sv.oscillation = CCHunter(onlineParams_.hunter)
                                 .analyzeOscillation(
                                     slots_[sv.slot].quantumLabels);
    };
    if (pool_ && batch.work.size() > 1) {
        pool_->parallelFor(batch.work.size(), analyzeOne);
    } else {
        for (std::size_t i = 0; i < batch.work.size(); ++i)
            analyzeOne(i);
    }
}

void
AuditDaemon::applyVerdicts(AnalysisBatch& batch)
{
    // Apply verdicts in slot order, contention before oscillation, so
    // the alarm stream does not depend on the analysisThreads fan-out.
    auto raise = [&](const SlotWork& sv, AlarmKind kind,
                     std::string summary, double confidence,
                     std::uint64_t dominant) {
        Alarm alarm{sv.slot,    batch.now,  batch.quantum,
                    std::move(summary),     confidence,
                    auditor_.slotTarget(sv.slot), kind, dominant};
        alarms_.push_back(alarm);
        if (confidence < 1.0) {
            ++degraded_.degradedAlarms;
            degraded_.minAlarmConfidence =
                std::min(degraded_.minAlarmConfidence, confidence);
        }
        if (alarmCallback_)
            alarmCallback_(alarms_.back());
    };
    for (const auto& sv : batch.work) {
        if (sv.hasContention && sv.contention.detected)
            raise(sv, AlarmKind::Contention, sv.contention.summary(),
                  contentionConfidence(sv.slot, sv.contention),
                  sv.contention.combined.burstPeakBin);
        if (sv.hasOscillation && sv.oscillation.detected)
            raise(sv, AlarmKind::Oscillation,
                  sv.oscillation.summary(),
                  oscillationConfidence(sv.slot),
                  sv.oscillation.analysis.dominantLag);
    }
}

void
AuditDaemon::recordAnalysisLatency(double micros)
{
    stats_.latencyMinUs = stats_.analysesRun == 0
                              ? micros
                              : std::min(stats_.latencyMinUs, micros);
    stats_.latencyMaxUs = std::max(stats_.latencyMaxUs, micros);
    stats_.latencyTotalUs += micros;
    ++stats_.analysesRun;
}

PipelineStats
AuditDaemon::pipelineStats() const
{
    PipelineStats out = stats_;
    for (const auto& st : slots_) {
        out.evictedQuanta += st.window.evictions();
        out.evictedConflicts += st.records.evictions();
    }
    return out;
}

double
AuditDaemon::windowCoverage() const
{
    if (presence_.size() == 0)
        return 1.0;
    std::uint64_t attended = 0;
    for (const std::uint8_t p : presence_)
        attended += p;
    return static_cast<double>(attended) /
           static_cast<double>(presence_.size());
}

double
AuditDaemon::conflictIntegrity(unsigned slot) const
{
    if (slot >= slots_.size())
        fatal("AuditDaemon: bad slot");
    const SlotState& st = slots_[slot];
    std::uint64_t aliases = 0;
    if (const ConflictMissTracker* t = auditor_.tracker(slot))
        aliases = t->forcedAliases();
    const std::uint64_t lost =
        st.conflictsTruncated + st.conflictsCorrupted + aliases;
    const std::uint64_t basis =
        st.conflictsIngested + st.conflictsTruncated;
    if (basis == 0 || lost == 0)
        return 1.0;
    const double integrity =
        1.0 - static_cast<double>(lost) / static_cast<double>(basis);
    return std::max(0.0, std::min(1.0, integrity));
}

double
AuditDaemon::contentionConfidence(unsigned slot,
                                  const ContentionVerdict& verdict)
    const
{
    const SlotState& st = slotState(slot);
    double satFraction = 0.0;
    if (st.window.size() != 0) {
        const std::size_t bins = st.window[0].numBins();
        if (bins != 0)
            satFraction =
                static_cast<double>(verdict.combined.saturatedBins) /
                static_cast<double>(bins);
    }
    const double c = windowCoverage() * (1.0 - satFraction);
    return std::max(0.0, std::min(1.0, c));
}

double
AuditDaemon::oscillationConfidence(unsigned slot) const
{
    const double c = windowCoverage() * conflictIntegrity(slot);
    return std::max(0.0, std::min(1.0, c));
}

DegradedStats
AuditDaemon::degradedStats() const
{
    DegradedStats out = degraded_;
    // Component-held counters are read live rather than mirrored on
    // every event; the daemon's own ledger only carries what the
    // components cannot see (quanta, batches, alarms).
    for (unsigned s = 0; s < auditor_.numSlots(); ++s) {
        if (s < slots_.size())
            out.unmergeUnderflows +=
                slots_[s].merged.unmergeUnderflows();
        if (const ConflictMissTracker* t = auditor_.tracker(s))
            out.bloomAliases += t->forcedAliases();
        if (const HistogramBuffer* hb = auditor_.histogramBuffer(s))
            out.accumulatorSaturations +=
                hb->accumulatorSaturations();
    }
    out.windowCoverage = windowCoverage();
    return out;
}

const std::vector<Alarm>&
AuditDaemon::alarms() const
{
    return alarms_;
}

std::uint64_t
AuditDaemon::firstAlarmQuantum(unsigned slot) const
{
    for (const auto& a : alarms_)
        if (a.slot == slot)
            return a.quantum;
    return SIZE_MAX;
}

const AuditDaemon::SlotState&
AuditDaemon::slotState(unsigned slot) const
{
    if (slot >= slots_.size())
        fatal("AuditDaemon: bad slot");
    return slots_[slot];
}

std::vector<Histogram>
AuditDaemon::contentionQuanta(unsigned slot) const
{
    return slotState(slot).window.toVector();
}

const RingBuffer<Histogram>&
AuditDaemon::contentionWindow(unsigned slot) const
{
    return slotState(slot).window;
}

std::vector<ConflictRecord>
AuditDaemon::conflictRecords(unsigned slot) const
{
    return slotState(slot).records.toVector();
}

const RingBuffer<ConflictRecord>&
AuditDaemon::conflictWindow(unsigned slot) const
{
    return slotState(slot).records;
}

std::uint64_t
AuditDaemon::evictedQuanta(unsigned slot) const
{
    return slotState(slot).window.evictions();
}

std::uint64_t
AuditDaemon::evictedConflicts(unsigned slot) const
{
    return slotState(slot).records.evictions();
}

std::vector<double>
AuditDaemon::labelSeries(unsigned slot) const
{
    const auto& recs = slotState(slot).records;
    std::vector<double> out;
    out.reserve(recs.size());
    for (const auto& r : recs)
        out.push_back(labelOf(r));
    return out;
}

ContentionVerdict
AuditDaemon::analyzeContention(unsigned slot, CCHunterParams params)
    const
{
    const SlotState& st = slotState(slot);
    std::vector<const Histogram*> view;
    view.reserve(st.window.size());
    for (const Histogram& h : st.window)
        view.push_back(&h);
    CCHunter hunter(params);
    return hunter.analyzeContention(view,
                                    st.mergedInit ? &st.merged : nullptr);
}

OscillationVerdict
AuditDaemon::analyzeOscillation(unsigned slot, CCHunterParams params)
    const
{
    CCHunter hunter(params);
    return hunter.analyzeOscillation(labelSeries(slot));
}

} // namespace cchunter
