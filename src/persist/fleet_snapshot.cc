#include "persist/fleet_snapshot.hh"

#include <sstream>

#include "scenario/experiment.hh"
#include "units/unit_registry.hh"

namespace cchunter::persist
{

namespace
{

void
putPipeline(ByteWriter& w, const PipelineStats& p)
{
    w.u64(p.drainedHistograms);
    w.u64(p.drainedConflicts);
    w.u64(p.evictedQuanta);
    w.u64(p.evictedConflicts);
    w.u64(p.analysesRun);
    w.f64(p.latencyMinUs);
    w.f64(p.latencyMaxUs);
    w.f64(p.latencyTotalUs);
}

void
getPipeline(ByteReader& r, PipelineStats& p)
{
    p.drainedHistograms = r.u64();
    p.drainedConflicts = r.u64();
    p.evictedQuanta = r.u64();
    p.evictedConflicts = r.u64();
    p.analysesRun = r.u64();
    p.latencyMinUs = r.f64();
    p.latencyMaxUs = r.f64();
    p.latencyTotalUs = r.f64();
}

void
putDegraded(ByteWriter& w, const DegradedStats& d)
{
    w.u64(d.missedQuanta);
    w.u64(d.duplicatedQuanta);
    w.u64(d.truncatedBatches);
    w.u64(d.truncatedEvents);
    w.u64(d.reorderedBatches);
    w.u64(d.corruptedContexts);
    w.u64(d.bloomAliases);
    w.u64(d.saturatedBinEvents);
    w.u64(d.accumulatorSaturations);
    w.u64(d.unmergeUnderflows);
    w.u64(d.degradedAlarms);
    w.f64(d.minAlarmConfidence);
    w.f64(d.windowCoverage);
}

void
getDegraded(ByteReader& r, DegradedStats& d)
{
    d.missedQuanta = r.u64();
    d.duplicatedQuanta = r.u64();
    d.truncatedBatches = r.u64();
    d.truncatedEvents = r.u64();
    d.reorderedBatches = r.u64();
    d.corruptedContexts = r.u64();
    d.bloomAliases = r.u64();
    d.saturatedBinEvents = r.u64();
    d.accumulatorSaturations = r.u64();
    d.unmergeUnderflows = r.u64();
    d.degradedAlarms = r.u64();
    d.minAlarmConfidence = r.f64();
    d.windowCoverage = r.f64();
}

void
putAlarm(ByteWriter& w, const Alarm& a)
{
    w.u32(a.slot);
    w.u64(a.when);
    w.u64(a.quantum);
    w.str(a.summary);
    w.f64(a.confidence);
    w.u8(static_cast<std::uint8_t>(a.unit));
    w.u8(static_cast<std::uint8_t>(a.kind));
    w.u64(a.dominantFeature);
}

void
getAlarm(ByteReader& r, Alarm& a)
{
    a.slot = r.u32();
    a.when = r.u64();
    a.quantum = r.u64();
    a.summary = r.str();
    a.confidence = r.f64();
    a.unit = static_cast<MonitorTarget>(r.u8());
    a.kind = static_cast<AlarmKind>(r.u8());
    a.dominantFeature = r.u64();
}

void
putIncident(ByteWriter& w, const Incident& i)
{
    w.u64(i.id);
    w.u8(i.fleetWide ? 1 : 0);
    w.u32(i.tenant);
    w.u32(i.slot);
    w.u8(static_cast<std::uint8_t>(i.unit));
    w.u8(static_cast<std::uint8_t>(i.kind));
    w.u64(i.signature);
    w.u64(i.firstQuantum);
    w.u64(i.lastQuantum);
    w.u64(i.occurrences);
    w.f64(i.meanConfidence);
    w.f64(i.minConfidence);
    w.f64(i.score);
    w.u8(static_cast<std::uint8_t>(i.severity));
    w.u8(i.correlated ? 1 : 0);
    w.u64(i.correlatedTenants.size());
    for (const TenantId t : i.correlatedTenants)
        w.u32(t);
}

void
getIncident(ByteReader& r, Incident& i)
{
    i.id = r.u64();
    i.fleetWide = r.u8() != 0;
    i.tenant = r.u32();
    i.slot = r.u32();
    i.unit = static_cast<MonitorTarget>(r.u8());
    i.kind = static_cast<AlarmKind>(r.u8());
    i.signature = r.u64();
    i.firstQuantum = r.u64();
    i.lastQuantum = r.u64();
    i.occurrences = r.u64();
    i.meanConfidence = r.f64();
    i.minConfidence = r.f64();
    i.score = r.f64();
    i.severity = static_cast<IncidentSeverity>(r.u8());
    i.correlated = r.u8() != 0;
    const std::uint64_t tenants = r.u64();
    i.correlatedTenants.clear();
    for (std::uint64_t t = 0; t < tenants && !r.bad(); ++t)
        i.correlatedTenants.push_back(r.u32());
}

void
putPairState(ByteWriter& w, const ResponsePairState& s)
{
    w.u32(s.tenant);
    w.u8(static_cast<std::uint8_t>(s.unit));
    w.u8(static_cast<std::uint8_t>(s.level));
    w.u64(s.incidentsAtLevel);
    w.u64(s.lastActivityEpoch);
}

void
getPairState(ByteReader& r, ResponsePairState& s)
{
    s.tenant = r.u32();
    s.unit = static_cast<MonitorTarget>(r.u8());
    s.level = static_cast<ResponseLevel>(r.u8());
    s.incidentsAtLevel = r.u64();
    s.lastActivityEpoch = r.u64();
}

void
putResponseAction(ByteWriter& w, const ResponseAction& a)
{
    w.u64(a.id);
    w.u64(a.epoch);
    w.u32(a.tenant);
    w.u8(static_cast<std::uint8_t>(a.unit));
    w.u8(static_cast<std::uint8_t>(a.kind));
    w.u8(static_cast<std::uint8_t>(a.from));
    w.u8(static_cast<std::uint8_t>(a.to));
    w.u8(a.ttl ? 1 : 0);
    w.u64(a.incidentId);
}

void
getResponseAction(ByteReader& r, ResponseAction& a)
{
    a.id = r.u64();
    a.epoch = r.u64();
    a.tenant = r.u32();
    a.unit = static_cast<MonitorTarget>(r.u8());
    a.kind = static_cast<ResponseActionKind>(r.u8());
    a.from = static_cast<ResponseLevel>(r.u8());
    a.to = static_cast<ResponseLevel>(r.u8());
    a.ttl = r.u8() != 0;
    a.incidentId = r.u64();
}

} // namespace

std::vector<std::uint8_t>
encodeResponseState(const ResponseOrchestratorState& state)
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(RecordKind::ResponseState));
    w.u64(state.suppressed);
    w.u64(state.epoch);
    w.u64(state.nextActionId);
    w.u64(state.states.size());
    for (const ResponsePairState& s : state.states)
        putPairState(w, s);
    w.u64(state.actions.size());
    for (const ResponseAction& a : state.actions)
        putResponseAction(w, a);
    return w.take();
}

bool
decodeResponseState(const std::vector<std::uint8_t>& payload,
                    ResponseOrchestratorState& out)
{
    ByteReader r(payload);
    if (r.u8() != static_cast<std::uint8_t>(RecordKind::ResponseState))
        return false;
    out = ResponseOrchestratorState{};
    out.suppressed = r.u64();
    out.epoch = r.u64();
    out.nextActionId = r.u64();
    const std::uint64_t states = r.u64();
    for (std::uint64_t s = 0; s < states && !r.bad(); ++s) {
        ResponsePairState state;
        getPairState(r, state);
        out.states.push_back(state);
    }
    if (out.states.size() != states)
        return false;
    const std::uint64_t actions = r.u64();
    for (std::uint64_t a = 0; a < actions && !r.bad(); ++a) {
        ResponseAction action;
        getResponseAction(r, action);
        out.actions.push_back(action);
    }
    return r.exhausted() && out.actions.size() == actions;
}

std::vector<std::uint8_t>
encodeTenantBatch(const TenantAlarmBatch& batch)
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(RecordKind::TenantBatch));
    w.u32(batch.tenant);
    w.u64(batch.shard);
    w.u64(batch.quantaRecorded);
    w.u64(batch.offlineDetectedUnits);
    putPipeline(w, batch.pipeline);
    putDegraded(w, batch.degraded);
    w.u64(batch.alarms.size());
    for (const Alarm& alarm : batch.alarms)
        putAlarm(w, alarm);
    return w.take();
}

bool
decodeTenantBatch(const std::vector<std::uint8_t>& payload,
                  TenantAlarmBatch& out)
{
    ByteReader r(payload);
    if (r.u8() != static_cast<std::uint8_t>(RecordKind::TenantBatch))
        return false;
    out = TenantAlarmBatch{};
    out.tenant = r.u32();
    out.shard = static_cast<std::size_t>(r.u64());
    out.quantaRecorded = r.u64();
    out.offlineDetectedUnits = r.u64();
    getPipeline(r, out.pipeline);
    getDegraded(r, out.degraded);
    const std::uint64_t alarms = r.u64();
    for (std::uint64_t a = 0; a < alarms && !r.bad(); ++a) {
        Alarm alarm;
        getAlarm(r, alarm);
        out.alarms.push_back(std::move(alarm));
    }
    return r.exhausted() && out.alarms.size() == alarms;
}

std::vector<std::uint8_t>
encodeIncidentStore(const IncidentStore& store,
                    const IncidentRateLimit& limit)
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(RecordKind::IncidentStore));
    w.u64(limit.maxPerTenant);
    w.u64(limit.maxTotal);
    w.u64(store.suppressed());
    w.u64(store.incidents().size());
    for (const Incident& incident : store.incidents())
        putIncident(w, incident);
    return w.take();
}

bool
decodeIncidentStore(const std::vector<std::uint8_t>& payload,
                    IncidentStore& out)
{
    ByteReader r(payload);
    if (r.u8() != static_cast<std::uint8_t>(RecordKind::IncidentStore))
        return false;
    IncidentRateLimit limit;
    limit.maxPerTenant = static_cast<std::size_t>(r.u64());
    limit.maxTotal = static_cast<std::size_t>(r.u64());
    const std::uint64_t suppressed = r.u64();
    const std::uint64_t count = r.u64();
    std::vector<Incident> incidents;
    for (std::uint64_t i = 0; i < count && !r.bad(); ++i) {
        Incident incident;
        getIncident(r, incident);
        incidents.push_back(std::move(incident));
    }
    if (!r.exhausted() || incidents.size() != count)
        return false;
    out = IncidentStore::restored(limit, std::move(incidents),
                                  suppressed);
    return true;
}

std::vector<std::uint8_t>
encodeMeta(std::uint64_t fingerprint, bool finalized,
           std::uint64_t batchCount)
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(RecordKind::Meta));
    w.u64(fingerprint);
    w.u8(finalized ? 1 : 0);
    w.u64(batchCount);
    return w.take();
}

bool
decodeMeta(const std::vector<std::uint8_t>& payload,
           std::uint64_t& fingerprint, std::uint64_t& batchCount,
           bool& finalized)
{
    ByteReader r(payload);
    if (r.u8() != static_cast<std::uint8_t>(RecordKind::Meta))
        return false;
    fingerprint = r.u64();
    finalized = r.u8() != 0;
    batchCount = r.u64();
    return r.exhausted();
}

std::span<const std::uint8_t>
FramedBatches::add(const TenantAlarmBatch& batch)
{
    const std::size_t begin = bytes_.size();
    appendFramedRecord(bytes_, encodeTenantBatch(batch));
    ends_.push_back(bytes_.size());
    return std::span<const std::uint8_t>(bytes_).subspan(begin);
}

std::span<const std::uint8_t>
FramedBatches::frame(std::size_t i) const
{
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::span<const std::uint8_t>(bytes_).subspan(
        begin, ends_[i] - begin);
}

std::vector<std::uint8_t>
encodeFleetCheckpoint(std::uint64_t registryFingerprint, bool finalized,
                      const FramedBatches& batches,
                      const IncidentStore* incidents,
                      const ResponseOrchestratorState* respond,
                      const IncidentRateLimit& limit)
{
    std::vector<std::uint8_t> bytes = encodeRecordFileHeader();
    appendFramedRecord(bytes, encodeMeta(registryFingerprint, finalized,
                                         batches.size()));
    bytes.insert(bytes.end(), batches.bytes().begin(),
                 batches.bytes().end());
    if (incidents)
        appendFramedRecord(bytes, encodeIncidentStore(*incidents, limit));
    if (respond)
        appendFramedRecord(bytes, encodeResponseState(*respond));
    return bytes;
}

std::vector<std::uint8_t>
encodeFleetCheckpoint(const FleetCheckpoint& checkpoint,
                      const IncidentRateLimit& limit)
{
    FramedBatches batches;
    for (const TenantAlarmBatch& batch : checkpoint.batches)
        batches.add(batch);
    return encodeFleetCheckpoint(
        checkpoint.registryFingerprint, checkpoint.finalized, batches,
        checkpoint.incidents ? &*checkpoint.incidents : nullptr,
        checkpoint.respond ? &*checkpoint.respond : nullptr, limit);
}

bool
decodeFleetCheckpoint(const RecordFileContents& contents,
                      FleetCheckpoint& out)
{
    out = FleetCheckpoint{};
    if (contents.records.empty())
        return false;

    std::uint64_t batchCount = 0;
    if (!decodeMeta(contents.records.front(), out.registryFingerprint,
                    batchCount, out.finalized))
        return false;

    for (std::size_t i = 1; i < contents.records.size(); ++i) {
        const auto& payload = contents.records[i];
        if (payload.empty())
            return false;
        const auto kind = static_cast<RecordKind>(payload.front());
        if (kind == RecordKind::TenantBatch) {
            TenantAlarmBatch batch;
            if (!decodeTenantBatch(payload, batch))
                return false;
            out.batches.push_back(std::move(batch));
        } else if (kind == RecordKind::IncidentStore) {
            IncidentStore store;
            if (!decodeIncidentStore(payload, store))
                return false;
            out.incidents = std::move(store);
        } else if (kind == RecordKind::ResponseState) {
            ResponseOrchestratorState respond;
            if (!decodeResponseState(payload, respond))
                return false;
            out.respond = std::move(respond);
        } else {
            return false;
        }
    }
    return out.batches.size() == batchCount;
}

std::uint64_t
registryFingerprint(const TenantRegistry& registry)
{
    std::uint64_t hash = fnv1a64("cchunter-fleet-v1");
    for (const TenantConfig& tenant : registry.tenants()) {
        std::ostringstream os;
        os << tenant.id << '\x1f' << tenant.name << '\x1f'
           << auditedWorkloadName(tenant.audit.workload) << '\x1f'
           << tenant.audit.benignA << '\x1f' << tenant.audit.benignB
           << '\x1f'
           << static_cast<int>(tenant.audit.benignUnits) << '\x1f'
           << tenant.audit.online.clusteringIntervalQuanta << '\x1f'
           << tenant.audit.online.analysisThreads << '\x1f'
           << tenant.audit.online.retentionQuanta << '\x1f'
           << scenarioConfig(tenant.audit.scenario).dump();
        hash = fnv1a64(os.str(), hash);
    }
    return hash;
}

} // namespace cchunter::persist
