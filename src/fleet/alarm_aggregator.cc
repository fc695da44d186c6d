#include "fleet/alarm_aggregator.hh"

#include <algorithm>

namespace cchunter
{

AlarmAggregator::AlarmAggregator(AggregatorParams params)
    : params_(params)
{
}

void
AlarmAggregator::ingest(TenantAlarmBatch batch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++batches_;
    alarmsSeen_ += batch.alarms.size();
    pipeline_.accumulate(batch.pipeline);
    degraded_.accumulate(batch.degraded);
    auto& alarms = alarmsByTenant_[batch.tenant];
    alarms.insert(alarms.end(),
                  std::make_move_iterator(batch.alarms.begin()),
                  std::make_move_iterator(batch.alarms.end()));
}

double
AlarmAggregator::scoreOf(double mean_confidence,
                         std::uint64_t occurrences) const
{
    // A sustained detection (many merged alarms) is worth more than a
    // one-off at the same confidence; saturate at eight occurrences.
    const double sustain =
        std::min(1.0, static_cast<double>(occurrences) / 8.0);
    return mean_confidence * (0.5 + 0.5 * sustain);
}

IncidentSeverity
AlarmAggregator::severityOf(double score) const
{
    if (score >= params_.criticalScore)
        return IncidentSeverity::Critical;
    if (score >= params_.warningScore)
        return IncidentSeverity::Warning;
    return IncidentSeverity::Info;
}

void
AlarmAggregator::finalize(IncidentStore& store)
{
    std::lock_guard<std::mutex> lock(mutex_);

    struct Group
    {
        Incident incident;
        double confidenceSum = 0.0;
    };

    // Per-tenant incidents, in (ascending tenant, first-alarm) order.
    // std::map iteration gives the tenant order; within one tenant the
    // alarm vector is already in the daemon's emission order.
    std::vector<Group> groups;
    for (const auto& [tenant, alarms] : alarmsByTenant_) {
        const std::size_t tenantBegin = groups.size();
        for (const Alarm& alarm : alarms) {
            if (alarm.confidence < params_.minConfidence) {
                ++alarmsFiltered_;
                continue;
            }
            const std::uint64_t sig = alarm.channelSignature();
            Group* open = nullptr;
            for (std::size_t g = tenantBegin; g < groups.size(); ++g) {
                Incident& inc = groups[g].incident;
                if (inc.slot == alarm.slot && inc.signature == sig &&
                    alarm.quantum >=
                        inc.lastQuantum && // daemon emits in order
                    alarm.quantum - inc.lastQuantum <=
                        params_.dedupGapQuanta) {
                    open = &groups[g];
                    break;
                }
            }
            if (open) {
                Incident& inc = open->incident;
                inc.lastQuantum = alarm.quantum;
                ++inc.occurrences;
                open->confidenceSum += alarm.confidence;
                inc.minConfidence =
                    std::min(inc.minConfidence, alarm.confidence);
                continue;
            }
            Group fresh;
            fresh.incident.tenant = tenant;
            fresh.incident.slot = alarm.slot;
            fresh.incident.unit = alarm.unit;
            fresh.incident.kind = alarm.kind;
            fresh.incident.signature = sig;
            fresh.incident.firstQuantum = alarm.quantum;
            fresh.incident.lastQuantum = alarm.quantum;
            fresh.incident.occurrences = 1;
            fresh.incident.minConfidence = alarm.confidence;
            fresh.confidenceSum = alarm.confidence;
            groups.push_back(std::move(fresh));
        }
    }

    for (Group& group : groups) {
        Incident& inc = group.incident;
        inc.meanConfidence =
            group.confidenceSum / static_cast<double>(inc.occurrences);
        inc.score = scoreOf(inc.meanConfidence, inc.occurrences);
    }

    // Cross-tenant correlation: the same channel signature live on
    // several distinct tenants elevates every member and earns a
    // fleet-wide record.
    std::map<std::uint64_t, std::vector<std::size_t>> bySignature;
    for (std::size_t g = 0; g < groups.size(); ++g)
        bySignature[groups[g].incident.signature].push_back(g);

    std::map<std::uint64_t, std::vector<TenantId>> correlated;
    for (const auto& [sig, members] : bySignature) {
        std::vector<TenantId> tenants;
        for (const std::size_t g : members) {
            const TenantId t = groups[g].incident.tenant;
            if (tenants.empty() || tenants.back() != t)
                tenants.push_back(t);
        }
        if (tenants.size() < params_.crossTenantMinTenants)
            continue;
        for (const std::size_t g : members) {
            Incident& inc = groups[g].incident;
            inc.correlated = true;
            inc.score =
                std::min(1.0, inc.score + params_.crossTenantBoost);
        }
        correlated.emplace(sig, std::move(tenants));
    }

    for (Group& group : groups) {
        Incident& inc = group.incident;
        inc.severity = severityOf(inc.score);
        store.emit(std::move(inc));
    }

    // Fleet-wide records, ascending signature (std::map order).
    for (const auto& [sig, tenants] : correlated) {
        const std::vector<std::size_t>& members = bySignature[sig];
        Incident fleet;
        fleet.fleetWide = true;
        fleet.signature = sig;
        fleet.correlated = true;
        fleet.correlatedTenants = tenants;
        fleet.unit = groups[members.front()].incident.unit;
        fleet.kind = groups[members.front()].incident.kind;
        fleet.firstQuantum =
            groups[members.front()].incident.firstQuantum;
        fleet.minConfidence = 1.0;
        double confidenceSum = 0.0;
        for (const std::size_t g : members) {
            const Incident& inc = groups[g].incident;
            fleet.firstQuantum =
                std::min(fleet.firstQuantum, inc.firstQuantum);
            fleet.lastQuantum =
                std::max(fleet.lastQuantum, inc.lastQuantum);
            fleet.occurrences += inc.occurrences;
            fleet.minConfidence =
                std::min(fleet.minConfidence, inc.minConfidence);
            confidenceSum +=
                inc.meanConfidence * static_cast<double>(inc.occurrences);
            fleet.score = std::max(fleet.score, inc.score);
        }
        fleet.meanConfidence =
            confidenceSum / static_cast<double>(fleet.occurrences);
        fleet.severity = severityOf(fleet.score);
        store.emit(std::move(fleet));
    }

    alarmsByTenant_.clear();
}

} // namespace cchunter
