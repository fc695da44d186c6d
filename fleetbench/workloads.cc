#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "cpu_time.hh"
#include "eval/labelled_corpus.hh"
#include "units/unit_registry.hh"

using namespace cchunter;

namespace fleetbench
{

namespace
{

/** Journal every batch, compact every this many (crash-resume and the
 *  restart probe of every workload). */
constexpr std::size_t kCheckpointInterval = 16;

/** Per-tenant incident cap (the store's default). */
constexpr std::size_t kIncidentsPerTenant = 16;

/** Every workload runs on this many shard workers at most (plus one
 *  collector thread per shard), each tenant with one analysis thread. */
constexpr std::size_t kMaxShards = 2;

FleetAuditParams
baseParams(std::size_t shards, std::size_t tenants)
{
    FleetAuditParams p;
    p.shards = shards;
    // The caller runs a shard too, so shards - 1 pool workers give
    // `shards` concurrent shard workers.
    p.workerThreads = std::max<std::size_t>(1, shards - 1);
    p.analysisThreads = 1;
    p.batchedFft = true;
    // Sized to the fleet: under the default 256-incident cap a large
    // fleet would read a low TPR because of the cap, not detection.
    p.rateLimit.maxPerTenant = kIncidentsPerTenant;
    p.rateLimit.maxTotal = kIncidentsPerTenant * (tenants + 1);
    return p;
}

void
addTenant(Workload& w, const std::string& name,
          const OnlineAuditOptions& audit, bool covert)
{
    TenantConfig t;
    t.id = static_cast<TenantId>(w.registry.size());
    t.name = name;
    t.audit = audit;
    TenantTruth truth;
    truth.id = t.id;
    truth.covert = covert;
    truth.quanta = audit.scenario.quanta;
    if (covert)
        truth.channelUnit =
            UnitRegistry::instance().byWorkload(audit.workload)->id;
    w.simulatedQuanta += audit.scenario.quanta;
    w.truth.push_back(std::move(truth));
    w.registry.add(std::move(t));
}

bool
isContentionEntry(const LabelledScenario& e)
{
    switch (e.audit.workload) {
      case AuditedWorkload::Bus:
      case AuditedWorkload::Divider:
      case AuditedWorkload::Multiplier:
        return true;
      case AuditedWorkload::BenignPair:
        return e.audit.benignUnits == BenignAuditUnits::BusDivider ||
               e.audit.benignUnits == BenignAuditUnits::MultiplierBus;
      default:
        return false;
    }
}

bool
isOscillationEntry(const LabelledScenario& e)
{
    switch (e.audit.workload) {
      case AuditedWorkload::Cache:
      case AuditedWorkload::Tlb:
        return true;
      case AuditedWorkload::BenignPair:
        return e.audit.benignUnits == BenignAuditUnits::CacheBus ||
               e.audit.benignUnits == BenignAuditUnits::TlbBus;
      default:
        return false;
    }
}

/** Corpus entries passing `keep`, replicated over consecutive corpus
 *  seeds seed, seed + 1, ... */
void
addCorpusReplicas(Workload& w, std::uint64_t seed, std::size_t replicas,
                  std::size_t quanta, unsigned noiseProcesses,
                  bool (*keep)(const LabelledScenario&))
{
    for (std::size_t r = 0; r < replicas; ++r) {
        CorpusOptions options;
        options.seed = seed + r;
        options.quanta = quanta;
        options.noiseProcesses = noiseProcesses;
        for (const LabelledScenario& e : buildLabelledCorpus(options))
            if (keep(e))
                addTenant(w, e.name + "#" + std::to_string(r), e.audit,
                          e.covert);
    }
}

/**
 * Short TLB-channel tenants (2-4 quanta) with every eighth tenant
 * sharing its predecessor's seed, so the same channel shows on two
 * hosts and fleet-wide correlation fires, plus benign TLB+bus pairs
 * spread through the id range.
 */
void
addTlbFleet(Workload& w, std::uint64_t seed, std::size_t channels,
            std::size_t benignPairs)
{
    static const char* const kPairs[][2] = {
        {"mcf", "gobmk"},
        {"bzip2", "h264ref"},
        {"sjeng", "mailserver"},
        {"gobmk", "mcf"},
    };
    const std::size_t total = channels + benignPairs;
    const std::size_t benignEvery =
        benignPairs == 0 ? total + 1 : total / benignPairs;
    std::size_t channel = 0;
    std::size_t benign = 0;
    std::uint64_t lastSeed = seed;
    for (std::size_t i = 0; i < total; ++i) {
        OnlineAuditOptions audit;
        ScenarioOptions& sc = audit.scenario;
        sc.noiseProcesses = 0;
        sc.quantum = 2500000;
        sc.bandwidthBps = 1000.0;
        audit.online.clusteringIntervalQuanta = 4;
        const bool benignSlot = benign < benignPairs &&
                                i % benignEvery == benignEvery / 2;
        if (benignSlot) {
            audit.workload = AuditedWorkload::BenignPair;
            audit.benignUnits = BenignAuditUnits::TlbBus;
            audit.benignA = kPairs[benign % 4][0];
            audit.benignB = kPairs[benign % 4][1];
            sc.quanta = 4;
            sc.seed = seed + 100000 + benign;
            addTenant(w,
                      std::string("benign/") + audit.benignA + "+" +
                          audit.benignB + "/tlb",
                      audit, false);
            ++benign;
            continue;
        }
        audit.workload = AuditedWorkload::Tlb;
        sc.quanta = 2 + channel % 3;
        sc.seed = channel % 8 == 7 ? lastSeed : seed + channel;
        lastSeed = sc.seed;
        addTenant(w, "tlb/" + std::to_string(channel), audit, true);
        ++channel;
    }
}

} // namespace

Workload
buildWorkload(const std::string& name, std::uint64_t seed, Size size,
              const std::string& stateDir)
{
    const bool tiny = size == Size::Tiny;
    Workload w;
    w.name = name;
    w.stateDir = stateDir;
    std::size_t shards = 1;
    if (name == "contention-1shard") {
        // One corpus seed: a second replica doubles the pass without
        // changing the work per quantum (see README.md).
        addCorpusReplicas(w, seed, 1, tiny ? 2 : 8, 3, isContentionEntry);
    } else if (name == "oscillation-2shard") {
        shards = kMaxShards;
        addCorpusReplicas(w, seed, tiny ? 1 : 8, 8, 0, isOscillationEntry);
    } else if (name == "crash-resume-1shard") {
        addTlbFleet(w, seed, tiny ? 40 : 256, tiny ? 2 : 4);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.params = baseParams(shards, w.registry.size());
    if (name == "crash-resume-1shard") {
        w.params.persist.dir = stateDir;
        w.params.persist.checkpointIntervalBatches = kCheckpointInterval;
        w.params.respond.enabled = true;
        w.params.respond.measureResidual = true;
        w.params.respond.maxResidualProbes = 2;
        // The action cap sized like the incident cap: one tenant's
        // ladder never starves another's.
        w.params.respond.policy.maxTotalActions =
            w.params.respond.policy.maxActionsPerTenant *
            w.registry.size();
        w.killAfterBatches = w.registry.size() / 2;
    }
    return w;
}

namespace
{

void
resetDirectory(const std::string& dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

} // namespace

PassResult
runPass(const Workload& w)
{
    PassResult out;
    FleetAuditParams killed = w.params;
    killed.simulateCrashAfterBatches = w.killAfterBatches;
    FleetAuditParams resumed = w.params;
    resumed.persist.resume = true;
    if (w.killAfterBatches != 0)
        resetDirectory(w.stateDir);
    const double cpu0 = processCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    if (w.killAfterBatches == 0) {
        out.report = FleetAuditor(w.registry, w.params).run();
    } else {
        if (!FleetAuditor(w.registry, killed).run().crashed)
            throw std::runtime_error("crash switch did not fire");
        out.report = FleetAuditor(w.registry, resumed).run();
    }
    out.coreSeconds = processCpuSeconds() - cpu0;
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return out;
}

FleetAuditReport
runUninterrupted(const Workload& w)
{
    FleetAuditParams params = w.params;
    if (params.persist.enabled())
        resetDirectory(w.stateDir);
    return FleetAuditor(w.registry, params).run();
}

void
prepareKilledDirectory(const Workload& w, const std::string& dir)
{
    resetDirectory(dir);
    FleetAuditParams params = w.params;
    params.persist.dir = dir;
    params.persist.resume = false;
    params.simulateCrashAfterBatches = w.registry.size() / 2;
    // At least one checkpoint before the kill: a restart then reads a
    // snapshot plus a journal tail, and a missing snapshot (a counted
    // defect) never masks a real one.
    params.persist.checkpointIntervalBatches = std::clamp<std::size_t>(
        params.simulateCrashAfterBatches / 2, 1, kCheckpointInterval);
    if (!FleetAuditor(w.registry, params).run().crashed)
        throw std::runtime_error("crash switch did not fire");
}

std::uint64_t
actionHash(const FleetAuditReport& report)
{
    return report.respond.enabled
               ? report.respond.orchestrator.streamHash()
               : 0;
}

double
Quality::tpr() const
{
    return covert == 0 ? 0.0
                       : static_cast<double>(covertDetected) /
                             static_cast<double>(covert);
}

double
Quality::tnr() const
{
    return negatives == 0
               ? 1.0
               : 1.0 - static_cast<double>(negativesFlagged) /
                           static_cast<double>(negatives);
}

Quality
scoreQuality(const Workload& w, const IncidentStore& incidents)
{
    constexpr std::uint64_t kNever =
        std::numeric_limits<std::uint64_t>::max();
    // First incident quantum per tenant: on its channel unit for a
    // covert tenant, on any unit for the rest.
    std::vector<std::uint64_t> first(w.truth.size(), kNever);
    for (const Incident& inc : incidents.incidents()) {
        if (inc.fleetWide || inc.tenant >= w.truth.size())
            continue;
        const TenantTruth& t = w.truth[inc.tenant];
        if (t.covert && inc.unit != t.channelUnit)
            continue;
        first[inc.tenant] = std::min(first[inc.tenant], inc.firstQuantum);
    }
    Quality q;
    std::vector<double> delays; // first incident quantum + 1
    for (const TenantTruth& t : w.truth) {
        const bool flagged = first[t.id] != kNever;
        if (t.covert) {
            ++q.covert;
            q.covertDetected += flagged ? 1 : 0;
            delays.push_back(static_cast<double>(
                flagged ? first[t.id] + 1 : t.quanta + 1));
        } else {
            ++q.negatives;
            q.negativesFlagged += flagged ? 1 : 0;
        }
    }
    if (!delays.empty()) {
        double sum = 0.0;
        for (const double d : delays)
            sum += d;
        q.detectQuantaMean = sum / static_cast<double>(delays.size());
        std::sort(delays.begin(), delays.end());
        const std::size_t n = delays.size();
        q.detectQuantaP50 = n % 2 == 1
                                ? delays[n / 2]
                                : 0.5 * (delays[n / 2 - 1] + delays[n / 2]);
    }
    return q;
}

} // namespace fleetbench
