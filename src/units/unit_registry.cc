#include "units/unit_registry.hh"

#include <memory>
#include <string>
#include <utility>

#include "channels/bus_channel.hh"
#include "channels/divider_channel.hh"
#include "channels/prime_probe.hh"
#include "util/logging.hh"

namespace cchunter
{

namespace
{

/** Name reserved for the no-channel benchmark-pair workload; not a
 *  unit, so it lives beside the registry, not in it. */
constexpr const char* kBenignWorkloadName = "benign";

UnitDescriptor
makeBusUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::MemoryBus;
    d.workload = AuditedWorkload::Bus;
    d.name = "bus";
    d.conflictSemantics =
        "atomic unaligned access asserting the shared bus lock";
    d.policy = AlarmKind::Contention;
    d.deltaT = busDeltaT;
    d.indicator2Scale = 50.0;
    d.mitigation = MitigationKind::RateLimitBusLocks;
    d.channelContexts = {ContextId{0}, ContextId{2}};
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        BusTrojanParams tp;
        tp.timing = ctx.timing;
        tp.message = ctx.message;
        tp.evasionLockPeriod = ctx.busEvasionPeriod;
        machine.addProcess(std::make_unique<BusTrojan>(tp), 0);
        BusSpyParams sp;
        sp.timing = ctx.timing;
        machine.addProcess(std::make_unique<BusSpy>(sp), 2);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorBus(key, slot);
    };
    return d;
}

UnitDescriptor
makeDividerUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::IntegerDivider;
    d.workload = AuditedWorkload::Divider;
    d.name = "divider";
    d.conflictSemantics =
        "SMT sibling waiting on the busy integer divider";
    d.policy = AlarmKind::Contention;
    d.deltaT = dividerDeltaT;
    d.indicator2Scale = 2000.0;
    d.mitigation = MitigationKind::UnshareCore;
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        DividerTrojanParams tp;
        tp.timing = ctx.timing;
        tp.message = ctx.message;
        machine.addProcess(std::make_unique<DividerTrojan>(tp), 0);
        DividerSpyParams sp;
        sp.timing = ctx.timing;
        machine.addProcess(std::make_unique<DividerSpy>(sp), 1);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorDivider(key, slot, /*core=*/0);
    };
    return d;
}

UnitDescriptor
makeMultiplierUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::IntegerMultiplier;
    d.workload = AuditedWorkload::Multiplier;
    d.name = "multiplier";
    d.conflictSemantics =
        "SMT sibling waiting on the busy integer multiplier";
    d.policy = AlarmKind::Contention;
    d.deltaT = multiplierDeltaT;
    d.indicator2Scale = 2000.0;
    d.mitigation = MitigationKind::UnshareCore;
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        DividerTrojanParams tp;
        tp.timing = ctx.timing;
        tp.message = ctx.message;
        tp.useMultiplier = true;
        machine.addProcess(std::make_unique<DividerTrojan>(tp), 0);
        DividerSpyParams sp;
        sp.timing = ctx.timing;
        sp.useMultiplier = true;
        // Multiplier ops are 3 cycles: 20 ops -> 60 uncontended, 120
        // contended; split the decode threshold between the plateaus.
        sp.decodeThreshold = 90;
        machine.addProcess(std::make_unique<DividerSpy>(sp), 1);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorMultiplier(key, slot, /*core=*/0);
    };
    return d;
}

/**
 * The workload of the set-indexed units: a prime+probe trojan on
 * context 0 and its spy on context 1, the SMT siblings of core 0.
 */
void
addPrimeProbePair(Machine& machine, const UnitRunContext& ctx,
                  PrimeProbeLayout layout, std::size_t noiseEvery,
                  Tick dormantNoiseGap)
{
    PrimeProbeTrojanParams tp;
    tp.timing = ctx.timing;
    tp.message = ctx.message;
    tp.layout = layout;
    tp.roundsPerBit = ctx.roundsPerBit;
    machine.addProcess(std::make_unique<PrimeProbeTrojan>(std::move(tp)),
                       0);
    PrimeProbeSpyParams sp;
    sp.timing = ctx.timing;
    sp.layout = std::move(layout);
    sp.noiseEvery = noiseEvery;
    sp.dormantNoiseGap = dormantNoiseGap;
    sp.roundsPerBit = ctx.roundsPerBit;
    sp.seed = ctx.seed + 7;
    machine.addProcess(std::make_unique<PrimeProbeSpy>(std::move(sp)), 1);
}

UnitDescriptor
makeCacheUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::L2Cache;
    d.workload = AuditedWorkload::Cache;
    d.name = "cache";
    d.conflictSemantics =
        "conflict miss displacing another context's L2 line";
    d.policy = AlarmKind::Oscillation;
    d.indicator2Scale = 64.0;
    d.mitigation = MitigationKind::UnshareCore;
    d.configureMachine = [](MachineParams& mp, const UnitRunContext&) {
        // The cache channel experiments configure the 256 KB L2 with
        // associativity 1 (4096 sets) so that each side implements the
        // prime/probe conflict with a single line per set; see
        // DESIGN.md for the substitution note.
        mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    };
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        const CacheGeometry& l2 = machine.mem().l2(0).geometry();
        PrimeProbeLayout layout;
        layout.unit = "cache";
        layout.numSets = l2.numSets();
        layout.setStride = l2.lineSize;
        layout.channelSets = ctx.channelSets;
        layout.trojanDepth = ctx.linesPerSet;
        layout.spyDepth = ctx.linesPerSet;
        addPrimeProbePair(machine, ctx, std::move(layout),
                          ctx.cacheNoiseEvery, ctx.cacheDormantNoiseGap);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext& ctx) {
        if (ctx.idealTracker)
            auditor.monitorCacheIdeal(key, slot, /*core=*/0);
        else
            auditor.monitorCache(key, slot, /*core=*/0,
                                 ctx.trackerParams);
    };
    return d;
}

UnitDescriptor
makeTlbUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::Tlb;
    d.workload = AuditedWorkload::Tlb;
    d.name = "tlb";
    d.conflictSemantics =
        "fill displacing another context's TLB translation";
    d.policy = AlarmKind::Oscillation;
    d.indicator2Scale = 64.0;
    d.mitigation = MitigationKind::UnshareCore;
    const auto enableTlb = [](MachineParams& mp,
                              const UnitRunContext&) {
        mp.mem.tlb.enabled = true;
    };
    d.configureMachine = enableTlb;
    d.configureBenignMachine = enableTlb;
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        const Tlb& tlb = machine.mem().tlb(0);
        // The trojan fills every way of a set; the spy keeps one page
        // resident per set.  Each side's lines sit in their own
        // cache-line slots of the page (PrimeProbeLayout::slotBytes).
        PrimeProbeLayout layout;
        layout.unit = "tlb";
        layout.numSets = tlb.numSets();
        layout.setStride = tlb.params().pageBytes;
        layout.channelSets = ctx.tlbChannelSets;
        layout.trojanDepth = tlb.params().associativity;
        layout.spyDepth = 1;
        layout.slotBytes = 64;
        addPrimeProbePair(machine, ctx, std::move(layout), 0, 0);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorTlb(key, slot, /*core=*/0);
    };
    return d;
}

void
validateDescriptor(const UnitDescriptor& d)
{
    if (d.id == MonitorTarget::None)
        fatal("UnitRegistry: descriptor needs a monitor target");
    if (d.workload == AuditedWorkload::BenignPair)
        fatal("UnitRegistry: BenignPair is not a unit workload");
    if (d.name == nullptr || *d.name == '\0')
        fatal("UnitRegistry: descriptor needs a name");
    if (!d.buildWorkload)
        fatal("UnitRegistry: unit '", d.name,
              "' needs a workload factory");
    if (!d.program)
        fatal("UnitRegistry: unit '", d.name,
              "' needs an auditor-programming hook");
}

} // namespace

void
UnitRegistry::registerUnit(UnitDescriptor descriptor)
{
    validateDescriptor(descriptor);
    for (const UnitDescriptor& existing : descriptors_) {
        if (existing.id == descriptor.id)
            fatal("UnitRegistry: duplicate unit id for '",
                  descriptor.name, "' (already '", existing.name,
                  "')");
        if (std::string(existing.name) == descriptor.name)
            fatal("UnitRegistry: duplicate unit name '",
                  descriptor.name, "'");
        if (existing.workload == descriptor.workload)
            fatal("UnitRegistry: duplicate workload tag for '",
                  descriptor.name, "' (already '", existing.name,
                  "')");
    }
    descriptors_.push_back(std::move(descriptor));
}

UnitRegistry&
UnitRegistry::instance()
{
    static UnitRegistry registry = [] {
        UnitRegistry r;
        r.registerUnit(makeBusUnit());
        r.registerUnit(makeDividerUnit());
        r.registerUnit(makeMultiplierUnit());
        r.registerUnit(makeCacheUnit());
        r.registerUnit(makeTlbUnit());
        return r;
    }();
    return registry;
}

const UnitDescriptor*
UnitRegistry::byId(MonitorTarget id) const
{
    for (const UnitDescriptor& d : descriptors_)
        if (d.id == id)
            return &d;
    return nullptr;
}

const UnitDescriptor*
UnitRegistry::byName(const std::string& name) const
{
    for (const UnitDescriptor& d : descriptors_)
        if (name == d.name)
            return &d;
    return nullptr;
}

const UnitDescriptor*
UnitRegistry::byWorkload(AuditedWorkload workload) const
{
    for (const UnitDescriptor& d : descriptors_)
        if (d.workload == workload)
            return &d;
    return nullptr;
}

const UnitDescriptor&
UnitRegistry::require(MonitorTarget id) const
{
    const UnitDescriptor* d = byId(id);
    if (!d)
        fatal("UnitRegistry: no unit registered for target '",
              monitorTargetName(id), "'");
    return *d;
}

const char*
auditedWorkloadName(AuditedWorkload workload)
{
    if (workload == AuditedWorkload::BenignPair)
        return kBenignWorkloadName;
    if (const UnitDescriptor* d =
            UnitRegistry::instance().byWorkload(workload))
        return d->name;
    return "?";
}

AuditedWorkload
auditedWorkloadFromName(const std::string& name)
{
    if (name == kBenignWorkloadName)
        return AuditedWorkload::BenignPair;
    if (const UnitDescriptor* d =
            UnitRegistry::instance().byName(name))
        return d->workload;
    std::string valid;
    for (const UnitDescriptor& d :
         UnitRegistry::instance().descriptors()) {
        valid += d.name;
        valid += ", ";
    }
    valid += kBenignWorkloadName;
    fatal("unknown audited workload: '", name, "' (valid: ", valid,
          ")");
}

const std::vector<BenignPairing>&
benignPairings()
{
    static const std::vector<BenignPairing> pairings{
        {BenignAuditUnits::BusDivider, "bus+divider",
         {MonitorTarget::MemoryBus, MonitorTarget::IntegerDivider}},
        {BenignAuditUnits::CacheBus, "cache+bus",
         {MonitorTarget::L2Cache, MonitorTarget::MemoryBus}},
        {BenignAuditUnits::MultiplierBus, "multiplier+bus",
         {MonitorTarget::IntegerMultiplier, MonitorTarget::MemoryBus}},
        {BenignAuditUnits::TlbBus, "tlb+bus",
         {MonitorTarget::Tlb, MonitorTarget::MemoryBus}},
    };
    return pairings;
}

const BenignPairing&
benignPairing(BenignAuditUnits id)
{
    for (const BenignPairing& p : benignPairings())
        if (p.id == id)
            return p;
    fatal("unknown benign audit pairing: ",
          static_cast<int>(id));
}

} // namespace cchunter
