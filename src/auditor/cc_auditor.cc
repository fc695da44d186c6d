#include "auditor/cc_auditor.hh"

#include <iterator>

#include "sim/trace.hh"
#include "util/logging.hh"

namespace cchunter
{

AuditKey
requestAuditKey(bool is_admin)
{
    if (!is_admin)
        fatal("audit authorization denied: caller is not privileged");
    AuditKey key;
    key.valid_ = true;
    return key;
}

CCAuditor::CCAuditor(Machine& machine, unsigned num_slots)
    : machine_(machine), numSlots_(num_slots)
{
    if (num_slots == 0 || num_slots > maxSuperSecureSlots)
        fatal("CCAuditor: slot count must be in [1, ",
              maxSuperSecureSlots, "]");
    if (num_slots > maxSlots)
        warn("CCAuditor: ", num_slots, " slots exceed the paper's "
             "low-overhead configuration (super-secure mode)");
    slots_.resize(numSlots_);
    for (auto& slot : slots_)
        slot = std::make_shared<SlotState>();
}

CCAuditor::~CCAuditor()
{
    for (unsigned s = 0; s < numSlots_; ++s)
        release(s);
}

void
CCAuditor::setHistogramParams(HistogramBufferParams params)
{
    if (params.numBins == 0)
        fatal("CCAuditor: histogram buffers need at least one bin");
    histogramParams_ = params;
}

void
CCAuditor::checkKey(const AuditKey& key) const
{
    if (!key.valid())
        fatal("audit instruction executed without a valid key");
}

void
CCAuditor::checkSlot(unsigned slot) const
{
    if (slot >= numSlots_)
        fatal("CC-Auditor monitors at most ", numSlots_,
              " units; slot ", slot, " does not exist");
}

void
CCAuditor::release(unsigned slot)
{
    SlotState& st = *slots_[slot];
    if (!st.active)
        return;
    if (st.target == MonitorTarget::L2Cache)
        machine_.mem().l2(st.core).setMonitor(nullptr);
    // Listener lambdas hold the shared state and check `active`, so
    // deactivating suffices to silence a reprogrammed slot.
    st.active = false;
    slots_[slot] = std::make_shared<SlotState>();
}

void
CCAuditor::monitorBus(const AuditKey& key, unsigned slot, Tick delta_t)
{
    checkKey(key);
    checkSlot(slot);
    release(slot);
    auto st = slots_[slot];
    st->active = true;
    st->target = MonitorTarget::MemoryBus;
    trace(TraceCategory::Auditor, machine_.now(), "slot ", slot,
          " monitors memory bus, dt=", delta_t);
    st->histogram = std::make_unique<HistogramBuffer>(
        delta_t, machine_.now(), histogramParams_);
    machine_.mem().bus().addLockListener(
        [st](Tick when, ContextId) {
            if (st->active)
                st->histogram->recordEvent(when);
        });
}

void
CCAuditor::monitorDivider(const AuditKey& key, unsigned slot,
                          unsigned core, Tick delta_t)
{
    checkKey(key);
    checkSlot(slot);
    if (core >= machine_.numCores())
        fatal("CC-Auditor: no divider on core ", core);
    release(slot);
    auto st = slots_[slot];
    st->active = true;
    st->target = MonitorTarget::IntegerDivider;
    trace(TraceCategory::Auditor, machine_.now(), "slot ", slot,
          " monitors divider core ", core, ", dt=", delta_t);
    st->core = core;
    st->histogram = std::make_unique<HistogramBuffer>(
        delta_t, machine_.now(), histogramParams_);
    machine_.divider(core).addWaitListener(
        [st](const WaitConflictBurst& burst) {
            if (st->active)
                st->histogram->recordBurst(burst.start, burst.count,
                                           burst.spacing);
        });
}

void
CCAuditor::monitorMultiplier(const AuditKey& key, unsigned slot,
                             unsigned core, Tick delta_t)
{
    checkKey(key);
    checkSlot(slot);
    if (core >= machine_.numCores())
        fatal("CC-Auditor: no multiplier on core ", core);
    release(slot);
    auto st = slots_[slot];
    st->active = true;
    st->target = MonitorTarget::IntegerMultiplier;
    trace(TraceCategory::Auditor, machine_.now(), "slot ", slot,
          " monitors multiplier core ", core, ", dt=", delta_t);
    st->core = core;
    st->histogram = std::make_unique<HistogramBuffer>(
        delta_t, machine_.now(), histogramParams_);
    machine_.multiplier(core).addWaitListener(
        [st](const WaitConflictBurst& burst) {
            if (st->active)
                st->histogram->recordBurst(burst.start, burst.count,
                                           burst.spacing);
        });
}

void
CCAuditor::monitorCache(const AuditKey& key, unsigned slot,
                        unsigned core, ConflictTrackerParams params)
{
    checkKey(key);
    checkSlot(slot);
    if (core >= machine_.numCores())
        fatal("CC-Auditor: no L2 cache on core ", core);
    release(slot);
    auto st = slots_[slot];
    st->active = true;
    st->target = MonitorTarget::L2Cache;
    st->core = core;
    Cache& l2 = machine_.mem().l2(core);
    st->cacheTracker = std::make_unique<ConflictMissTracker>(
        l2.geometry().numBlocks(), params);
    st->vectors = std::make_unique<ConflictVectorRegisters>();
    // The tracker is owned by the slot state, so its listener must not
    // own that state back: a shared_ptr here would be a cycle that
    // leaks both.  The tracker dies with the state, so the raw pointer
    // cannot dangle.
    st->cacheTracker->addListener(
        [raw = st.get()](const ConflictMissEvent& ev) {
            if (raw->active)
                raw->vectors->record(ev);
        });
    l2.setMonitor(st->cacheTracker.get());
}

void
CCAuditor::monitorCacheIdeal(const AuditKey& key, unsigned slot,
                             unsigned core)
{
    checkKey(key);
    checkSlot(slot);
    if (core >= machine_.numCores())
        fatal("CC-Auditor: no L2 cache on core ", core);
    release(slot);
    auto st = slots_[slot];
    st->active = true;
    st->target = MonitorTarget::L2Cache;
    st->core = core;
    Cache& l2 = machine_.mem().l2(core);
    st->idealTracker = std::make_unique<LruStackTracker>(
        l2.geometry().numBlocks());
    st->vectors = std::make_unique<ConflictVectorRegisters>();
    // Non-owning for the same reason as in monitorCache.
    st->idealTracker->addListener(
        [raw = st.get()](const ConflictMissEvent& ev) {
            if (raw->active)
                raw->vectors->record(ev);
        });
    l2.setMonitor(st->idealTracker.get());
}

void
CCAuditor::monitorTlb(const AuditKey& key, unsigned slot, unsigned core)
{
    checkKey(key);
    checkSlot(slot);
    if (core >= machine_.numCores())
        fatal("CC-Auditor: no TLB on core ", core);
    if (!machine_.mem().tlbEnabled())
        fatal("CC-Auditor: machine was built without TLBs "
              "(MemSystemParams::tlb.enabled)");
    release(slot);
    auto st = slots_[slot];
    st->active = true;
    st->target = MonitorTarget::Tlb;
    st->core = core;
    trace(TraceCategory::Auditor, machine_.now(), "slot ", slot,
          " monitors TLB core ", core);
    st->vectors = std::make_unique<ConflictVectorRegisters>();
    machine_.mem().tlb(core).addConflictListener(
        [st](const TlbConflict& conflict) {
            if (st->active)
                st->vectors->record(ConflictMissEvent{
                    conflict.time, conflict.replacer, conflict.victim});
        });
}

void
CCAuditor::stopMonitor(const AuditKey& key, unsigned slot)
{
    checkKey(key);
    checkSlot(slot);
    release(slot);
}

bool
CCAuditor::slotActive(unsigned slot) const
{
    checkSlot(slot);
    return slots_[slot]->active;
}

MonitorTarget
CCAuditor::slotTarget(unsigned slot) const
{
    checkSlot(slot);
    return slots_[slot]->target;
}

const char*
monitorTargetName(MonitorTarget target)
{
    // Indexed by enum value; the registry test pins each entry against
    // the corresponding UnitDescriptor::name.
    static constexpr const char* kNames[] = {
        "none", "bus", "divider", "multiplier", "cache", "tlb",
    };
    const auto idx = static_cast<std::size_t>(target);
    return idx < std::size(kNames) ? kNames[idx] : "?";
}

HistogramBuffer*
CCAuditor::histogramBuffer(unsigned slot)
{
    checkSlot(slot);
    return slots_[slot]->histogram.get();
}

ConflictVectorRegisters*
CCAuditor::vectorRegisters(unsigned slot)
{
    checkSlot(slot);
    return slots_[slot]->vectors.get();
}

ConflictMissTracker*
CCAuditor::tracker(unsigned slot)
{
    checkSlot(slot);
    return slots_[slot]->cacheTracker.get();
}

LruStackTracker*
CCAuditor::idealTracker(unsigned slot)
{
    checkSlot(slot);
    return slots_[slot]->idealTracker.get();
}

} // namespace cchunter
