#include "faults/fault_injector.hh"

namespace cchunter
{

namespace
{

// Distinct salts keep the per-fault decision streams independent:
// changing one rate (or even disabling a fault entirely) never shifts
// another fault's schedule for the same plan seed.
constexpr std::uint64_t dropSalt = 0x64726f70'7175616eull;
constexpr std::uint64_t dupSalt = 0x64757071'75616e74ull;
constexpr std::uint64_t batchSalt = 0x62617463'686d7574ull;
constexpr std::uint64_t contextSalt = 0x63747864'63727074ull;
constexpr std::uint64_t aliasSalt = 0x626c6f6f'6d616c73ull;

/** The paper's 3-bit hardware context-ID space. */
constexpr std::uint64_t contextIdSpace = 8;

} // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan),
      dropRng_(plan.seed ^ dropSalt),
      dupRng_(plan.seed ^ dupSalt),
      batchRng_(plan.seed ^ batchSalt),
      contextRng_(plan.seed ^ contextSalt),
      aliasRng_(plan.seed ^ aliasSalt)
{
    plan_.validate();
}

bool
FaultInjector::dropQuantum()
{
    if (plan_.dropQuantumRate <= 0.0)
        return false;
    if (!dropRng_.nextBool(plan_.dropQuantumRate))
        return false;
    ++stats_.droppedQuanta;
    return true;
}

bool
FaultInjector::duplicateQuantum()
{
    if (plan_.duplicateQuantumRate <= 0.0)
        return false;
    if (!dupRng_.nextBool(plan_.duplicateQuantumRate))
        return false;
    ++stats_.duplicatedQuanta;
    return true;
}

bool
FaultInjector::conflictPathActive() const
{
    return plan_.truncateBatchRate > 0.0 ||
           plan_.reorderBatchRate > 0.0 ||
           plan_.corruptContextRate > 0.0;
}

ConflictBatchMutation
FaultInjector::mutateConflictBatch(
        std::vector<ConflictMissEvent>& events)
{
    ConflictBatchMutation m;
    if (events.empty())
        return m;
    if (plan_.truncateBatchRate > 0.0 &&
        batchRng_.nextBool(plan_.truncateBatchRate)) {
        // The vector registers overflowed: only a prefix survived.
        const std::size_t keep = static_cast<std::size_t>(
            batchRng_.nextBelow(events.size()));
        m.truncated = true;
        m.truncatedEvents = events.size() - keep;
        events.resize(keep);
        ++stats_.truncatedBatches;
        stats_.truncatedEvents += m.truncatedEvents;
    }
    if (!events.empty() && plan_.reorderBatchRate > 0.0 &&
        batchRng_.nextBool(plan_.reorderBatchRate)) {
        batchRng_.shuffle(events);
        m.reordered = true;
        ++stats_.reorderedBatches;
    }
    if (plan_.corruptContextRate > 0.0) {
        for (auto& ev : events) {
            if (!contextRng_.nextBool(plan_.corruptContextRate))
                continue;
            const auto bogus = static_cast<ContextId>(
                contextRng_.nextBelow(contextIdSpace));
            if (contextRng_.nextBool())
                ev.replacer = bogus;
            else
                ev.victim = bogus;
            ++m.corruptedContexts;
        }
        stats_.corruptedContexts += m.corruptedContexts;
    }
    return m;
}

bool
FaultInjector::aliasBloom()
{
    if (plan_.bloomAliasRate <= 0.0)
        return false;
    if (!aliasRng_.nextBool(plan_.bloomAliasRate))
        return false;
    ++stats_.bloomAliases;
    return true;
}

} // namespace cchunter
