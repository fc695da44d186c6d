#include "faults/fault_injector.hh"

#include <algorithm>
#include <sstream>

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
constexpr std::uint64_t snapFlipSalt = 0x736e6170'666c6970ull;
constexpr std::uint64_t snapTruncSalt = 0x736e6170'74727563ull;
constexpr std::uint64_t snapMagicSalt = 0x736e6170'6d616763ull;

/** The paper's 3-bit hardware context-ID space. */
constexpr std::uint64_t contextIdSpace = 8;

} // namespace

std::uint64_t
FaultInjectionStats::total() const
{
    return droppedQuanta + duplicatedQuanta + truncatedBatches +
           reorderedBatches + corruptedContexts + bloomAliases +
           snapshotBitFlips + snapshotTruncations + snapshotMagicClobbers;
}

std::string
FaultInjectionStats::summary() const
{
    std::ostringstream os;
    os << "dropped " << droppedQuanta << " quanta, duplicated "
       << duplicatedQuanta << ", truncated " << truncatedBatches
       << " batches (" << truncatedEvents << " events), reordered "
       << reorderedBatches << ", corrupted " << corruptedContexts
       << " contexts, " << bloomAliases << " bloom aliases, "
       << snapshotBitFlips << " snapshot bit flips, "
       << snapshotTruncations << " snapshot truncations ("
       << snapshotBytesTorn << " bytes), " << snapshotMagicClobbers
       << " magic clobbers";
    return os.str();
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan),
      dropRng_(plan.seed ^ dropSalt),
      dupRng_(plan.seed ^ dupSalt),
      batchRng_(plan.seed ^ batchSalt),
      contextRng_(plan.seed ^ contextSalt),
      aliasRng_(plan.seed ^ aliasSalt),
      snapFlipRng_(plan.seed ^ snapFlipSalt),
      snapTruncRng_(plan.seed ^ snapTruncSalt),
      snapMagicRng_(plan.seed ^ snapMagicSalt)
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

bool
FaultInjector::snapshotPathActive() const
{
    return plan_.snapshotBitFlipRate > 0.0 ||
           plan_.snapshotTruncateRate > 0.0 ||
           plan_.snapshotMagicClobberRate > 0.0;
}

SnapshotMutation
FaultInjector::mutateSnapshotBytes(std::vector<std::uint8_t>& bytes)
{
    SnapshotMutation m;
    if (bytes.empty())
        return m;
    if (plan_.snapshotBitFlipRate > 0.0 &&
        snapFlipRng_.nextBool(plan_.snapshotBitFlipRate)) {
        const std::size_t offset = static_cast<std::size_t>(
            snapFlipRng_.nextBelow(bytes.size()));
        const unsigned bit =
            static_cast<unsigned>(snapFlipRng_.nextBelow(8));
        bytes[offset] ^= static_cast<std::uint8_t>(1u << bit);
        ++m.bitsFlipped;
        ++stats_.snapshotBitFlips;
    }
    if (plan_.snapshotTruncateRate > 0.0 &&
        snapTruncRng_.nextBool(plan_.snapshotTruncateRate)) {
        // A torn write: only a prefix of the image made it to disk.
        const std::size_t keep = static_cast<std::size_t>(
            snapTruncRng_.nextBelow(bytes.size()));
        m.truncated = true;
        m.bytesTorn = bytes.size() - keep;
        bytes.resize(keep);
        ++stats_.snapshotTruncations;
        stats_.snapshotBytesTorn += m.bytesTorn;
    }
    if (!bytes.empty() && plan_.snapshotMagicClobberRate > 0.0 &&
        snapMagicRng_.nextBool(plan_.snapshotMagicClobberRate)) {
        // Scribble over the header so the file no longer even claims
        // to be a snapshot.
        const std::size_t span = std::min<std::size_t>(8, bytes.size());
        for (std::size_t i = 0; i < span; ++i)
            bytes[i] = static_cast<std::uint8_t>(
                snapMagicRng_.nextBelow(256));
        m.magicClobbered = true;
        ++stats_.snapshotMagicClobbers;
    }
    return m;
}

} // namespace cchunter
