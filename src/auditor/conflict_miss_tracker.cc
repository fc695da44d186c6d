#include "auditor/conflict_miss_tracker.hh"

#include <bit>

#include "util/logging.hh"

namespace cchunter
{

namespace
{

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdull;
    z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return z ^ (z >> 33);
}

/**
 * Calls `visit(position)` for each of a line's `hashes` filter bit
 * positions: Kirsch-Mitzenmacher double hashing, h1 + i*h2 masked to
 * the filter size, with both base hashes derived once.
 */
template <typename Visit>
void
forEachProbe(Addr line_addr, unsigned hashes, std::uint64_t mask,
             Visit visit)
{
    std::uint64_t pos = mix64(line_addr);
    const std::uint64_t step = mix64(line_addr ^ 0x9e3779b97f4a7c15ull) | 1;
    for (unsigned i = 0; i < hashes; ++i, pos += step)
        visit(pos & mask);
}

} // namespace

ConflictMissTracker::ConflictMissTracker(std::size_t num_blocks,
                                         ConflictTrackerParams params)
    : numBlocks_(num_blocks), params_(params)
{
    if (num_blocks == 0)
        fatal("ConflictMissTracker: cache has no blocks");
    if (params_.numGenerations < 2 || params_.numGenerations > 8)
        fatal("ConflictMissTracker: generations must be in [2, 8]");
    if (params_.bloomHashes == 0)
        fatal("ConflictMissTracker: bloom filters need at least one "
              "hash function");
    threshold_ = params_.generationThreshold != 0
                     ? params_.generationThreshold
                     : num_blocks / params_.numGenerations;
    if (threshold_ == 0)
        threshold_ = 1;
    const std::size_t bloom_bits =
        params_.bloomBitsPerGeneration != 0
            ? params_.bloomBitsPerGeneration
            : num_blocks;
    // Each filter's size rounds up to a power of two of at least 64.
    std::size_t filter_bits = 64;
    while (filter_bits < bloom_bits)
        filter_bits <<= 1;
    genBits_.assign(num_blocks, 0);
    bloom_.assign(filter_bits, 0);
    bloomMask_ = filter_bits - 1;
}

void
ConflictMissTracker::rotateGeneration()
{
    // Advance to the next slot: it currently holds the *oldest*
    // generation, which is discarded (bottom of the LRU stack).
    currentGen_ = (currentGen_ + 1) % params_.numGenerations;
    const std::uint8_t mask =
        static_cast<std::uint8_t>(~(1u << currentGen_));
    for (auto& bits : bloom_)
        bits &= mask;
    for (auto& bits : genBits_)
        bits &= mask;
    currentGenCount_ = 0;
    ++rotations_;
}

void
ConflictMissTracker::onAccess(std::size_t block_idx, Addr, ContextId,
                              Tick)
{
    if (block_idx >= numBlocks_)
        panic("ConflictMissTracker: block index out of range");
    const std::uint8_t bit =
        static_cast<std::uint8_t>(1u << currentGen_);
    if (!(genBits_[block_idx] & bit)) {
        genBits_[block_idx] |= bit;
        if (++currentGenCount_ >= threshold_)
            rotateGeneration();
    }
}

void
ConflictMissTracker::onEvict(std::size_t block_idx, Addr line_addr,
                             ContextId, Tick)
{
    if (block_idx >= numBlocks_)
        panic("ConflictMissTracker: block index out of range");
    // The youngest generation in which the block was accessed: going
    // back in age from the current generation, numbers fall to 0 and
    // wrap to the highest, so it is the highest bit at or below the
    // current generation, else the highest above it.  A block with no
    // bits left predates every live generation (the bottom of the
    // approximated LRU stack) and goes to the oldest live one, so it
    // keeps brief protection.
    const unsigned bits = genBits_[block_idx];
    const unsigned younger = bits & ((2u << currentGen_) - 1);
    unsigned gen = 0;
    if (younger != 0)
        gen = static_cast<unsigned>(std::bit_width(younger)) - 1;
    else if (bits != 0)
        gen = static_cast<unsigned>(std::bit_width(bits)) - 1;
    else if (currentGen_ + 1 < params_.numGenerations)
        gen = currentGen_ + 1;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << gen);
    forEachProbe(line_addr, params_.bloomHashes, bloomMask_,
                 [&](std::uint64_t pos) { bloom_[pos] |= bit; });
    // The physical slot is being refilled: its history belongs to the
    // departing line.
    genBits_[block_idx] = 0;
}

void
ConflictMissTracker::onMiss(Addr line_addr, ContextId requester,
                            ContextId victim_owner, bool had_victim,
                            Tick now)
{
    ++totalMisses_;
    // A generation's filter contains the line iff its bit survives the
    // AND over every probe byte.
    std::uint8_t live = 0xff;
    forEachProbe(line_addr, params_.bloomHashes, bloomMask_,
                 [&](std::uint64_t pos) { live &= bloom_[pos]; });
    bool conflict = live != 0;
    if (!conflict && aliasHook_ && aliasHook_()) {
        // A forced Bloom alias: the filters aliased a never-inserted
        // tag, so the miss is misclassified as a conflict miss.
        conflict = true;
        ++forcedAliases_;
    }
    if (!conflict)
        return;
    ++conflictMisses_;
    const ConflictMissEvent ev{
        now, requester, had_victim ? victim_owner : invalidContext};
    for (const auto& listener : listeners_)
        listener(ev);
}

void
ConflictMissTracker::addListener(ConflictMissListener listener)
{
    listeners_.push_back(std::move(listener));
}

void
ConflictMissTracker::setAliasHook(BloomAliasHook hook)
{
    aliasHook_ = std::move(hook);
}

} // namespace cchunter
