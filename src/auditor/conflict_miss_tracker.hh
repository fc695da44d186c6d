/**
 * @file
 * The practical generation-based conflict-miss tracker (paper Fig. 9).
 *
 * A conflict miss is a miss on a block that a fully-associative LRU
 * cache of equal capacity would still hold — i.e. the block was evicted
 * *prematurely*.  The exact check needs an LRU stack; this hardware-
 * friendly approximation keeps four age-ordered *generations*:
 *
 *  - Each cache block has one access bit per generation; the bit of the
 *    current (youngest) generation is set on access.
 *  - A counter tracks how many blocks were newly marked in the current
 *    generation; when it reaches T = N/4 a new generation starts and
 *    the oldest is discarded (its bloom filter and bit column are
 *    flash-cleared) — modelling removal from the LRU stack's bottom.
 *  - On replacement, the victim's tag is inserted into the bloom filter
 *    of the youngest generation in which it was accessed.
 *  - On a miss, if the incoming tag hits in any live filter the block
 *    was evicted within the last ~N distinct accesses: a conflict miss.
 *
 * The generation filters are stored sliced: one byte per filter bit
 * position, whose bit g is that position's bit in generation g's
 * filter.  A line is hashed once per call, and one AND across its
 * probe bytes tests every generation at once.
 */

#ifndef CCHUNTER_AUDITOR_CONFLICT_MISS_TRACKER_HH
#define CCHUNTER_AUDITOR_CONFLICT_MISS_TRACKER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "auditor/conflict_event.hh"
#include "mem/cache.hh"
#include "util/types.hh"

namespace cchunter
{

/** Configuration of the practical tracker. */
struct ConflictTrackerParams
{
    /** Number of generations (paper: 4). */
    unsigned numGenerations = 4;

    /**
     * New-generation threshold T in distinct block accesses.
     * 0 selects the paper's default of numBlocks / numGenerations.
     */
    std::size_t generationThreshold = 0;

    /**
     * Bits per generation bloom filter; 0 selects the paper's sizing of
     * numBlocks bits per filter (4 x N bits total).
     */
    std::size_t bloomBitsPerGeneration = 0;

    /** Hash probes per filter (paper: 3). */
    unsigned bloomHashes = 3;
};

/**
 * Asked on a miss whose tag missed every live Bloom filter; returning
 * true forces the aliased (false-positive) outcome.  Fault-injection
 * hook: exercises the pipeline's tolerance to the filters' inherent
 * aliasing beyond their natural false-positive rate.
 */
using BloomAliasHook = std::function<bool()>;

/**
 * CacheMonitor implementation approximating LRU-stack recency with
 * generation bits and bloom filters.
 */
class ConflictMissTracker : public CacheMonitor
{
  public:
    /**
     * @param num_blocks Total blocks (N) of the monitored cache.
     */
    explicit ConflictMissTracker(std::size_t num_blocks,
                                 ConflictTrackerParams params = {});

    void onAccess(std::size_t block_idx, Addr line_addr, ContextId ctx,
                  Tick now) override;
    void onEvict(std::size_t block_idx, Addr line_addr, ContextId owner,
                 Tick now) override;
    void onMiss(Addr line_addr, ContextId requester,
                ContextId victim_owner, bool had_victim,
                Tick now) override;

    /** Register a conflict-miss listener. */
    void addListener(ConflictMissListener listener);

    /** Install (or clear, with an empty hook) the forced-alias
     *  fault-injection hook. */
    void setAliasHook(BloomAliasHook hook);

    /** Conflict misses manufactured by the alias hook so far. */
    std::uint64_t forcedAliases() const { return forcedAliases_; }

    /** Identified conflict misses so far. */
    std::uint64_t conflictMisses() const { return conflictMisses_; }

    /** Total misses observed. */
    std::uint64_t totalMisses() const { return totalMisses_; }

    /** Generation rotations performed. */
    std::uint64_t rotations() const { return rotations_; }

    /** Current generation threshold T. */
    std::size_t threshold() const { return threshold_; }

  private:
    void rotateGeneration();

    std::size_t numBlocks_;
    ConflictTrackerParams params_;
    std::size_t threshold_;
    /** Per-block bitmask of generations in which it was accessed. */
    std::vector<std::uint8_t> genBits_;
    /** Generation-sliced bloom filters: bit g of byte p is bit p of
     *  generation g's filter. */
    std::vector<std::uint8_t> bloom_;
    /** Filter size in bits minus one (the size is a power of two). */
    std::uint64_t bloomMask_ = 0;
    /** Index of the current (youngest) generation. */
    unsigned currentGen_ = 0;
    /** Blocks newly marked in the current generation. */
    std::size_t currentGenCount_ = 0;
    std::vector<ConflictMissListener> listeners_;
    BloomAliasHook aliasHook_;
    std::uint64_t conflictMisses_ = 0;
    std::uint64_t totalMisses_ = 0;
    std::uint64_t rotations_ = 0;
    std::uint64_t forcedAliases_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_AUDITOR_CONFLICT_MISS_TRACKER_HH
