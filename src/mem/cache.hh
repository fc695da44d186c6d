/**
 * @file
 * A set-associative cache model with LRU replacement, per-block owner
 * context metadata (the paper's three owner bits) and a monitor hook
 * for the CC-Auditor's conflict-miss tracker.
 *
 * The cache is purely structural: it decides hits, misses and victims.
 * Latency and the journey to the next level are composed by MemSystem.
 */

#ifndef CCHUNTER_MEM_CACHE_HH
#define CCHUNTER_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace cchunter
{

/** Geometry of one cache. */
struct CacheGeometry
{
    std::size_t sizeBytes = 256 * 1024;
    std::size_t associativity = 8;
    std::size_t lineSize = 64;

    std::size_t
    numBlocks() const
    {
        return sizeBytes / lineSize;
    }

    std::size_t
    numSets() const
    {
        return numBlocks() / associativity;
    }
};

/**
 * Observer interface for cache-internal events; implemented by the
 * CC-Auditor's conflict-miss trackers (practical and oracle).
 */
class CacheMonitor
{
  public:
    virtual ~CacheMonitor() = default;

    /**
     * Every completed access to a block (after a fill on a miss).
     * @param block_idx Stable storage index (set * assoc + way).
     * @param line_addr Line-aligned address of the accessed block.
     */
    virtual void onAccess(std::size_t block_idx, Addr line_addr,
                          ContextId ctx, Tick now) = 0;

    /** A valid block is evicted to make room for another line. */
    virtual void onEvict(std::size_t block_idx, Addr line_addr,
                         ContextId owner, Tick now) = 0;

    /**
     * A miss is being serviced.
     * @param line_addr Line address of the incoming block.
     * @param requester Context performing the access (the "replacer").
     * @param victim_owner Owner of the block being evicted (valid only
     *        when had_victim).
     * @param had_victim False for fills into invalid ways.
     */
    virtual void onMiss(Addr line_addr, ContextId requester,
                        ContextId victim_owner, bool had_victim,
                        Tick now) = 0;
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool evicted = false;          //!< a valid block was displaced
    Addr evictedLineAddr = 0;      //!< line address of the victim
    ContextId evictedOwner = invalidContext;
};

/**
 * Set-associative, write-allocate cache with true-LRU replacement.
 */
class Cache
{
  public:
    Cache(std::string name, CacheGeometry geometry);

    /**
     * Perform an access: on a miss the line is filled (evicting the LRU
     * way if no invalid way exists).  Owner metadata is updated to the
     * accessing context.
     */
    CacheAccessResult access(Addr addr, ContextId ctx, Tick now);

    /** @return true if the line is present (no state change). */
    bool probe(Addr addr) const;

    /** Invalidate a line if present (back-invalidation from an
     *  inclusive outer level). @return true if it was present. */
    bool invalidate(Addr addr);

    /** Invalidate every line. */
    void flush();

    /** Owner context of a resident line, or invalidContext. */
    ContextId ownerOf(Addr addr) const;

    /** Attach a monitor (nullptr to detach). */
    void setMonitor(CacheMonitor* monitor) { monitor_ = monitor; }

    const std::string& name() const { return name_; }
    const CacheGeometry& geometry() const { return geom_; }

    /** Line-aligned address for any byte address. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(geom_.lineSize - 1);
    }

    /** Set index for an address: a shift and a mask (a modulo when
     *  the set count is not a power of two), no division per access. */
    std::size_t
    setIndex(Addr addr) const
    {
        const Addr block = addr >> lineShift_;
        return setsPow2_ ? block & (numSets_ - 1) : block % numSets_;
    }

    /** Lifetime statistics. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    /** Tag of a resident line: its line address with the valid bit
     *  folded into bit 0 (line addresses have it clear), so a set's
     *  tags compare in one contiguous scan and 0 means invalid. */
    static Addr tagOf(Addr line) { return line | 1; }

    /** Way holding `tag` in the set starting at `base`, or
     *  associativity. */
    std::size_t findWay(std::size_t base, Addr tag) const;

    std::string name_;
    CacheGeometry geom_;
    unsigned lineShift_ = 0;   //!< log2(lineSize)
    std::size_t numSets_ = 0;
    bool setsPow2_ = false;
    // Per-way state, set-major: way w of set s is index
    // s * associativity + w (the monitors' block index).
    std::vector<Addr> tags_;
    std::vector<ContextId> owners_;
    /** LRU stamps (access sequence): 0 for an invalid way, distinct
     *  and >= 1 for valid ways. */
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useCounter_ = 0;
    CacheMonitor* monitor_ = nullptr;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_MEM_CACHE_HH
