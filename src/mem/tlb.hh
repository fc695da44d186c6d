/**
 * @file
 * A per-core set-associative TLB model shared by the core's SMT
 * contexts, with per-entry owner metadata and a conflict hook for the
 * CC-Auditor.
 *
 * Like the caches, the TLB is purely structural: it decides hits,
 * misses and victims, and MemSystem composes the page-walk latency into
 * the access.  A fill that displaces a valid entry owned by a
 * *different* hardware context is a cross-context displacement — the
 * conflict event a TLB-set covert channel (TLBleed-style prime/probe
 * between SMT siblings) modulates, and the series the oscillation
 * detector audits.
 *
 * The TLB is disabled by default (TlbParams::enabled == false); a
 * disabled TLB adds zero latency and emits no events, so existing
 * scenarios are bit-identical.
 */

#ifndef CCHUNTER_MEM_TLB_HH
#define CCHUNTER_MEM_TLB_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/types.hh"

namespace cchunter
{

/** Geometry and latency configuration of one TLB. */
struct TlbParams
{
    /** Build per-core TLBs and charge walk latency when true. */
    bool enabled = false;

    /** Total entries (entries / associativity sets). */
    std::size_t entries = 256;

    std::size_t associativity = 4;

    /** Page size; the set index is pageNumber % numSets. */
    std::size_t pageBytes = 4096;

    /** Page-walk latency charged on a TLB miss. */
    Cycles missCycles = 30;

    std::size_t
    numSets() const
    {
        return entries / associativity;
    }
};

/** A cross-context displacement: a fill evicted another context's
 *  translation. */
struct TlbConflict
{
    Tick time = 0;
    ContextId replacer = invalidContext; //!< context requesting the fill
    ContextId victim = invalidContext;   //!< owner of the evicted entry
};

using TlbConflictListener = std::function<void(const TlbConflict&)>;

/** Outcome of one translation. */
struct TlbOutcome
{
    bool hit = false;
    Cycles latency = 0; //!< 0 on a hit, missCycles on a walk
};

/**
 * Set-associative, true-LRU TLB with per-entry owner context metadata.
 */
class Tlb
{
  public:
    Tlb(std::string name, TlbParams params);

    /** Translate `addr` for context `ctx`; fills on a miss. */
    TlbOutcome translate(Addr addr, ContextId ctx, Tick now);

    /** @return true if the page's translation is resident. */
    bool probe(Addr addr) const;

    /** Invalidate every entry (e.g. a full TLB shootdown). */
    void flush();

    /** Observe cross-context displacements. */
    void addConflictListener(TlbConflictListener listener);

    const std::string& name() const { return name_; }
    const TlbParams& params() const { return params_; }
    std::size_t numSets() const { return numSets_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t conflicts() const { return conflicts_; }

    /** Page number of a byte address: a shift for a power-of-two page
     *  size, a division otherwise. */
    std::uint64_t
    pageNumber(Addr addr) const
    {
        return pagePow2_ ? addr >> pageShift_ : addr / params_.pageBytes;
    }

    /** Set index of a byte address. */
    std::size_t
    setIndex(Addr addr) const
    {
        return setOf(pageNumber(addr));
    }

  private:
    /** Set of a page number: a mask for a power-of-two set count, a
     *  modulo otherwise. */
    std::size_t
    setOf(std::uint64_t page) const
    {
        return setsPow2_ ? page & (numSets_ - 1) : page % numSets_;
    }

    /** Tag of a resident translation: its page number plus one, so 0
     *  means invalid (a page number is below 2^64 - 1 because a page
     *  is at least 2 bytes). */
    static std::uint64_t tagOf(std::uint64_t page) { return page + 1; }

    /** Way holding `tag` in the set starting at `base`, or
     *  associativity. */
    std::size_t findWay(std::size_t base, std::uint64_t tag) const;

    std::string name_;
    TlbParams params_;
    unsigned pageShift_ = 0; //!< log2(pageBytes) when pagePow2_
    bool pagePow2_ = false;
    std::size_t numSets_ = 0;
    bool setsPow2_ = false;
    // Per-way state, set-major: way w of set s is index
    // s * associativity + w.
    std::vector<std::uint64_t> tags_;
    std::vector<ContextId> owners_;
    /** LRU stamps (translation sequence): 0 for an invalid way,
     *  distinct and >= 1 for valid ways. */
    std::vector<std::uint64_t> lastUse_;
    std::vector<TlbConflictListener> listeners_;
    std::uint64_t useCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t conflicts_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_MEM_TLB_HH
