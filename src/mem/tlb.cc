#include "mem/tlb.hh"

#include <bit>

#include "mem/lru_victim.hh"
#include "util/logging.hh"

namespace cchunter
{

Tlb::Tlb(std::string name, TlbParams params)
    : name_(std::move(name)), params_(params)
{
    if (params_.entries == 0 || params_.associativity == 0)
        fatal("Tlb ", name_, ": zero entries or associativity");
    // A page number must stay below 2^64 - 1 for its tag.
    if (params_.pageBytes < 2)
        fatal("Tlb ", name_, ": page size must be at least 2 bytes");
    if (params_.entries % params_.associativity != 0)
        fatal("Tlb ", name_,
              ": entries must be a multiple of associativity");
    pagePow2_ = std::has_single_bit(params_.pageBytes);
    pageShift_ =
        static_cast<unsigned>(std::countr_zero(params_.pageBytes));
    numSets_ = params_.numSets();
    setsPow2_ = std::has_single_bit(numSets_);
    flush();
}

std::size_t
Tlb::findWay(std::size_t base, std::uint64_t tag) const
{
    const std::uint64_t* tags = &tags_[base];
    for (std::size_t w = 0; w < params_.associativity; ++w)
        if (tags[w] == tag)
            return w;
    return params_.associativity; // not found
}

TlbOutcome
Tlb::translate(Addr addr, ContextId ctx, Tick now)
{
    TlbOutcome out;
    const std::uint64_t page = pageNumber(addr);
    const std::uint64_t tag = tagOf(page);
    const std::size_t base = setOf(page) * params_.associativity;

    const std::size_t way = findWay(base, tag);
    if (way < params_.associativity) {
        lastUse_[base + way] = ++useCounter_;
        owners_[base + way] = ctx;
        ++hits_;
        out.hit = true;
        return out;
    }

    // Miss: walk the page table and fill, evicting the LRU way when the
    // set is full.  A displacement of another context's entry is the
    // auditable conflict.
    ++misses_;
    out.latency = params_.missCycles;
    const std::size_t i =
        base + lruVictimWay(&lastUse_[base], params_.associativity);
    if (tags_[i] != 0 && owners_[i] != ctx) {
        ++conflicts_;
        const TlbConflict conflict{now, ctx, owners_[i]};
        for (const auto& listener : listeners_)
            listener(conflict);
    }
    tags_[i] = tag;
    owners_[i] = ctx;
    lastUse_[i] = ++useCounter_;
    return out;
}

bool
Tlb::probe(Addr addr) const
{
    return findWay(setIndex(addr) * params_.associativity,
                   tagOf(pageNumber(addr))) < params_.associativity;
}

void
Tlb::flush()
{
    tags_.assign(params_.entries, 0);
    owners_.assign(params_.entries, invalidContext);
    lastUse_.assign(params_.entries, 0);
}

void
Tlb::addConflictListener(TlbConflictListener listener)
{
    listeners_.push_back(std::move(listener));
}

} // namespace cchunter
