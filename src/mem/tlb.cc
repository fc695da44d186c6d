#include "mem/tlb.hh"

#include <bit>

#include "util/logging.hh"

namespace cchunter
{

Tlb::Tlb(std::string name, TlbParams params)
    : name_(std::move(name)), params_(params)
{
    if (params_.entries == 0 || params_.associativity == 0 ||
        params_.pageBytes == 0)
        fatal("Tlb ", name_, ": zero entries, associativity or page "
              "size");
    if (params_.entries % params_.associativity != 0)
        fatal("Tlb ", name_,
              ": entries must be a multiple of associativity");
    pagePow2_ = std::has_single_bit(params_.pageBytes);
    pageShift_ =
        static_cast<unsigned>(std::countr_zero(params_.pageBytes));
    numSets_ = params_.numSets();
    setsPow2_ = std::has_single_bit(numSets_);
    entries_.resize(params_.entries);
}

std::size_t
Tlb::findWay(std::size_t set, std::uint64_t page) const
{
    const std::size_t base = set * params_.associativity;
    for (std::size_t w = 0; w < params_.associativity; ++w) {
        const Entry& e = entries_[base + w];
        if (e.valid && e.page == page)
            return w;
    }
    return params_.associativity;
}

std::size_t
Tlb::victimWay(std::size_t set) const
{
    const std::size_t base = set * params_.associativity;
    std::size_t victim = 0;
    std::uint64_t oldest = entries_[base].lastUse;
    for (std::size_t w = 0; w < params_.associativity; ++w) {
        const Entry& e = entries_[base + w];
        if (!e.valid)
            return w;
        if (e.lastUse < oldest) {
            oldest = e.lastUse;
            victim = w;
        }
    }
    return victim;
}

TlbOutcome
Tlb::translate(Addr addr, ContextId ctx, Tick now)
{
    TlbOutcome out;
    const std::uint64_t page = pageNumber(addr);
    const std::size_t set = setOf(page);
    const std::size_t base = set * params_.associativity;

    const std::size_t way = findWay(set, page);
    if (way < params_.associativity) {
        Entry& e = entries_[base + way];
        e.lastUse = ++useCounter_;
        e.owner = ctx;
        ++hits_;
        out.hit = true;
        return out;
    }

    // Miss: walk the page table and fill, evicting the LRU way when the
    // set is full.  A displacement of another context's entry is the
    // auditable conflict.
    ++misses_;
    out.latency = params_.missCycles;
    const std::size_t victim = victimWay(set);
    Entry& e = entries_[base + victim];
    if (e.valid && e.owner != ctx) {
        ++conflicts_;
        const TlbConflict conflict{now, ctx, e.owner};
        for (const auto& listener : listeners_)
            listener(conflict);
    }
    e.valid = true;
    e.page = page;
    e.owner = ctx;
    e.lastUse = ++useCounter_;
    return out;
}

bool
Tlb::probe(Addr addr) const
{
    return findWay(setIndex(addr), pageNumber(addr)) <
           params_.associativity;
}

void
Tlb::flush()
{
    for (Entry& e : entries_)
        e.valid = false;
}

void
Tlb::addConflictListener(TlbConflictListener listener)
{
    listeners_.push_back(std::move(listener));
}

} // namespace cchunter
