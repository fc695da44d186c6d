#include "mem/cache.hh"

#include <bit>
#include <limits>

#include "util/logging.hh"

namespace cchunter
{

Cache::Cache(std::string name, CacheGeometry geometry)
    : name_(std::move(name)), geom_(geometry)
{
    if (geom_.lineSize == 0 || (geom_.lineSize & (geom_.lineSize - 1)))
        fatal("Cache ", name_, ": line size must be a power of two");
    if (geom_.associativity == 0)
        fatal("Cache ", name_, ": associativity must be positive");
    if (geom_.sizeBytes % (geom_.lineSize * geom_.associativity) != 0)
        fatal("Cache ", name_, ": size not divisible into sets");
    numSets_ = geom_.numSets();
    if (numSets_ == 0)
        fatal("Cache ", name_, ": zero sets");
    lineShift_ = static_cast<unsigned>(std::countr_zero(geom_.lineSize));
    setsPow2_ = std::has_single_bit(numSets_);
    blocks_.assign(geom_.numBlocks(), Block{});
}

std::size_t
Cache::findWay(std::size_t set, Addr line) const
{
    const std::size_t base = set * geom_.associativity;
    for (std::size_t w = 0; w < geom_.associativity; ++w) {
        const Block& b = blocks_[base + w];
        if (b.valid && b.lineAddr == line)
            return w;
    }
    return geom_.associativity; // not found
}

std::size_t
Cache::victimWay(std::size_t set) const
{
    const std::size_t base = set * geom_.associativity;
    std::size_t victim = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t w = 0; w < geom_.associativity; ++w) {
        const Block& b = blocks_[base + w];
        if (!b.valid)
            return w; // prefer invalid ways
        if (b.lastUse < oldest) {
            oldest = b.lastUse;
            victim = w;
        }
    }
    return victim;
}

CacheAccessResult
Cache::access(Addr addr, ContextId ctx, Tick now)
{
    CacheAccessResult result;
    const Addr line = lineAddr(addr);
    const std::size_t set = setIndex(addr);
    const std::size_t base = set * geom_.associativity;

    std::size_t way = findWay(set, line);
    if (way != geom_.associativity) {
        // Hit.
        result.hit = true;
        Block& b = blocks_[base + way];
        b.lastUse = ++useCounter_;
        b.owner = ctx;
        ++hits_;
        if (monitor_)
            monitor_->onAccess(base + way, line, ctx, now);
        return result;
    }

    // Miss: pick a victim and fill.
    ++misses_;
    way = victimWay(set);
    Block& b = blocks_[base + way];
    if (b.valid) {
        result.evicted = true;
        result.evictedLineAddr = b.lineAddr;
        result.evictedOwner = b.owner;
        ++evictions_;
    }
    if (monitor_) {
        monitor_->onMiss(line, ctx, b.owner, b.valid, now);
        if (b.valid)
            monitor_->onEvict(base + way, b.lineAddr, b.owner, now);
    }
    b.valid = true;
    b.lineAddr = line;
    b.owner = ctx;
    b.lastUse = ++useCounter_;
    if (monitor_)
        monitor_->onAccess(base + way, line, ctx, now);
    return result;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setIndex(addr), lineAddr(addr)) !=
           geom_.associativity;
}

bool
Cache::invalidate(Addr addr)
{
    const Addr line = lineAddr(addr);
    const std::size_t set = setIndex(addr);
    const std::size_t way = findWay(set, line);
    if (way == geom_.associativity)
        return false;
    blocks_[set * geom_.associativity + way] = Block{};
    return true;
}

void
Cache::flush()
{
    for (auto& b : blocks_)
        b = Block{};
}

ContextId
Cache::ownerOf(Addr addr) const
{
    const std::size_t set = setIndex(addr);
    const std::size_t way = findWay(set, lineAddr(addr));
    if (way == geom_.associativity)
        return invalidContext;
    return blocks_[set * geom_.associativity + way].owner;
}

} // namespace cchunter
