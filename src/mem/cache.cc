#include "mem/cache.hh"

#include <bit>

#include "mem/lru_victim.hh"
#include "util/logging.hh"

namespace cchunter
{

Cache::Cache(std::string name, CacheGeometry geometry)
    : name_(std::move(name)), geom_(geometry)
{
    // A line address must leave bit 0 free for the valid bit.
    if (geom_.lineSize < 2 || !std::has_single_bit(geom_.lineSize))
        fatal("Cache ", name_,
              ": line size must be a power of two of at least 2");
    if (geom_.associativity == 0)
        fatal("Cache ", name_, ": associativity must be positive");
    if (geom_.sizeBytes % (geom_.lineSize * geom_.associativity) != 0)
        fatal("Cache ", name_, ": size not divisible into sets");
    numSets_ = geom_.numSets();
    if (numSets_ == 0)
        fatal("Cache ", name_, ": zero sets");
    lineShift_ = static_cast<unsigned>(std::countr_zero(geom_.lineSize));
    setsPow2_ = std::has_single_bit(numSets_);
    flush();
}

std::size_t
Cache::findWay(std::size_t base, Addr tag) const
{
    const Addr* tags = &tags_[base];
    for (std::size_t w = 0; w < geom_.associativity; ++w)
        if (tags[w] == tag)
            return w;
    return geom_.associativity; // not found
}

CacheAccessResult
Cache::access(Addr addr, ContextId ctx, Tick now)
{
    CacheAccessResult result;
    const Addr line = lineAddr(addr);
    const Addr tag = tagOf(line);
    const std::size_t base = setIndex(addr) * geom_.associativity;

    const std::size_t way = findWay(base, tag);
    if (way != geom_.associativity) {
        // Hit.
        const std::size_t i = base + way;
        result.hit = true;
        lastUse_[i] = ++useCounter_;
        owners_[i] = ctx;
        ++hits_;
        if (monitor_)
            monitor_->onAccess(i, line, ctx, now);
        return result;
    }

    // Miss: pick a victim and fill.
    ++misses_;
    const std::size_t i =
        base + lruVictimWay(&lastUse_[base], geom_.associativity);
    const bool valid = tags_[i] != 0;
    const Addr victimLine = tags_[i] & ~Addr{1};
    const ContextId victimOwner = owners_[i];
    if (valid) {
        result.evicted = true;
        result.evictedLineAddr = victimLine;
        result.evictedOwner = victimOwner;
        ++evictions_;
    }
    if (monitor_) {
        monitor_->onMiss(line, ctx, victimOwner, valid, now);
        if (valid)
            monitor_->onEvict(i, victimLine, victimOwner, now);
    }
    tags_[i] = tag;
    owners_[i] = ctx;
    lastUse_[i] = ++useCounter_;
    if (monitor_)
        monitor_->onAccess(i, line, ctx, now);
    return result;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setIndex(addr) * geom_.associativity,
                   tagOf(lineAddr(addr))) != geom_.associativity;
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t base = setIndex(addr) * geom_.associativity;
    const std::size_t way = findWay(base, tagOf(lineAddr(addr)));
    if (way == geom_.associativity)
        return false;
    tags_[base + way] = 0;
    owners_[base + way] = invalidContext;
    lastUse_[base + way] = 0;
    return true;
}

void
Cache::flush()
{
    const std::size_t blocks = geom_.numBlocks();
    tags_.assign(blocks, 0);
    owners_.assign(blocks, invalidContext);
    lastUse_.assign(blocks, 0);
}

ContextId
Cache::ownerOf(Addr addr) const
{
    const std::size_t base = setIndex(addr) * geom_.associativity;
    const std::size_t way = findWay(base, tagOf(lineAddr(addr)));
    if (way == geom_.associativity)
        return invalidContext;
    return owners_[base + way];
}

} // namespace cchunter
