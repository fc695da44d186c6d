/**
 * @file
 * The LRU victim scan shared by the cache and TLB models.
 */

#ifndef CCHUNTER_MEM_LRU_VICTIM_HH
#define CCHUNTER_MEM_LRU_VICTIM_HH

#include <cstddef>
#include <cstdint>

namespace cchunter
{

/**
 * Victim way of one set from its LRU stamps: the lowest invalid way,
 * else the first least recently used way.  Both models keep stamp 0
 * for an invalid way and distinct stamps >= 1 for valid ways, so this
 * is the set's first minimum stamp, found in one branch-free pass.
 *
 * @param stamps The set's `ways` stamps, way 0 first.
 */
inline std::size_t
lruVictimWay(const std::uint64_t* stamps, std::size_t ways)
{
    std::size_t victim = 0;
    std::uint64_t oldest = stamps[0];
    for (std::size_t w = 1; w < ways; ++w) {
        const std::uint64_t stamp = stamps[w];
        const bool older = stamp < oldest;
        victim = older ? w : victim;
        oldest = older ? stamp : oldest;
    }
    return victim;
}

} // namespace cchunter

#endif // CCHUNTER_MEM_LRU_VICTIM_HH
