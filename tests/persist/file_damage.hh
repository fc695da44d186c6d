/**
 * @file
 * Seeded damage to a persisted file image, in the three shapes storage
 * corruption takes: a flipped bit (at-rest or in-flight corruption), a
 * torn tail (a write cut short) and a scribbled-over header (a foreign
 * file at the path).  The same seed damages the same bytes on every
 * run, so a recovery test that uses it is reproducible.
 */

#ifndef CCHUNTER_TESTS_PERSIST_FILE_DAMAGE_HH
#define CCHUNTER_TESTS_PERSIST_FILE_DAMAGE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace cchunter
{

enum class FileDamage
{
    FlipBit,      //!< one random bit flipped
    TearTail,     //!< a random-length tail lost (at least one byte)
    ClobberMagic, //!< the leading 8 bytes overwritten with noise
};

/**
 * Damage `bytes` in place.  Returns how many bytes changed or were
 * lost; an empty image is left alone and returns 0.
 */
inline std::size_t
damageImage(std::vector<std::uint8_t>& bytes, FileDamage damage,
            std::uint64_t seed = 1)
{
    if (bytes.empty())
        return 0;
    Rng rng(seed);
    switch (damage) {
    case FileDamage::FlipBit:
        bytes[rng.nextBelow(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        return 1;
    case FileDamage::TearTail: {
        const std::size_t torn = bytes.size() - rng.nextBelow(bytes.size());
        bytes.resize(bytes.size() - torn);
        return torn;
    }
    case FileDamage::ClobberMagic: {
        std::size_t changed = 0;
        for (std::size_t i = 0; i < std::min<std::size_t>(8, bytes.size());
             ++i) {
            const auto noise = static_cast<std::uint8_t>(rng.nextBelow(256));
            changed += noise != bytes[i];
            bytes[i] = noise;
        }
        return changed;
    }
    }
    return 0;
}

} // namespace cchunter

#endif // CCHUNTER_TESTS_PERSIST_FILE_DAMAGE_HH
