#include "reference/bloom_filter.hh"

#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace cchunter
{

namespace
{

std::size_t
roundUpPow2(std::size_t v)
{
    std::size_t p = 64;
    while (p < v)
        p <<= 1;
    return p;
}

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdull;
    z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return z ^ (z >> 33);
}

} // namespace

BloomFilter::BloomFilter(std::size_t num_bits, unsigned num_hashes)
    : numHashes_(num_hashes)
{
    if (num_bits == 0)
        fatal("BloomFilter requires a non-zero size");
    if (num_hashes == 0)
        fatal("BloomFilter requires at least one hash function");
    const std::size_t bits = roundUpPow2(num_bits);
    words_.assign(bits / 64, 0);
    mask_ = bits - 1;
}

std::uint64_t
BloomFilter::hash(std::uint64_t key, unsigned i) const
{
    // Kirsch-Mitzenmacher double hashing: h_i = h1 + i*h2.
    const std::uint64_t h1 = mix64(key);
    const std::uint64_t h2 = mix64(key ^ 0x9e3779b97f4a7c15ull) | 1;
    return (h1 + i * h2) & mask_;
}

void
BloomFilter::insert(std::uint64_t key)
{
    for (unsigned i = 0; i < numHashes_; ++i) {
        const std::uint64_t bit = hash(key, i);
        words_[bit >> 6] |= (std::uint64_t{1} << (bit & 63));
    }
}

bool
BloomFilter::mayContain(std::uint64_t key) const
{
    for (unsigned i = 0; i < numHashes_; ++i) {
        const std::uint64_t bit = hash(key, i);
        if (!(words_[bit >> 6] & (std::uint64_t{1} << (bit & 63))))
            return false;
    }
    return true;
}

void
BloomFilter::clear()
{
    for (auto& w : words_)
        w = 0;
}

std::size_t
BloomFilter::popCount() const
{
    std::size_t n = 0;
    for (auto w : words_)
        n += std::popcount(w);
    return n;
}

double
BloomFilter::estimatedFalsePositiveRate(std::size_t n) const
{
    const double m = static_cast<double>(sizeBits());
    const double k = static_cast<double>(numHashes_);
    const double p = 1.0 - std::exp(-k * static_cast<double>(n) / m);
    return std::pow(p, k);
}

} // namespace cchunter
