/**
 * @file
 * A compact k-hash Bloom filter: the test-side reference for the
 * conflict-miss tracker's generation-sliced filters.
 *
 * The CC-Auditor's practical conflict-miss tracker records replaced cache
 * tags in one three-hash Bloom filter per generation (paper section V-A).
 * The tracker stores those filters sliced, one byte per bit position;
 * one independent BloomFilter per generation, with the same hashing and
 * size rounding, is the model its equivalence fuzz compares against.
 */

#ifndef CCHUNTER_TESTS_REFERENCE_BLOOM_FILTER_HH
#define CCHUNTER_TESTS_REFERENCE_BLOOM_FILTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cchunter
{

/**
 * Bloom filter over 64-bit keys with a configurable number of hash
 * functions (the paper uses three).
 */
class BloomFilter
{
  public:
    /**
     * @param num_bits Size of the bit array (rounded up to a power of two).
     * @param num_hashes Number of hash probes per key.
     */
    explicit BloomFilter(std::size_t num_bits, unsigned num_hashes = 3);

    /** Insert a key. */
    void insert(std::uint64_t key);

    /** @return true if the key may have been inserted (false = definitely
     *  not). */
    bool mayContain(std::uint64_t key) const;

    /** Flash-clear every bit (models discarding a generation). */
    void clear();

    /** Number of bits in the underlying array. */
    std::size_t sizeBits() const { return words_.size() * 64; }

    /** Number of hash functions. */
    unsigned numHashes() const { return numHashes_; }

    /** Number of set bits (occupancy diagnostic). */
    std::size_t popCount() const;

    /** Expected false-positive rate for n inserted keys. */
    double estimatedFalsePositiveRate(std::size_t n) const;

  private:
    std::uint64_t hash(std::uint64_t key, unsigned i) const;

    std::vector<std::uint64_t> words_;
    std::uint64_t mask_;
    unsigned numHashes_;
};

} // namespace cchunter

#endif // CCHUNTER_TESTS_REFERENCE_BLOOM_FILTER_HH
