/**
 * @file
 * Incremental sliding-window autocorrelation (paper section IV-D math
 * maintained the way PR 2 maintained histograms: update-on-append,
 * downdate-on-evict).
 *
 * The daemon's end-of-run oscillation verdict needs the correlogram
 * of the full retained label window; recomputing it per analysis
 * costs O(N log N) in the window length.  This maintainer tracks the
 * raw lag products
 *
 *   sumXY[p] = sum_i x_i * x_{i+p},   p = 0..maxLag
 *
 * plus the running sum S and sum of squares Q over its own ring, at
 * O(maxLag) per pushed sample, and reconstructs the mean-centred
 * correlogram in O(maxLag) per query:
 *
 *   num[p] = sumXY[p] - mu*(head(p) + tail(p)) + (n-p)*mu^2
 *   den    = Q - 2*mu*S + n*mu^2
 *   r_p    = num[p] / den
 *
 * where head(p)/tail(p) are the sums of the first/last n-p samples
 * (recovered from two prefix scans over at most maxLag boundary
 * samples).  For the binary 0/1 label series the daemon feeds it,
 * every maintained sum is an exact integer, so the only deviation
 * from a full recompute is the final-expression rounding —
 * property-tested within 1e-9 against the reference correlogram.
 *
 * Pushing or evicting an exact zero skips the O(maxLag) lag update:
 * adding a ±0 product leaves every finite sum bit-unchanged, so a
 * sparse label series pays only for its ones.  The ring grows with
 * use up to `capacity` (the RingBuffer policy), so a short audit
 * never touches the full window's storage.
 */

#ifndef CCHUNTER_DETECT_INCREMENTAL_AUTOCORR_HH
#define CCHUNTER_DETECT_INCREMENTAL_AUTOCORR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cchunter
{

/**
 * Sliding-window autocorrelation state over the most recent
 * `capacity` samples.
 */
class IncrementalAutocorrelation
{
  public:
    /** max_lag >= 2 (the detector's own floor); capacity > max_lag
     *  makes the window meaningful but is not required. */
    IncrementalAutocorrelation(std::size_t max_lag,
                               std::size_t capacity);

    /** Append a sample, evicting the oldest once at capacity.
     *  O(min(maxLag, size)); O(1) when both the pushed and the evicted
     *  sample are exactly zero. */
    void push(double x);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t maxLag() const { return maxLag_; }

    /** Samples evicted so far. */
    std::uint64_t evictions() const { return evictions_; }

    /**
     * Mean-centred correlogram for lags 0..max_lag (max_lag <=
     * maxLag()), matching autocorrelogram(window, max_lag) within
     * 1e-9: zeros for fewer than 2 samples or a zero-variance window,
     * r_0 = 1 otherwise.  O(max_lag); no allocation once `out` has
     * capacity.
     */
    void correlogram(std::size_t max_lag,
                     std::vector<double>& out) const;
    std::vector<double> correlogram(std::size_t max_lag) const;

  private:
    double at(std::size_t i) const
    {
        return ring_[(head_ + i) % capacity_];
    }
    void evictFront();
    /** Add x's lag products with the retained window (x != 0). */
    void accumulate(double x);

    std::size_t maxLag_ = 0;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t evictions_ = 0;
    double sum_ = 0.0;   //!< S  = sum of the window
    double sumSq_ = 0.0; //!< Q  = sum of squares
    std::vector<double> ring_; //!< grows to capacity, then wraps
    std::vector<double> sumXY_; //!< raw lag products, 0..maxLag

    // Query-time prefix scans (first/last boundary sums); members so
    // a steady-state query allocates nothing.
    mutable std::vector<double> firstPrefix_;
    mutable std::vector<double> lastPrefix_;
};

} // namespace cchunter

#endif // CCHUNTER_DETECT_INCREMENTAL_AUTOCORR_HH
