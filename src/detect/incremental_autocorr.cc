#include "detect/incremental_autocorr.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

IncrementalAutocorrelation::IncrementalAutocorrelation(
    std::size_t max_lag, std::size_t capacity)
    : maxLag_(max_lag), capacity_(capacity)
{
    if (maxLag_ < 2)
        fatal("IncrementalAutocorrelation: maxLag must be >= 2");
    if (capacity_ == 0)
        fatal("IncrementalAutocorrelation: capacity must be > 0");
    sumXY_.assign(maxLag_ + 1, 0.0);
    firstPrefix_.assign(maxLag_ + 1, 0.0);
    lastPrefix_.assign(maxLag_ + 1, 0.0);
}

void
IncrementalAutocorrelation::evictFront()
{
    const double y = ring_[head_];
    head_ = (head_ + 1) % capacity_;
    --size_;
    ++evictions_;
    if (y == 0.0)
        return; // every product with a zero sample is zero
    // y participated in sumXY[p] as y * x_p for every retained lag.
    // at(lag - 1) ascends from the new head_, so the ring splits into
    // at most two contiguous segments — walk raw pointers instead of
    // paying a modulo per lag (this loop runs once per evicted sample).
    const std::size_t top = std::min(maxLag_, size_);
    std::size_t lag = 1;
    std::size_t idx = head_;
    while (lag <= top) {
        if (idx >= capacity_)
            idx -= capacity_;
        const std::size_t run =
            std::min(top - lag + 1, capacity_ - idx);
        const double* x = ring_.data() + idx;
        double* xy = sumXY_.data() + lag;
        for (std::size_t j = 0; j < run; ++j)
            xy[j] -= y * x[j];
        lag += run;
        idx += run;
    }
    sumXY_[0] -= y * y;
    sum_ -= y;
    sumSq_ -= y * y;
}

void
IncrementalAutocorrelation::push(double x)
{
    if (size_ == capacity_)
        evictFront();
    if (x != 0.0)
        accumulate(x);
    // Storage grows with use: head_ stays 0 until the first eviction,
    // which only happens once the ring has reached capacity.
    if (ring_.size() < capacity_)
        ring_.push_back(x);
    else
        ring_[(head_ + size_) % capacity_] = x;
    ++size_;
}

void
IncrementalAutocorrelation::accumulate(double x)
{
    // x pairs with the last min(maxLag, size) samples: at(size_-lag)
    // descends from the newest sample, again at most two contiguous
    // ring segments.
    const std::size_t top = std::min(maxLag_, size_);
    std::size_t lag = 1;
    while (lag <= top) {
        std::size_t pos = head_ + size_ - lag;
        if (pos >= capacity_)
            pos -= capacity_;
        const std::size_t run = std::min(top - lag + 1, pos + 1);
        const double* xs = ring_.data() + pos;
        double* xy = sumXY_.data() + lag;
        for (std::size_t j = 0; j < run; ++j)
            xy[j] += xs[-static_cast<std::ptrdiff_t>(j)] * x;
        lag += run;
    }
    sumXY_[0] += x * x;
    sum_ += x;
    sumSq_ += x * x;
}

void
IncrementalAutocorrelation::correlogram(std::size_t max_lag,
                                        std::vector<double>& out) const
{
    if (max_lag > maxLag_)
        fatal("IncrementalAutocorrelation: lag beyond maintained "
              "range");
    out.assign(max_lag + 1, 0.0);
    const std::size_t n = size_;
    if (n < 2)
        return;
    const double nn = static_cast<double>(n);
    const double mu = sum_ / nn;
    // den = sum (x - mu)^2, expanded around the maintained sums.  For
    // a constant 0/1 window every term is exact, so the degenerate
    // window still reads exactly zero (matching the reference's exact
    // zero-variance test).
    const double den = sumSq_ - 2.0 * mu * sum_ + nn * mu * mu;
    if (den <= 0.0)
        return;

    const std::size_t top = std::min(max_lag, n - 1);
    // Boundary prefix sums: firstPrefix_[p] = x_0 + .. + x_{p-1},
    // lastPrefix_[p] = x_{n-1} + .. + x_{n-p}.
    firstPrefix_[0] = 0.0;
    lastPrefix_[0] = 0.0;
    for (std::size_t p = 1; p <= top; ++p) {
        firstPrefix_[p] = firstPrefix_[p - 1] + at(p - 1);
        lastPrefix_[p] = lastPrefix_[p - 1] + at(n - p);
    }
    for (std::size_t lag = 0; lag <= top; ++lag) {
        const double head = sum_ - lastPrefix_[lag];  // x_0..x_{n-1-lag}
        const double tail = sum_ - firstPrefix_[lag]; // x_lag..x_{n-1}
        const double num =
            sumXY_[lag] - mu * (head + tail) +
            static_cast<double>(n - lag) * mu * mu;
        out[lag] = num / den;
    }
}

std::vector<double>
IncrementalAutocorrelation::correlogram(std::size_t max_lag) const
{
    std::vector<double> out;
    correlogram(max_lag, out);
    return out;
}

} // namespace cchunter
