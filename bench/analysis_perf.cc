/**
 * @file
 * Analysis-kernel timing (paper section V-B): the pattern-clustering
 * algorithm runs every 51.2 s and takes at most 0.25 s per computation
 * (0.02 s with feature-dimension reduction); the autocorrelation
 * analysis runs every OS time quantum (0.1 s) and takes at most
 * 0.001 s.  These google-benchmark measurements confirm the software
 * analyses are cheap enough to run as background daemons.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "detect/autocorrelation.hh"
#include "detect/burst_detector.hh"
#include "detect/detector.hh"
#include "detect/event_density.hh"
#include "detect/incremental_autocorr.hh"
#include "detect/kmeans.hh"
#include "detect/pattern_clustering.hh"
#include "util/fft.hh"
#include "util/ring_buffer.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace cchunter
{
namespace
{

std::vector<double>
makeLabelSeries(std::size_t n)
{
    std::vector<double> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back((i / 256) % 2 ? 1.0 : 0.0);
    return s;
}

std::vector<Histogram>
makeQuanta(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Histogram> quanta;
    quanta.reserve(n);
    for (std::size_t q = 0; q < n; ++q) {
        Histogram h(128);
        h.addSample(0, 2000 + rng.nextBelow(500));
        if (q % 2) {
            h.addSample(19 + rng.nextBelow(3), 100 + rng.nextBelow(50));
            h.addSample(20, 200 + rng.nextBelow(50));
        } else {
            h.addSample(1, rng.nextBelow(20));
            h.addSample(2, rng.nextBelow(8));
        }
        quanta.push_back(std::move(h));
    }
    return quanta;
}

/**
 * Autocorrelation over one quantum's conflict events at the paper's
 * scale (lags up to 1000).  Paper budget: 1 ms per quantum.
 */
void
BM_AutocorrelogramQuantum(benchmark::State& state)
{
    const auto series =
        makeLabelSeries(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto gram = autocorrelogram(series, 1000);
        benchmark::DoNotOptimize(gram);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AutocorrelogramQuantum)
    ->Arg(2048)
    ->Arg(8192)
    ->Arg(32768)
    ->Arg(1 << 16)
    ->Arg(1 << 20);

std::vector<double>
makeNoisyLabelSeries(std::size_t n)
{
    Rng rng(17);
    std::vector<double> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = (i / 256) % 2 ? 1.0 : 0.0;
        if (rng.nextBool(0.05))
            v = 1.0 - v;
        s.push_back(v);
    }
    return s;
}

/**
 * A frozen copy of the direct correlogram as it stood before its
 * four-lag blocks: one serial add chain per lag.  No library kernel
 * calls it, so BM_AutocorrelogramNaiveFull times the same loop on
 * every revision, which is what makes it the regression gate's
 * machine-speed yardstick (tools/check_bench_regression.py).
 */
double
sumSquaredDeviations(const std::vector<double>& series, double mean)
{
    double s = 0.0;
    for (double x : series)
        s += (x - mean) * (x - mean);
    return s;
}

double
numeratorAt(const std::vector<double>& series, double mean,
            std::size_t lag)
{
    double s = 0.0;
    for (std::size_t i = 0; i + lag < series.size(); ++i)
        s += (series[i] - mean) * (series[i + lag] - mean);
    return s;
}

std::vector<double>
singleAccumulatorCorrelogram(const std::vector<double>& series,
                             std::size_t max_lag)
{
    std::vector<double> out;
    out.reserve(max_lag + 1);
    if (series.size() < 2) {
        out.assign(max_lag + 1, 0.0);
        return out;
    }
    const double mean = meanOf(series);
    const double denom = sumSquaredDeviations(series, mean);
    if (denom == 0.0) {
        out.assign(max_lag + 1, 0.0);
        return out;
    }
    for (std::size_t lag = 0; lag <= max_lag; ++lag) {
        if (lag >= series.size()) {
            out.push_back(0.0);
            continue;
        }
        out.push_back(numeratorAt(series, mean, lag) / denom);
    }
    return out;
}

/**
 * Full correlogram at max_lag = N/2 through the frozen
 * single-accumulator loop: the direct evaluation is O(N^2/2) here,
 * which is the regime the FFT path exists for.  One iteration keeps
 * the N = 2^18 case (~20 s of O(N^2) work) bounded; compare against
 * BM_AutocorrelogramFftFull at the same N for the speedup (>= 10x
 * required at 2^18).
 */
void
BM_AutocorrelogramNaiveFull(benchmark::State& state)
{
    const auto series =
        makeNoisyLabelSeries(static_cast<std::size_t>(state.range(0)));
    const std::size_t max_lag = series.size() / 2;
    for (auto _ : state) {
        auto gram = singleAccumulatorCorrelogram(series, max_lag);
        benchmark::DoNotOptimize(gram);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AutocorrelogramNaiveFull)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** The library's direct correlogram (four-lag blocks) at the same
 *  shapes as BM_AutocorrelogramNaiveFull. */
void
BM_AutocorrelogramDirectFull(benchmark::State& state)
{
    const auto series =
        makeNoisyLabelSeries(static_cast<std::size_t>(state.range(0)));
    const std::size_t max_lag = series.size() / 2;
    for (auto _ : state) {
        auto gram = autocorrelogramNaive(series, max_lag);
        benchmark::DoNotOptimize(gram);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AutocorrelogramDirectFull)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

/** FFT path at the same shapes, plus 2^20 (naive is intractable). */
void
BM_AutocorrelogramFftFull(benchmark::State& state)
{
    const auto series =
        makeNoisyLabelSeries(static_cast<std::size_t>(state.range(0)));
    const std::size_t max_lag = series.size() / 2;
    for (auto _ : state) {
        auto gram = autocorrelogramFft(series, max_lag);
        benchmark::DoNotOptimize(gram);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AutocorrelogramFftFull)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/**
 * Full pattern-clustering pass over a 512-quantum window.  Paper
 * budget: 0.25 s worst case without feature-dimension reduction,
 * 0.02 s with it.
 */
void
BM_PatternClusteringWindow(benchmark::State& state)
{
    const auto quanta =
        makeQuanta(static_cast<std::size_t>(state.range(0)), 7);
    PatternClusteringParams params;
    params.maxFeatureDims =
        static_cast<std::size_t>(state.range(1));
    PatternClusteringAnalyzer analyzer(params);
    for (auto _ : state) {
        auto result = analyzer.analyze(quanta);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_PatternClusteringWindow)
    ->Args({64, 0})
    ->Args({512, 0})   // all 128 dims (paper: <= 0.25 s)
    ->Args({512, 16}); // reduced (paper: <= 0.02 s)

/** Burst analysis of one density histogram. */
void
BM_BurstAnalysis(benchmark::State& state)
{
    auto quanta = makeQuanta(1, 11);
    BurstDetector detector;
    for (auto _ : state) {
        auto a = detector.analyze(quanta[0]);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_BurstAnalysis);

/** Density-histogram construction from a raw event train. */
void
BM_EventDensityHistogram(benchmark::State& state)
{
    Rng rng(3);
    EventTrain train(0, 250000000);
    Tick now = 0;
    for (int i = 0; i < 50000; ++i) {
        now += rng.nextBelow(5000) + 1;
        train.addEvent(now);
    }
    for (auto _ : state) {
        auto h = buildEventDensityHistogram(train, 100000);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_EventDensityHistogram);

/** k-means over 512 discretized histograms (the clustering core). */
void
BM_KMeans512(benchmark::State& state)
{
    Rng rng(5);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 512; ++i) {
        std::vector<double> p(128, 0.0);
        p[0] = 10.0;
        p[20] = (i % 2) ? 8.0 + rng.nextDouble() : 0.0;
        p[1] = rng.nextDouble();
        points.push_back(std::move(p));
    }
    KMeansParams params;
    params.k = 4;
    for (auto _ : state) {
        auto r = kmeans(points, params);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_KMeans512);

/**
 * Daemon fan-out: the per-quantum analysis pass over 16 monitored
 * units (each an oscillation analysis of an 8192-event labelled train
 * plus a burst scan), spread across a pool of range(0) threads.  This
 * is the per-slot work AuditDaemon::analyzeBatch performs; wall
 * time should drop as the pool grows (>= 2x from 1 to 4 threads on a
 * 4-core host).
 */
void
BM_DaemonFanOut(benchmark::State& state)
{
    constexpr std::size_t kUnits = 16;
    std::vector<std::vector<double>> series;
    std::vector<Histogram> hists;
    Rng rng(23);
    for (std::size_t u = 0; u < kUnits; ++u) {
        std::vector<double> s;
        const std::size_t period = 64 << (u % 4);
        for (std::size_t i = 0; i < 8192; ++i) {
            double v = (i / (period / 2)) % 2 ? 1.0 : 0.0;
            if (rng.nextBool(0.05))
                v = 1.0 - v;
            s.push_back(v);
        }
        series.push_back(std::move(s));
        Histogram h(128);
        h.addSample(0, 2000 + rng.nextBelow(500));
        h.addSample(19 + rng.nextBelow(3), 100 + rng.nextBelow(50));
        hists.push_back(std::move(h));
    }
    const auto threads = static_cast<std::size_t>(state.range(0));
    ThreadPool pool(threads);
    OscillationDetector osc;
    BurstDetector burst;
    for (auto _ : state) {
        std::vector<OscillationAnalysis> verdicts(kUnits);
        std::vector<BurstAnalysis> bursts(kUnits);
        auto analyzeUnit = [&](std::size_t u) {
            verdicts[u] = osc.analyze(series[u]);
            bursts[u] = burst.analyze(hists[u]);
        };
        if (threads > 1) {
            pool.parallelFor(kUnits, analyzeUnit);
        } else {
            for (std::size_t u = 0; u < kUnits; ++u)
                analyzeUnit(u);
        }
        benchmark::DoNotOptimize(verdicts);
        benchmark::DoNotOptimize(bursts);
    }
}
BENCHMARK(BM_DaemonFanOut)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Streaming window maintenance: feed range(0) total quanta through a
 * 512-capacity ring while incrementally maintaining the merged
 * contention histogram (merge on drain, unmerge on evict).  The
 * bounded-memory pipeline's core claim is that per-quantum cost is
 * independent of run length, so items/s must stay flat as the total
 * grows from 1x to 16x the retention window.
 */
void
BM_StreamingWindowMaintain(benchmark::State& state)
{
    const auto total = static_cast<std::size_t>(state.range(0));
    const auto source = makeQuanta(512, 29);
    for (auto _ : state) {
        RingBuffer<Histogram> window(512);
        Histogram merged(128);
        for (std::size_t q = 0; q < total; ++q) {
            Histogram h = source[q % source.size()];
            merged.merge(h);
            if (auto evicted = window.push(std::move(h)))
                merged.unmerge(*evicted);
        }
        benchmark::DoNotOptimize(merged);
        benchmark::DoNotOptimize(window);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(total));
}
BENCHMARK(BM_StreamingWindowMaintain)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192);

/**
 * The pre-streaming alternative: retain every quantum forever and
 * re-merge the full history each quantum (what the per-quantum
 * analysis pass amounted to before the incremental merged histogram).
 * items/s degrades linearly with the total; the contrast with the
 * flat BM_StreamingWindowMaintain rate is the point.
 */
void
BM_LegacyUnboundedRemerge(benchmark::State& state)
{
    const auto total = static_cast<std::size_t>(state.range(0));
    const auto source = makeQuanta(512, 29);
    for (auto _ : state) {
        std::vector<Histogram> history;
        for (std::size_t q = 0; q < total; ++q) {
            history.push_back(source[q % source.size()]);
            Histogram merged(128);
            for (const auto& h : history)
                merged.merge(h);
            benchmark::DoNotOptimize(merged);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(total));
}
BENCHMARK(BM_LegacyUnboundedRemerge)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/**
 * Kernel microbench: butterfly throughput of one whole planned
 * complex FFT (the plan is warm, so only the vectorised stages are
 * measured).  range(1) toggles the SIMD backend — the delta isolates
 * what the butterfly vectorisation buys.
 */
void
BM_PlannedFft(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    setSimdEnabled(state.range(1) != 0);
    Rng rng(41);
    std::vector<std::complex<double>> base;
    base.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        base.emplace_back(rng.nextGaussian(0.0, 1.0),
                          rng.nextGaussian(0.0, 1.0));
    const FftPlan plan(n);
    auto work = base;
    for (auto _ : state) {
        work = base;
        fftInPlace(work.data(), n, plan);
        benchmark::DoNotOptimize(work.data());
    }
    setSimdEnabled(true);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlannedFft)
    ->Args({1 << 12, 1})
    ->Args({1 << 12, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 0});

/** Kernel microbench: the correlogram normalisation pass (divide by
 *  r_0) over a full lag range, SIMD on/off. */
void
BM_NormalizationPass(benchmark::State& state)
{
    setSimdEnabled(state.range(0) != 0);
    Rng rng(43);
    std::vector<double> base;
    base.reserve(1 << 16);
    for (std::size_t i = 0; i < (std::size_t{1} << 16); ++i)
        base.push_back(rng.nextDouble() + 1.0);
    auto work = base;
    for (auto _ : state) {
        work = base;
        simd::divideInPlace(work.data(), work.size(), 3.7);
        benchmark::DoNotOptimize(work.data());
    }
    setSimdEnabled(true);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_NormalizationPass)->Arg(1)->Arg(0);

/** Kernel microbench: the k-means distance kernel over the clustering
 *  feature dimensionality (128), SIMD on/off. */
void
BM_DistanceKernel(benchmark::State& state)
{
    setSimdEnabled(state.range(0) != 0);
    Rng rng(47);
    std::vector<double> a(128), b(128);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = rng.nextGaussian(0.0, 1.0);
        b[i] = rng.nextGaussian(0.0, 1.0);
    }
    for (auto _ : state) {
        double d = simd::squaredDistance(a.data(), b.data(), a.size());
        benchmark::DoNotOptimize(d);
    }
    setSimdEnabled(true);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_DistanceKernel)->Arg(1)->Arg(0);

/**
 * Sliding-window refresh, incremental: stream 4096 labels through a
 * 4096-capacity maintainer that is already full (every push evicts),
 * querying the full correlogram once per 256 pushes — the per-quantum
 * audit cadence.  Compare with BM_SlidingWindowRecompute: same
 * schedule, but each query recomputes from the window contents.
 */
void
BM_SlidingWindowIncremental(benchmark::State& state)
{
    constexpr std::size_t kWindow = 4096;
    constexpr std::size_t kLag = 1000;
    const auto feed = makeNoisyLabelSeries(2 * kWindow);
    IncrementalAutocorrelation inc(kLag, kWindow);
    for (std::size_t i = 0; i < kWindow; ++i)
        inc.push(feed[i]);
    std::vector<double> gram;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kWindow; ++i) {
            inc.push(feed[kWindow + i]);
            if (i % 256 == 255) {
                inc.correlogram(kLag, gram);
                benchmark::DoNotOptimize(gram.data());
            }
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_SlidingWindowIncremental)->Unit(benchmark::kMillisecond);

/** The full-recompute reference for BM_SlidingWindowIncremental. */
void
BM_SlidingWindowRecompute(benchmark::State& state)
{
    constexpr std::size_t kWindow = 4096;
    constexpr std::size_t kLag = 1000;
    const auto feed = makeNoisyLabelSeries(2 * kWindow);
    std::vector<double> window(feed.begin(), feed.begin() + kWindow);
    for (auto _ : state) {
        for (std::size_t i = 0; i < kWindow; ++i) {
            window.erase(window.begin());
            window.push_back(feed[kWindow + i]);
            if (i % 256 == 255) {
                auto gram = autocorrelogram(window, kLag);
                benchmark::DoNotOptimize(gram);
            }
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_SlidingWindowRecompute)->Unit(benchmark::kMillisecond);

/** End-to-end contention verdict over a 512-quantum window. */
void
BM_ContentionVerdict512(benchmark::State& state)
{
    const auto quanta = makeQuanta(512, 13);
    CCHunter hunter;
    for (auto _ : state) {
        auto v = hunter.analyzeContention(quanta);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_ContentionVerdict512);

} // namespace
} // namespace cchunter

/**
 * Like BENCHMARK_MAIN(), but also writes the machine-readable run
 * record to BENCH_analysis.json unless the caller already chose a
 * destination with --benchmark_out=...
 */
int
main(int argc, char** argv)
{
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0)
            has_out = true;

    std::vector<char*> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_analysis.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }

    int effective_argc = static_cast<int>(args.size());
    benchmark::Initialize(&effective_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(effective_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
