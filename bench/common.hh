/**
 * @file
 * Shared plumbing for the per-figure benchmark harnesses: command-line
 * option parsing into ScenarioOptions, the AuditRun options a harness
 * audits a channel or benign pair with, and terminal rendering of the
 * paper's figure shapes.
 *
 * Every harness accepts "key=value" arguments, e.g.:
 *   bench_fig10_bandwidth_sweep quanta=8 seed=3 quantum=250000000
 */

#ifndef CCHUNTER_BENCH_COMMON_HH
#define CCHUNTER_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "detect/event_train.hh"
#include "scenario/experiment.hh"
#include "util/ascii_plot.hh"
#include "util/config.hh"
#include "util/histogram.hh"
#include "util/stats.hh"
#include "util/table_writer.hh"

namespace cchunter::bench
{

/** Populate scenario options from key=value arguments. */
inline ScenarioOptions
optionsFromConfig(const Config& cfg, ScenarioOptions defaults = {})
{
    ScenarioOptions o = defaults;
    o.bandwidthBps = cfg.getDouble("bandwidth", o.bandwidthBps);
    o.quanta = cfg.getUint("quanta", o.quanta);
    o.quantum = cfg.getUint("quantum", o.quantum);
    o.seed = cfg.getUint("seed", o.seed);
    o.noiseProcesses = static_cast<unsigned>(
        cfg.getUint("noise", o.noiseProcesses));
    o.noiseIntensity = cfg.getDouble("noise_intensity",
                                     o.noiseIntensity);
    o.maxSignalTicks = cfg.getUint("signal_ticks", o.maxSignalTicks);
    o.channelSets = cfg.getUint("sets", o.channelSets);
    o.cacheNoiseEvery = cfg.getUint("cache_noise_every",
                                    o.cacheNoiseEvery);
    return o;
}

/** A live audit of one workload under the given scenario options. */
inline OnlineAuditOptions
auditOf(AuditedWorkload workload, const ScenarioOptions& scenario)
{
    OnlineAuditOptions o;
    o.workload = workload;
    o.scenario = scenario;
    return o;
}

/** A live audit of a benign benchmark pair on two of its units. */
inline OnlineAuditOptions
benignAuditOf(const std::string& a, const std::string& b,
              BenignAuditUnits units, const ScenarioOptions& scenario)
{
    OnlineAuditOptions o = auditOf(AuditedWorkload::BenignPair, scenario);
    o.benignA = a;
    o.benignB = b;
    o.benignUnits = units;
    return o;
}

/** An event train of the given event times (in any order). */
inline EventTrain
eventTrainOf(std::vector<Tick> times)
{
    std::sort(times.begin(), times.end());
    EventTrain train;
    for (const Tick t : times)
        train.addEvent(t);
    return train;
}

/** Print a figure banner. */
inline void
banner(const std::string& figure, const std::string& caption)
{
    std::printf("\n==== %s ====\n%s\n\n", figure.c_str(),
                caption.c_str());
}

/** Render an event-density histogram like the paper's figures 6/10. */
inline void
printDensityHistogram(const Histogram& hist, const std::string& title,
                      const std::string& x_label,
                      std::size_t max_bin = 127)
{
    std::vector<double> bins;
    max_bin = std::min(max_bin, hist.numBins() - 1);
    for (std::size_t i = 0; i <= max_bin; ++i)
        bins.push_back(static_cast<double>(hist.bin(i)));
    PlotOptions opts;
    opts.title = title;
    opts.xLabel = x_label;
    asciiBars(std::cout, bins, opts);
    std::printf("  non-zero bins: %s\n", hist.toString().c_str());
}

/** Render an autocorrelogram like the paper's figures 8b/11/13. */
inline void
printCorrelogram(const std::vector<double>& correlogram,
                 const std::string& title)
{
    PlotOptions opts;
    opts.title = title;
    opts.xLabel = "lag";
    opts.yFromZero = true;
    asciiPlot(std::cout, correlogram, opts);
}

/** Render a sample series like figures 2/3/7. */
inline void
printSeries(const std::vector<double>& series, const std::string& title,
            const std::string& x_label)
{
    PlotOptions opts;
    opts.title = title;
    opts.xLabel = x_label;
    asciiPlot(std::cout, series, opts);
}

} // namespace cchunter::bench

#endif // CCHUNTER_BENCH_COMMON_HH
