/**
 * @file
 * Figure 10: bandwidth sensitivity test (0.1 / 10 / 1000 bps) across
 * the memory bus, integer divider and cache covert channels.  While
 * the magnitudes of the Δt frequencies shrink at lower bandwidths, the
 * burst-distribution likelihood ratios stay above 0.9, and the cache
 * channel keeps its periodic autocorrelation signature.
 *
 * Runtime note: the 0.1 bps rows simulate 10.1 seconds of machine time
 * (two signalling episodes at the paper's 0.1 s OS quantum) with
 * reduced background-noise intensity; pass e.g. "skip_low=true" to
 * omit them or "quanta_low=..." to change the depth.
 */

#include <algorithm>

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

struct SweepPoint
{
    double bandwidth;
    std::size_t quanta;
    Tick quantum;
    double noiseIntensity;
};

ScenarioOptions
pointOptions(const SweepPoint& pt, const Config& cfg)
{
    ScenarioOptions o;
    o.bandwidthBps = pt.bandwidth;
    o.quanta = pt.quanta;
    o.quantum = pt.quantum;
    o.noiseIntensity = pt.noiseIntensity;
    o.seed = cfg.getUint("seed", 1);
    // All-ones message: every bit signals, so low-bandwidth runs are
    // guaranteed to contain signalling episodes inside the window.
    o.message = Message::fromBits(std::vector<bool>(64, true));
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const bool skip_low = cfg.getBool("skip_low", false);
    const std::size_t quanta_low = cfg.getUint("quanta_low", 101);

    std::vector<SweepPoint> points;
    if (!skip_low)
        points.push_back({0.1, quanta_low, 250000000, 0.25});
    points.push_back({10.0, 6, 250000000, 1.0});
    points.push_back({1000.0, 8, 25000000, 1.0});

    banner("Figure 10",
           "Bandwidth test (0.1 / 10 / 1000 bps) on all three covert "
           "channels.");

    TableWriter bus_t({"bandwidth (bps)", "lock events",
                       "burst peak bin", "likelihood ratio",
                       "bursty quanta", "detected"});
    TableWriter divider_t({"bandwidth (bps)", "conflict events",
                       "burst peak bin", "likelihood ratio",
                       "bursty quanta", "detected"});
    TableWriter cache_t({"bandwidth (bps)", "conflict events",
                         "dominant lag", "peak autocorr", "detected"});

    for (const auto& pt : points) {
        ScenarioOptions o = pointOptions(pt, cfg);

        AuditRun bus_run(auditOf(AuditedWorkload::Bus, o));
        bus_run.run();
        const ContentionVerdict bus =
            bus_run.result().finalVerdicts[0].contention;
        Histogram bus_h(128);
        for (const auto& h : bus_run.daemon().contentionQuanta(0))
            bus_h.merge(h);
        printDensityHistogram(
            bus_h,
            "memory bus @ " + fmtDouble(pt.bandwidth, 1) + " bps",
            "bus locks per dt", 32);
        bus_t.addRow({fmtDouble(pt.bandwidth, 1),
                      fmtInt(static_cast<long long>(
                          bus_run.machine().mem().bus().locks())),
                      fmtInt(static_cast<long long>(
                          bus.combined.burstPeakBin)),
                      fmtDouble(std::max(bus.combined.likelihoodRatio,
                                         bus.recurrence.maxLikelihoodRatio),
                                3),
                      fmtInt(static_cast<long long>(
                          bus.recurrence.burstyQuanta)),
                      bus.detected ? "yes" : "no"});

        AuditRun div_run(auditOf(AuditedWorkload::Divider, o));
        div_run.run();
        const ContentionVerdict div =
            div_run.result().finalVerdicts[0].contention;
        Histogram div_h(128);
        for (const auto& h : div_run.daemon().contentionQuanta(0))
            div_h.merge(h);
        printDensityHistogram(
            div_h,
            "integer divider @ " + fmtDouble(pt.bandwidth, 1) + " bps",
            "wait conflicts per dt", 120);
        divider_t.addRow({fmtDouble(pt.bandwidth, 1),
                      fmtInt(static_cast<long long>(
                          div_run.machine().divider(0).totalConflicts())),
                      fmtInt(static_cast<long long>(
                          div.combined.burstPeakBin)),
                      fmtDouble(std::max(div.combined.likelihoodRatio,
                                         div.recurrence.maxLikelihoodRatio),
                                3),
                      fmtInt(static_cast<long long>(
                          div.recurrence.burstyQuanta)),
                      div.detected ? "yes" : "no"});

        AuditRun cache_run(auditOf(AuditedWorkload::Cache, o));
        cache_run.run();
        const OscillationVerdict cache =
            cache_run.result().finalVerdicts[0].oscillation;
        printCorrelogram(cache.analysis.correlogram,
                         "cache channel autocorrelogram @ " +
                             fmtDouble(pt.bandwidth, 1) + " bps");
        cache_t.addRow({fmtDouble(pt.bandwidth, 1),
                        fmtInt(static_cast<long long>(
                            cache_run.daemon().conflictWindow(0).size())),
                        fmtInt(static_cast<long long>(
                            cache.analysis.dominantLag)),
                        fmtDouble(cache.analysis.dominantValue, 3),
                        cache.detected ? "yes" : "no"});
    }

    std::printf("\nmemory bus channel:\n");
    bus_t.render(std::cout);
    std::printf("\ninteger divider channel:\n");
    divider_t.render(std::cout);
    std::printf("\ncache channel:\n");
    cache_t.render(std::cout);
    std::printf("\npaper: likelihood ratios stay above 0.9 even at 0.1 "
                "bps; low-bandwidth cache channels\nbenefit from finer "
                "observation windows (figure 11).\n");
    return 0;
}
