/**
 * @file
 * Figure 14: false-alarm study.  Benchmark-proxy pairs (SPEC2006,
 * Stream, Filebench) run as hyperthreads on one physical core, chosen
 * to maximise conflicts on each audited unit (gobmk/sjeng hammer the
 * bus; bzip2/h264ref divide heavily; the servers churn caches and
 * locks).  Despite bursts and conflict misses, none of the pairs may
 * trigger CC-Hunter: likelihood ratios stay below 0.5 (mailserver's
 * sync bursts form the weak second distribution the paper describes)
 * and no autocorrelogram shows sustained periodicity.
 */

#include "bench/common.hh"
#include "workloads/suites.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions opts;
    opts.quantum = cfg.getUint("quantum", 125000000);
    opts.quanta = cfg.getUint("quanta", 4);
    opts.seed = cfg.getUint("seed", 1);
    const std::size_t max_pairs = cfg.getUint("pairs", 5);

    banner("Figure 14",
           "Event density histograms and autocorrelograms for benign "
           "benchmark pairs\n(hyperthreads on one core; no covert "
           "channels -> no alarms expected).");

    TableWriter t({"pair", "bus LR", "div LR", "cache peak",
                   "bus", "divider", "cache"});
    unsigned alarms = 0;
    std::size_t count = 0;
    for (const auto& [a, b] : falseAlarmPairs()) {
        if (count++ >= max_pairs)
            break;
        // Two runs honour the auditor's two-slot limit: bus + divider,
        // then the L2 (slot 0 of the cache pairing).
        AuditRun contention(
            benignAuditOf(a, b, BenignAuditUnits::BusDivider, opts));
        contention.run();
        const OnlineAuditResult cr = contention.result();
        const ContentionVerdict& bus = cr.finalVerdicts[0].contention;
        const ContentionVerdict& div = cr.finalVerdicts[1].contention;
        const OscillationVerdict cache =
            runOnlineAudit(
                benignAuditOf(a, b, BenignAuditUnits::CacheBus, opts))
                .finalVerdicts[0]
                .oscillation;

        Histogram bus_h(128), div_h(128);
        for (const auto& h : contention.daemon().contentionQuanta(0))
            bus_h.merge(h);
        for (const auto& h : contention.daemon().contentionQuanta(1))
            div_h.merge(h);
        const std::string pair = a + "+" + b;
        printDensityHistogram(bus_h, pair + ": memory bus lock density",
                              "locks per dt", 30);
        printDensityHistogram(div_h,
                              pair + ": divider contention density",
                              "wait conflicts per dt", 60);
        printCorrelogram(cache.analysis.correlogram,
                         pair + ": conflict-miss autocorrelogram");

        alarms += bus.detected + div.detected + cache.detected;
        t.addRow({pair, fmtDouble(bus.combined.likelihoodRatio, 3),
                  fmtDouble(div.combined.likelihoodRatio, 3),
                  fmtDouble(cache.analysis.dominantValue, 3),
                  bus.detected ? "ALARM" : "clean",
                  div.detected ? "ALARM" : "clean",
                  cache.detected ? "ALARM" : "clean"});
    }

    std::printf("\n");
    t.render(std::cout);
    std::printf("\nfalse alarms: %u (paper: zero; mailserver shows a "
                "weak second distribution with\nlikelihood ratio < "
                "0.5, below the decision threshold)\n",
                alarms);
    return alarms == 0 ? 0 : 1;
}
