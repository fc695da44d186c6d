/**
 * @file
 * Figure 11: autocorrelograms for a 0.1 bps cache covert channel at
 * reduced observation-window sizes (1x, 0.75x, 0.5x, 0.25x of the OS
 * time quantum).  At very low bandwidth the signalling episodes are
 * brief and dormant cover-program noise dilutes whole-series analysis;
 * finer-grained windows recover strong repetitive peaks.
 */

#include "bench/common.hh"
#include "detect/autocorrelation.hh"
#include "detect/oscillation_detector.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

/** Best oscillation analysis over time-sliced windows of the records. */
OscillationAnalysis
bestWindow(const std::vector<ConflictRecord>& records, Tick window,
           Tick total, const OscillationParams& params)
{
    OscillationDetector detector(params);
    OscillationAnalysis best;
    for (Tick begin = 0; begin + window <= total; begin += window) {
        std::vector<double> labels;
        for (const auto& r : records) {
            if (r.time >= begin && r.time < begin + window) {
                labels.push_back(
                    r.replacerPid != invalidProcess &&
                            r.victimPid != invalidProcess &&
                            r.replacerPid < r.victimPid
                        ? 1.0
                        : 0.0);
            }
        }
        const OscillationAnalysis a = detector.analyze(labels);
        const bool better =
            (a.oscillating && !best.oscillating) ||
            (a.oscillating == best.oscillating &&
             a.dominantValue > best.dominantValue);
        if (better)
            best = a;
    }
    return best;
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions opts;
    opts.bandwidthBps = cfg.getDouble("bandwidth", 0.1);
    opts.quantum = cfg.getUint("quantum", 250000000);
    opts.quanta = cfg.getUint("quanta", 101);
    opts.noiseIntensity = cfg.getDouble("noise_intensity", 0.25);
    opts.seed = cfg.getUint("seed", 1);
    opts.channelSets = cfg.getUint("sets", 512);
    // A 0.1 bps channel only signals hard enough to transmit reliably
    // (a few prime/probe rounds per bit); dormant cover-program noise
    // then rivals the episode within a full quantum, diluting
    // whole-quantum analysis, while finer windows isolate the
    // oscillation.
    opts.cacheRoundsPerBit = cfg.getUint("rounds", 4);
    opts.cacheDormantNoiseGap = cfg.getUint("dormant_gap", 100000);
    opts.message = Message::fromBits(std::vector<bool>(64, true));

    banner("Figure 11",
           "0.1 bps cache channel: autocorrelograms at reduced "
           "observation windows\n(1x / 0.75x / 0.5x / 0.25x of the OS "
           "time quantum).");

    AuditRun run(auditOf(AuditedWorkload::Cache, opts));
    run.run();
    const std::vector<ConflictRecord> records =
        run.daemon().conflictRecords(0);
    const Tick total = opts.quantum * opts.quanta;

    TableWriter t({"window", "dominant lag", "peak autocorr",
                   "oscillating"});
    const double fractions[] = {1.0, 0.75, 0.5, 0.25};
    for (double f : fractions) {
        const Tick window =
            static_cast<Tick>(f * static_cast<double>(opts.quantum));
        const OscillationAnalysis a =
            bestWindow(records, window, total, OscillationParams{});
        printCorrelogram(a.correlogram,
                         fmtDouble(f, 2) +
                             "x OS time quantum observation window");
        t.addRow({fmtDouble(f, 2) + "x quantum",
                  fmtInt(static_cast<long long>(a.dominantLag)),
                  fmtDouble(a.dominantValue, 3),
                  a.oscillating ? "yes" : "no"});
    }
    t.render(std::cout);
    std::printf("\ntotal conflict events: %zu over %.1f s; paper: "
                "finer windows show significant\nrepetitive peaks for "
                "the 0.1 bps channel.\n",
                records.size(), ticksToSeconds(total));
    return 0;
}
