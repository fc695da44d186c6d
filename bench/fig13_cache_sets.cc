/**
 * @file
 * Figure 13: cache covert channel with varying numbers of cache sets
 * (64 / 128 / 256 / 512) used for bit transmission.  All cases show
 * significant autocorrelation periodicity (peaks ~0.95); for smaller
 * set counts, random conflicts from surrounding code and co-runners
 * inflate the observed wavelength beyond the nominal set count.
 */

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions base;
    base.bandwidthBps = 1000.0;
    base.quantum = 25000000;
    base.quanta = cfg.getUint("quanta", 8);
    base.seed = cfg.getUint("seed", 1);

    banner("Figure 13",
           "Cache channel with 64 / 128 / 256 / 512 sets used for "
           "covert communication.");

    TableWriter t({"#sets", "conflict events", "dominant lag",
                   "lag / #sets", "peak autocorr", "detected"});
    for (std::size_t sets : {64u, 128u, 256u, 512u}) {
        ScenarioOptions o = base;
        o.channelSets = sets;
        AuditRun run(auditOf(AuditedWorkload::Cache, o));
        run.run();
        const OscillationVerdict r =
            run.result().finalVerdicts[0].oscillation;
        printCorrelogram(r.analysis.correlogram,
                         "autocorrelogram, " + std::to_string(sets) +
                             " channel sets");
        t.addRow({fmtInt(static_cast<long long>(sets)),
                  fmtInt(static_cast<long long>(
                      run.daemon().conflictWindow(0).size())),
                  fmtInt(static_cast<long long>(
                      r.analysis.dominantLag)),
                  fmtDouble(static_cast<double>(
                                r.analysis.dominantLag) /
                                static_cast<double>(sets),
                            2),
                  fmtDouble(r.analysis.dominantValue, 3),
                  r.detected ? "yes" : "no"});
    }
    t.render(std::cout);
    std::printf("\npaper: peak correlation ~0.95 in all cases; the "
                "wavelength exceeds the nominal set\ncount more for "
                "smaller channels (relative noise is larger).\n");
    return 0;
}
