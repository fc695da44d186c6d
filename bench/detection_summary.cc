/**
 * @file
 * Headline result (paper sections VI-A..D): CC-Hunter detects the
 * covert timing channels on all three shared hardware resources and
 * raises zero false alarms on the benign benchmark pairs.
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
    opts.bandwidthBps = cfg.getDouble("bandwidth", 1000.0);
    opts.quantum = cfg.getUint("quantum", 25000000);
    opts.quanta = cfg.getUint("quanta", 8);
    opts.seed = cfg.getUint("seed", 1);

    banner("Detection summary",
           "All covert channels must be detected; all benign pairs "
           "must stay clean.");

    TableWriter t({"scenario", "resource", "evidence", "verdict",
                   "BER"});
    unsigned detected = 0, channels = 0, alarms = 0;
    std::size_t benign_checks = 0;

    const auto contentionRow = [&](AuditedWorkload workload,
                                   const char* scenario,
                                   const char* resource) {
        const OnlineAuditResult r =
            runOnlineAudit(auditOf(workload, opts));
        const ContentionVerdict& v = r.finalVerdicts[0].contention;
        ++channels;
        detected += v.detected;
        t.addRow({scenario, resource,
                  "LR=" + fmtDouble(v.combined.likelihoodRatio, 3) +
                      " peak-bin=" +
                      std::to_string(v.combined.burstPeakBin),
                  v.detected ? "DETECTED" : "missed",
                  fmtDouble(r.channel.wireBitErrorRate, 3)});
    };
    contentionRow(AuditedWorkload::Bus, "covert: bus-lock channel",
                  "memory bus/QPI");
    contentionRow(AuditedWorkload::Divider,
                  "covert: SMT divider channel", "integer divider");
    {
        const OnlineAuditResult r =
            runOnlineAudit(auditOf(AuditedWorkload::Cache, opts));
        const OscillationVerdict& v = r.finalVerdicts[0].oscillation;
        ++channels;
        detected += v.detected;
        t.addRow({"covert: prime+probe channel", "shared L2 cache",
                  "lag=" + std::to_string(v.analysis.dominantLag) +
                      " peak=" + fmtDouble(v.analysis.dominantValue, 3),
                  v.detected ? "DETECTED" : "missed",
                  fmtDouble(r.channel.wireBitErrorRate, 3)});
    }

    ScenarioOptions benign = opts;
    benign.quantum = cfg.getUint("benign_quantum", 125000000);
    benign.quanta = cfg.getUint("benign_quanta", 3);
    std::size_t pair_count = 0;
    for (const auto& [a, b] : falseAlarmPairs()) {
        if (pair_count++ >= cfg.getUint("pairs", 5))
            break;
        // Bus + divider, then the L2: the two-slot auditor limit.
        const OnlineAuditResult cr = runOnlineAudit(
            benignAuditOf(a, b, BenignAuditUnits::BusDivider, benign));
        const ContentionVerdict& bus = cr.finalVerdicts[0].contention;
        const ContentionVerdict& div = cr.finalVerdicts[1].contention;
        const OscillationVerdict cache =
            runOnlineAudit(
                benignAuditOf(a, b, BenignAuditUnits::CacheBus, benign))
                .finalVerdicts[0]
                .oscillation;
        benign_checks += 3;
        alarms += bus.detected + div.detected + cache.detected;
        t.addRow({"benign: " + a + "+" + b, "bus/divider/L2",
                  "LR=" + fmtDouble(bus.combined.likelihoodRatio, 2) +
                      "/" + fmtDouble(div.combined.likelihoodRatio, 2) +
                      " peak=" +
                      fmtDouble(cache.analysis.dominantValue, 2),
                  (bus.detected || div.detected || cache.detected)
                      ? "FALSE ALARM"
                      : "clean",
                  "-"});
    }

    t.render(std::cout);
    std::printf("\nchannels detected: %u/%u, false alarms: %u/%zu "
                "(paper: all detected, zero false alarms)\n",
                detected, channels, alarms, benign_checks);
    return (detected == channels && alarms == 0) ? 0 : 1;
}
