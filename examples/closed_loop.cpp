/**
 * @file
 * Closed loop, end to end on one machine: a divider covert channel is
 * detected mid-run, the auto-response quarantines the implicated
 * context pair, and the residual probes price what the response
 * bought — how much bandwidth the spy lost and what a benign pair
 * would have paid at each rung of the ladder.
 *
 * Usage: closed_loop [quanta=8] [quantum=2500000] [seed=1]
 *                    [bandwidth=10000] [faults.drop_quantum=0.1 ...]
 */

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "respond/residual.hh"
#include "util/config.hh"
#include "util/table_writer.hh"

using namespace cchunter;

namespace
{

int
run(const Config& cfg)
{
    OnlineAuditOptions options;
    options.workload = AuditedWorkload::Divider;
    options.scenario.quanta = cfg.getUint("quanta", 8);
    options.scenario.quantum = cfg.getUint("quantum", 2500000);
    options.scenario.seed = cfg.getUint("seed", 1);
    options.scenario.bandwidthBps =
        cfg.getDouble("bandwidth", 10000.0);
    options.scenario.noiseProcesses = 0;
    options.scenario.faults = FaultPlan::fromConfig(cfg);
    options.online.clusteringIntervalQuanta = 4;

    // 1. Detect and respond in the same run: the first alarm triggers
    //    an in-run quarantine of the trojan/spy context pair.
    ResponsePlan quarantine;
    quarantine.level = ResponseLevel::Quarantine;
    options.autoRespond.enabled = true;
    options.autoRespond.plan = quarantine;
    options.autoRespond.alarmThreshold = 1;
    const OnlineAuditResult mitigated = runOnlineAudit(options);

    options.autoRespond.enabled = false;
    const OnlineAuditResult open = runOnlineAudit(options);

    std::printf("divider covert channel, closed loop\n\n");
    if (mitigated.response.engaged)
        std::printf("auto-response engaged %s at quantum %llu "
                    "(alarm-triggered)\n",
                    responseLevelName(mitigated.response.level),
                    static_cast<unsigned long long>(
                        mitigated.response.quantum));
    else
        std::printf("auto-response never engaged — no alarm\n");
    std::printf("spy decoded %llu wire bits unmitigated, "
                "%llu with the loop closed\n\n",
                static_cast<unsigned long long>(
                    open.channel.wireBitsDecoded),
                static_cast<unsigned long long>(
                    mitigated.channel.wireBitsDecoded));

    // 2. Price every rung: residual bandwidth through the protocol
    //    decoder versus the benign pair's slowdown.
    const ResponseLevel ladder[] = {
        ResponseLevel::Observe, ResponseLevel::RateLimit,
        ResponseLevel::TemporalPartition, ResponseLevel::Quarantine};
    double baselineBps = 0.0;
    TableWriter table({"response", "residual bps", "reduction",
                       "benign tax", "still detected"});
    for (const ResponseLevel level : ladder) {
        ResponsePlan plan;
        plan.level = level;
        const ResidualProbe probe = probeResidualBandwidth(
            AuditedWorkload::Divider, options, plan);
        if (level == ResponseLevel::Observe)
            baselineBps = probe.effectiveBandwidthBps;
        const TaxProbe tax = measureBenignTax(options, plan);
        table.addRow(
            {responseLevelName(level),
             fmtDouble(probe.effectiveBandwidthBps, 1),
             fmtDouble(bandwidthReduction(
                           baselineBps, probe.effectiveBandwidthBps),
                       3),
             fmtDouble(tax.tax, 3), probe.detected ? "yes" : "no"});
    }
    table.render(std::cout);

    std::printf("\nquarantine kills the channel outright; "
                "temporal partitioning halves it for half the tax.\n");
    return mitigated.response.engaged ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(Config::fromArgs(argc, argv));
    } catch (const std::runtime_error&) {
        return 2; // fatal() has already reported the bad setting
    }
}
