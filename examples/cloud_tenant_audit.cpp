/**
 * @file
 * Cloud-tenant audit: the cross-VM L2 prime+probe channel.
 *
 * The scenario the paper's introduction motivates: two colluding
 * tenants (a trojan VM with access to a secret and a spy VM) share a
 * physical core in a cloud, and exfiltrate data by replacing each
 * other's cache lines in two agreed groups of L2 sets.  Noisy
 * neighbour tenants run alongside.  The host's administrator audits
 * the L2 with CC-Hunter's conflict-miss tracker and inspects the
 * labelled conflict-miss train for oscillation.
 *
 * Usage: cloud_tenant_audit [bandwidth=1000] [sets=512] [quanta=8]
 */

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "scenario/experiment.hh"
#include "util/ascii_plot.hh"
#include "util/config.hh"

using namespace cchunter;

namespace
{

int
run(const Config& cfg)
{
    ScenarioOptions opts;
    opts.bandwidthBps = cfg.getDouble("bandwidth", 1000.0);
    opts.channelSets = cfg.getUint("sets", 512);
    opts.quanta = cfg.getUint("quanta", 8);
    opts.quantum = cfg.getUint("quantum", 25000000);
    opts.noiseProcesses =
        static_cast<unsigned>(cfg.getUint("noise", 3));
    opts.seed = cfg.getUint("seed", 7);
    opts.faults = FaultPlan::fromConfig(cfg);

    std::printf("cloud tenant audit: prime+probe channel over %zu L2 "
                "sets at %.0f bps,\nwith %u noisy-neighbour "
                "processes\n\neffective configuration:\n%s\n",
                opts.channelSets, opts.bandwidthBps,
                opts.noiseProcesses,
                scenarioConfig(opts).dump().c_str());

    OnlineAuditOptions audit;
    audit.workload = AuditedWorkload::Cache;
    audit.scenario = opts;
    AuditRun run(audit);
    run.run();
    const OnlineAuditResult r = run.result();
    const OscillationVerdict& verdict = r.finalVerdicts[0].oscillation;

    std::printf("secret sent:     %s\n", run.payload().toString().c_str());
    std::printf("spy decoded:     %s\n",
                run.spy()->decoded().toString().c_str());
    std::printf("bit error rate:  %.3f\n", r.channel.wireBitErrorRate);
    std::printf("conflict misses flagged by the tracker: %llu\n",
                static_cast<unsigned long long>(
                    run.auditor().tracker(0)->conflictMisses()));
    std::printf("\nlabelled conflict-miss train "
                "(1 = trojan evicts spy, 0 = spy evicts trojan):\n");

    PlotOptions plot;
    plot.title = "autocorrelogram of the conflict-miss train";
    plot.xLabel = "lag (events)";
    plot.yFromZero = true;
    asciiPlot(std::cout, verdict.analysis.correlogram, plot);

    std::printf("\nverdict:  %s\n", verdict.summary().c_str());
    std::printf("pipeline: %s\n", r.pipeline.summary().c_str());
    if (opts.faults.enabled())
        std::printf("degraded: %s\nconfidence: %.3f\n",
                    r.degraded.summary().c_str(),
                    r.finalVerdicts[0].confidence);
    std::printf("the dominant lag (%zu) tracks the number of channel "
                "sets (%zu): the spy and trojan\nalternate evicting "
                "each other once per set per bit.\n",
                verdict.analysis.dominantLag, opts.channelSets);
    return verdict.detected ? 0 : 1;
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
