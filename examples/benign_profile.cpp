/**
 * @file
 * Benign profile: audit ordinary workload pairs and confirm CC-Hunter
 * stays quiet.  Every proxy pair from the false-alarm study runs as
 * hyperthreads under full auditing (bus + divider in one pass, L2 in a
 * second); any alarm is a bug.
 *
 * Usage: benign_profile [quanta=3] [quantum=125000000] [pairs=10]
 */

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "scenario/experiment.hh"
#include "util/config.hh"
#include "util/table_writer.hh"
#include "workloads/suites.hh"

using namespace cchunter;

namespace
{

int
run(const Config& cfg)
{
    ScenarioOptions opts;
    opts.quanta = cfg.getUint("quanta", 3);
    opts.quantum = cfg.getUint("quantum", 125000000);
    opts.seed = cfg.getUint("seed", 1);
    opts.faults = FaultPlan::fromConfig(cfg);
    const std::size_t max_pairs = cfg.getUint("pairs", 10);

    TableWriter table({"pair", "bus locks LR", "divider LR",
                       "cache peak", "alarms"});
    unsigned total_alarms = 0;
    std::size_t count = 0;
    PipelineStats pipeline;
    DegradedStats degraded;

    for (const auto& [a, b] : falseAlarmPairs()) {
        if (count++ >= max_pairs)
            break;
        // Two runs honour the auditor's two-slot limit: bus + divider,
        // then the L2 (slot 0 of the cache pairing).
        OnlineAuditOptions audit;
        audit.workload = AuditedWorkload::BenignPair;
        audit.scenario = opts;
        audit.benignA = a;
        audit.benignB = b;
        audit.benignUnits = BenignAuditUnits::BusDivider;
        const OnlineAuditResult contention = runOnlineAudit(audit);
        audit.benignUnits = BenignAuditUnits::CacheBus;
        const OnlineAuditResult cache = runOnlineAudit(audit);
        const ContentionVerdict& bus =
            contention.finalVerdicts[0].contention;
        const ContentionVerdict& div =
            contention.finalVerdicts[1].contention;
        const OscillationVerdict& l2 = cache.finalVerdicts[0].oscillation;
        const unsigned alarms = bus.detected + div.detected + l2.detected;
        total_alarms += alarms;
        for (const OnlineAuditResult* r : {&contention, &cache}) {
            pipeline.accumulate(r->pipeline);
            degraded.accumulate(r->degraded);
        }
        table.addRow({a + "+" + b,
                      fmtDouble(bus.combined.likelihoodRatio, 3),
                      fmtDouble(div.combined.likelihoodRatio, 3),
                      fmtDouble(l2.analysis.dominantValue, 3),
                      alarms == 0 ? "none" : std::to_string(alarms)});
    }

    std::printf("benign workload audit (%zu pairs, all three "
                "resources)\n\n",
                count);
    table.render(std::cout);
    std::printf("\ntotal false alarms: %u (expected: 0; likelihood "
                "ratios below the 0.5 threshold\nand no sustained "
                "autocorrelation periodicity)\n",
                total_alarms);
    std::printf("pipeline (all pairs): %s\n",
                pipeline.summary().c_str());
    if (opts.faults.enabled())
        std::printf("degraded (all pairs): %s\n",
                    degraded.summary().c_str());
    return total_alarms == 0 ? 0 : 1;
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
