/**
 * @file
 * Unit audit: run any registered monitor unit's channel by name.
 *
 * The monitor-unit registry (units/unit_registry.hh) is what makes
 * this example one page: the workload is looked up by its registry
 * name, the machine, trojan/spy pair and auditor slot come from the
 * unit's descriptor hooks, and the verdict is judged by the
 * descriptor's analysis policy.  A sixth registered unit would be
 * runnable here with no change to this file.
 *
 * Usage: unit_audit [workload=tlb] [bandwidth=1000] [quanta=8]
 *                   [protocol.enabled=true] [protocol.repeats=3]
 *                   [faults.drop_quantum=0.1 ...]
 *
 * An unknown workload name fails fast and lists the valid names,
 * straight from the registry.
 */

#include <cstdio>
#include <stdexcept>

#include "scenario/experiment.hh"
#include "util/config.hh"

using namespace cchunter;

namespace
{

int
run(const Config& cfg)
{
    OnlineAuditOptions options;
    options.workload =
        auditedWorkloadFromName(cfg.getString("workload", "tlb"));
    options.scenario.bandwidthBps = cfg.getDouble("bandwidth", 1000.0);
    options.scenario.quanta = cfg.getUint("quanta", 8);
    options.scenario.quantum = cfg.getUint("quantum", 25000000);
    options.scenario.seed = cfg.getUint("seed", 7);
    options.scenario.noiseProcesses =
        static_cast<unsigned>(cfg.getUint("noise", 3));
    options.scenario.faults = FaultPlan::fromConfig(cfg);

    // The link-layer protocol adversary: preamble sync, frame
    // retransmission, Hamming(7,4) — available to every channel.
    options.scenario.protocol.enabled =
        cfg.getBool("protocol.enabled", false);
    options.scenario.protocol.frameNibbles = static_cast<std::size_t>(
        cfg.getUint("protocol.frame_nibbles",
                    options.scenario.protocol.frameNibbles));
    options.scenario.protocol.repeats = static_cast<std::size_t>(
        cfg.getUint("protocol.repeats",
                    options.scenario.protocol.repeats));
    options.scenario.protocol.ackGapBits = static_cast<std::size_t>(
        cfg.getUint("protocol.ack_gap_bits",
                    options.scenario.protocol.ackGapBits));
    options.scenario.protocol.validate();

    const UnitDescriptor& unit =
        UnitRegistry::instance().require(UnitRegistry::instance()
                                             .byWorkload(options.workload)
                                             ->id);
    std::printf("auditing the %s unit (%s; %s path)\n\n"
                "effective configuration:\n%s\n",
                unit.name, unit.conflictSemantics,
                unit.policy == AlarmKind::Oscillation ? "oscillation"
                                                      : "contention",
                scenarioConfig(options.scenario).dump().c_str());

    const OnlineAuditResult r = runOnlineAudit(options);

    bool detected = false;
    for (const UnitOutcome& outcome : r.finalVerdicts) {
        detected = detected || outcome.detected;
        std::printf("slot %u (%s): %s (confidence %.3f)\n",
                    outcome.slot, monitorTargetName(outcome.unit),
                    outcome.detected ? "COVERT CHANNEL DETECTED"
                                     : "clean",
                    outcome.confidence);
    }
    std::printf("\nonline alarms: %zu over %llu quanta\npipeline: %s\n",
                r.alarms.size(),
                static_cast<unsigned long long>(r.quantaRecorded),
                r.pipeline.summary().c_str());
    return detected ? 0 : 1;
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
