/**
 * @file
 * Incident response: the full operator workflow on one machine.
 *
 *  1. A cross-tenant L2 prime+probe channel runs among noisy
 *     neighbours; the CC-Auditor watches core 0's cache.
 *  2. The daemon's oscillation analysis raises the alarm.
 *  3. The conflict records attribute the channel to a process pair.
 *  4. The mitigator migrates one party to another core.
 *  5. Continued auditing confirms the channel is severed, and the
 *     machine statistics report summarises the episode.
 *
 * Usage: incident_response [quanta=6] [sets=256] [seed=9]
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "auditor/cc_auditor.hh"
#include "auditor/daemon.hh"
#include "channels/prime_probe.hh"
#include "detect/detector.hh"
#include "faults/fault_injector.hh"
#include "mitigate/mitigator.hh"
#include "sim/machine.hh"
#include "sim/stats_report.hh"
#include "util/config.hh"
#include "workloads/suites.hh"

using namespace cchunter;

namespace
{

int
run(const Config& cfg)
{
    const std::size_t quanta = cfg.getUint("quanta", 6);
    const std::size_t sets = cfg.getUint("sets", 256);
    const std::uint64_t seed = cfg.getUint("seed", 9);

    // --- the machine and its tenants -------------------------------
    MachineParams mp;
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    mp.scheduler.quantum = 25000000;
    Machine machine(mp);

    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 1000.0;
    Rng rng(seed);
    const Message secret = Message::random64(rng);

    PrimeProbeLayout layout;
    layout.numSets = mp.mem.l2.numSets();
    layout.channelSets = sets;

    PrimeProbeTrojanParams tp;
    tp.timing = timing;
    tp.message = secret;
    tp.layout = layout;
    tp.roundsPerBit = 4;
    Process& trojan =
        machine.addProcess(std::make_unique<PrimeProbeTrojan>(tp), 0);

    PrimeProbeSpyParams sp;
    sp.timing = timing;
    sp.layout = layout;
    sp.noiseEvery = 24;
    sp.roundsPerBit = 4;
    Process& spy =
        machine.addProcess(std::make_unique<PrimeProbeSpy>(sp), 1);

    for (int i = 0; i < 3; ++i)
        machine.addProcess(makeBenchmark("mcf", seed + 10 + i));

    // --- the audit --------------------------------------------------
    CCAuditor auditor(machine);
    const AuditKey key = requestAuditKey(/*is_admin=*/true);
    auditor.monitorCache(key, 0, /*core=*/0);
    AuditDaemon daemon(machine, auditor);

    const FaultPlan fault_plan = FaultPlan::fromConfig(cfg);
    std::optional<FaultInjector> injector;
    if (fault_plan.enabled()) {
        injector.emplace(fault_plan);
        daemon.attachFaultInjector(&*injector);
        std::printf("[faults]  %s\n", fault_plan.summary().c_str());
    }

    machine.runQuanta(quanta);
    const OscillationVerdict verdict = daemon.analyzeOscillation(0);
    std::printf("[audit]   %s\n", verdict.summary().c_str());
    if (injector)
        std::printf("[audit]   confidence %.3f under injected faults "
                    "(%s)\n",
                    daemon.oscillationConfidence(0),
                    daemon.degradedStats().summary().c_str());
    if (!verdict.detected) {
        std::printf("no channel found; nothing to do.\n");
        return 1;
    }

    // --- attribution -------------------------------------------------
    Mitigator mitigator(machine, daemon);
    const auto suspects = mitigator.suspectPair(0);
    std::printf("[attrib]  suspect pair: pid %u and pid %u "
                "(trojan pid %u, spy pid %u)\n",
                suspects.first, suspects.second, trojan.pid(),
                spy.pid());

    // --- response ----------------------------------------------------
    const MitigationReport report =
        mitigator.respond(MonitorTarget::L2Cache, 0);
    std::printf("[respond] %s\n", report.summary().c_str());

    // --- verification -------------------------------------------------
    // A noisy neighbour inherits the vacated context, so conflict
    // misses keep flowing — but they are random.  The audit question
    // is whether the *oscillation* survives, so re-run the analysis on
    // the post-mitigation records only.
    machine.runQuanta(1); // the re-pinning takes effect here
    const std::uint64_t switch_quantum = daemon.quantaRecorded();
    machine.runQuanta(quanta);

    std::vector<double> post_labels;
    for (const auto& r : daemon.conflictRecords(0)) {
        if (r.quantum < switch_quantum)
            continue;
        post_labels.push_back(r.replacerPid != invalidProcess &&
                                      r.victimPid != invalidProcess &&
                                      r.replacerPid < r.victimPid
                                  ? 1.0
                                  : 0.0);
    }
    CCHunter hunter;
    const OscillationVerdict after =
        hunter.analyzeOscillation(post_labels);
    std::printf("[verify]  post-mitigation audit (%zu conflict events, "
                "random-neighbour traffic): %s\n",
                post_labels.size(), after.summary().c_str());

    std::printf("\n");
    dumpProcessStats(machine, std::cout);
    std::printf("\n");
    dumpMachineStats(machine, std::cout);
    dumpStatEntries(pipelineStatEntries(daemon.pipelineStats()),
                    std::cout, "audit pipeline");
    if (injector)
        dumpStatEntries(degradedStatEntries(daemon.degradedStats()),
                        std::cout, "degraded operation");

    const bool severed = !after.detected;
    std::printf("\nchannel severed: %s\n", severed ? "yes" : "no");
    return severed ? 0 : 1;
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
