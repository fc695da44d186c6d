/**
 * @file
 * Quickstart: catch a covert timing channel in ~80 lines.
 *
 * We build the simulated machine, plant an integer-divider trojan/spy
 * pair on one SMT core, program the CC-Auditor on that divider, let the
 * software daemon record a few OS time quanta, and ask CC-Hunter for a
 * verdict.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Pass faults.* keys (e.g. faults.drop_quantum=0.1) to watch the
 * audit degrade gracefully instead of failing, or evasion.* keys
 * (e.g. evasion.strategy=gaps) to let the pair randomize its
 * transmission schedule against the detector.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "auditor/cc_auditor.hh"
#include "auditor/daemon.hh"
#include "channels/divider_channel.hh"
#include "faults/fault_injector.hh"
#include "sim/machine.hh"
#include "util/config.hh"

using namespace cchunter;

namespace
{

int
run(const Config& cfg)
{
    const FaultPlan fault_plan = FaultPlan::fromConfig(cfg);
    // 1. The machine: a quad-core SMT processor at 2.5 GHz (the
    //    paper's evaluation platform).  Default parameters throughout.
    Machine machine;

    // 2. The attack: a trojan/spy pair exchanging a secret through
    //    contention on core 0's shared integer divider, at 1000 bps.
    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 1000.0;
    // Optional evasive schedule: both ends share the plan (seed and
    // all), so the channel still decodes while its contention
    // footprint loses the regularity the detector keys on.
    timing.evasion = EvasionPlan::fromConfig(cfg);
    if (timing.evasion.enabled())
        std::printf("evasion: strategy=%s seed=%llu\n",
                    evasionStrategyName(timing.evasion.strategy),
                    static_cast<unsigned long long>(
                        timing.evasion.seed));

    Rng rng(42);
    const Message secret = Message::random64(rng); // a credit card no.

    DividerTrojanParams trojan;
    trojan.timing = timing;
    trojan.message = secret;
    machine.addProcess(std::make_unique<DividerTrojan>(trojan),
                       /*pinned context=*/0);

    DividerSpyParams spy_params;
    spy_params.timing = timing;
    auto spy_owned = std::make_unique<DividerSpy>(spy_params);
    DividerSpy* spy = spy_owned.get();
    machine.addProcess(std::move(spy_owned), /*pinned context=*/1);

    // 3. The defence: program the CC-Auditor (a privileged operation)
    //    to watch core 0's divider, and start the software daemon that
    //    records the histogram buffers every OS time quantum.
    CCAuditor auditor(machine);
    const AuditKey key = requestAuditKey(/*is_admin=*/true);
    auditor.monitorDivider(key, /*slot=*/0, /*core=*/0);
    AuditDaemon daemon(machine, auditor);

    std::optional<FaultInjector> injector;
    if (fault_plan.enabled()) {
        injector.emplace(fault_plan);
        daemon.attachFaultInjector(&*injector);
        std::printf("fault injection: %s\n",
                    fault_plan.summary().c_str());
    }

    // 4. Run four OS time quanta (0.4 s of machine time).
    machine.runQuanta(4);

    // 5. Analyse: recurrent-burst detection on the recorded densities.
    const ContentionVerdict verdict = daemon.analyzeContention(0);

    std::printf("secret sent:    %s\n", secret.toString().c_str());
    std::printf("spy decoded:    %s (first pass of %zu)\n",
                spy->decoded().toString().substr(0, 64).c_str(),
                spy->decodedSlots().size());
    std::printf("conflict events: %llu\n",
                static_cast<unsigned long long>(
                    machine.divider(0).totalConflicts()));
    std::printf("verdict:        %s\n", verdict.summary().c_str());
    std::printf("pipeline:       %s\n",
                daemon.pipelineStats().summary().c_str());
    if (injector) {
        std::printf("degraded:       %s\n",
                    daemon.degradedStats().summary().c_str());
        std::printf("confidence:     %.3f\n",
                    daemon.contentionConfidence(0, verdict));
    }
    std::printf("\nCC-Hunter %s the covert timing channel "
                "(likelihood ratio %.3f, threshold 0.5).\n",
                verdict.detected ? "DETECTED" : "missed",
                verdict.combined.likelihoodRatio);
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
