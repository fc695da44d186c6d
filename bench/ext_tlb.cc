/**
 * @file
 * Extension: the shared-TLB covert channel, raw and under the
 * link-layer protocol adversary (channels/protocol.hh).
 *
 * The fifth monitor unit registered with the unit registry: SMT
 * siblings prime and probe the per-core TLB's sets, and the labelled
 * displacement train oscillates with a period near the channel set
 * count — the cache channel's signature on a different structure.  The
 * sweep reports, per raw bandwidth, the oscillation confidence
 * (dominant correlogram peak) and the wire/payload error rates with
 * the protocol off and on: the protocol's preamble, retransmission
 * voting and Hamming(7,4) ECC buy payload reliability at a 12x wire
 * expansion, so below some raw bandwidth the coded burst no longer
 * fits the observation window and the payload is lost even though the
 * channel itself is still detected.
 */

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions defaults;
    defaults.quantum = 25000000; // 10 ms
    defaults.quanta = 10;
    const ScenarioOptions base = optionsFromConfig(cfg, defaults);

    banner("Extension: shared-TLB channel +- protocol coding",
           "TLB prime/probe between SMT siblings, judged by the "
           "oscillation path.  Protocol runs\ncode one payload byte "
           "into a 96-bit burst (preamble + 3x retransmission + "
           "Hamming(7,4)).");

    const std::vector<double> bandwidths =
        cfg.has("bandwidth") ? std::vector<double>{base.bandwidthBps}
                             : std::vector<double>{500.0, 1000.0,
                                                   2000.0, 5000.0};

    TableWriter t({"bps", "protocol", "detected", "peak", "lag",
                   "wire BER", "payload BER"});
    bool allDetected = true;
    for (const double bps : bandwidths) {
        for (const bool coded : {false, true}) {
            ScenarioOptions opts = base;
            opts.bandwidthBps = bps;
            if (coded) {
                opts.protocol.enabled = true;
                // One byte: a single coded burst per wire pass.
                opts.message = Message::fromBits(
                    {true, false, true, true, false, false, true,
                     false});
            }
            const OnlineAuditResult r =
                runOnlineAudit(auditOf(AuditedWorkload::Tlb, opts));
            const OscillationVerdict& v = r.finalVerdicts[0].oscillation;
            allDetected = allDetected && v.detected;
            t.addRow({fmtDouble(bps, 0), coded ? "on" : "off",
                      v.detected ? "yes" : "NO",
                      fmtDouble(v.analysis.dominantValue, 3),
                      fmtInt(static_cast<long long>(
                          v.analysis.dominantLag)),
                      fmtDouble(r.channel.wireBitErrorRate, 3),
                      fmtDouble(r.channel.payloadBitErrorRate, 3)});
        }
    }
    t.render(std::cout);

    std::printf("\ncontrol: a benign pair audited on the TLB must stay "
                "clean.\n");
    const OnlineAuditResult br = runOnlineAudit(
        benignAuditOf("mcf", "gobmk", BenignAuditUnits::TlbBus, base));
    bool falseAlarm = false;
    for (const UnitOutcome& outcome : br.finalVerdicts)
        falseAlarm = falseAlarm || outcome.detected;
    std::printf("benign mcf+gobmk TLB/bus verdicts: %s\n",
                falseAlarm ? "FALSE ALARM" : "clean");
    return (allDetected && !falseAlarm) ? 0 : 1;
}
