/**
 * @file
 * Extension: the evasion trade-off the paper's threat model argues
 * (section III).
 *
 * "It is impossible for a covert timing channel to just randomly
 * inflate conflict events or operate in noisy environments simply to
 * evade detection" — because the same decoys that blur CC-Hunter's
 * statistics corrupt the spy's decoding first.  The trojan here tries:
 * at increasing decoy-lock rates during its dormant periods, the
 * likelihood ratio stays decisive while the channel's bit error rate
 * climbs toward uselessness; by the time the histogram finally looks
 * like wall-to-wall noise the "channel" no longer transfers data.
 */

#include <algorithm>

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
    base.quanta = cfg.getUint("quanta", 6);
    base.seed = cfg.getUint("seed", 1);

    banner("Extension: evasion by random conflict inflation",
           "Decoy locks during dormant periods vs detection and "
           "channel reliability\n(signalling locks are paced every "
           "5000 cycles).");

    struct Point
    {
        const char* name;
        Cycles decoyPeriod; // 0 = honest channel
    };
    const Point points[] = {
        {"no decoys", 0},
        {"sparse decoys (1/50k)", 50000},
        {"moderate decoys (1/20k)", 20000},
        {"heavy decoys (1/10k)", 10000},
        {"decoys at signal rate (1/5k)", 5000},
    };

    TableWriter t({"evasion attempt", "locks", "likelihood",
                   "detected", "spy BER", "channel usable"});
    for (const auto& pt : points) {
        ScenarioOptions o = base;
        o.busEvasionPeriod = pt.decoyPeriod;
        AuditRun run(auditOf(AuditedWorkload::Bus, o));
        run.run();
        const OnlineAuditResult r = run.result();
        const ContentionVerdict& v = r.finalVerdicts[0].contention;
        const double lr = std::max(v.combined.likelihoodRatio,
                                   v.recurrence.maxLikelihoodRatio);
        const double ber = r.channel.wireBitErrorRate;
        t.addRow({pt.name,
                  fmtInt(static_cast<long long>(
                      run.machine().mem().bus().locks())),
                  fmtDouble(lr, 3), v.detected ? "yes" : "no",
                  fmtDouble(ber, 3), ber < 0.1 ? "yes" : "NO"});
    }
    t.render(std::cout);
    std::printf("\nthe trade-off the paper predicts: decoys corrupt "
                "the spy (BER -> ~0.5) long before\nthe detector loses "
                "the recurrent-burst signature.\n");
    return 0;
}
