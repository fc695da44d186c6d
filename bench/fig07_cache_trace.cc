/**
 * @file
 * Figure 7: ratios of cache access times between the G1 and G0 cache
 * set groups as observed by the spy on the shared-L2 covert channel,
 * for a random 64-bit credit-card number.  Ratios above 1 decode as
 * '1' (G1 missed), below 1 as '0' (G0 missed).
 */

#include "bench/common.hh"
#include "channels/prime_probe.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions defaults;
    defaults.bandwidthBps = 1000.0;
    defaults.quantum = 25000000;
    defaults.quanta = 7; // ~70 bit slots: covers the 64-bit message
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);

    banner("Figure 7",
           "Cache Covert Channel: spy's G1/G0 access-time ratio per "
           "transmitted bit.");

    AuditRun run(auditOf(AuditedWorkload::Cache, opts));
    run.run();
    const PrimeProbeSpy& spy =
        dynamic_cast<const PrimeProbeSpy&>(*run.spy());
    const std::vector<double>& ratios = spy.ratios();

    printSeries(ratios, "G1/G0 access-time ratio", "bit index");

    RunningStats ones, zeros;
    for (std::size_t i = 1; i < ratios.size() && i < 64; ++i)
        (run.payload().bitCyclic(i) ? ones : zeros).add(ratios[i]);

    TableWriter t({"series", "value"});
    t.addRow({"message", run.payload().toString()});
    t.addRow({"decoded", spy.decoded().toString()});
    t.addRow({"bit error rate",
              fmtDouble(run.result().channel.wireBitErrorRate, 4)});
    t.addRow({"mean ratio ('1' bits)", fmtDouble(ones.mean(), 2)});
    t.addRow({"mean ratio ('0' bits)", fmtDouble(zeros.mean(), 2)});
    t.render(std::cout);

    std::printf("\npaper: ratio > 1 for '1' (G1 set misses), < 1 for "
                "'0' (G0 set misses).\n");
    return 0;
}
