/**
 * @file
 * Figure 3: average loop execution time (in CPU cycles) observed by
 * the spy's division-timing loop for the same 64-bit credit-card
 * number, on the integer-divider covert channel.  Contention on the
 * shared divider doubles the iteration time ('1').
 */

#include "bench/common.hh"
#include "channels/divider_channel.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions defaults;
    defaults.bandwidthBps = 1000.0;
    defaults.quantum = 250000000;
    defaults.quanta = 1;
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);

    banner("Figure 3",
           "Integer Divider Covert Channel: spy's average loop "
           "execution time (CPU cycles)\nfor the same 64-bit message.");

    AuditRun run(auditOf(AuditedWorkload::Divider, opts));
    run.run();
    const DividerSpy& spy = dynamic_cast<const DividerSpy&>(*run.spy());

    printSeries(spy.samples(), "avg loop latency (cycles)", "sample");

    RunningStats ones, zeros;
    for (const auto& [slot, mean] : spy.slotMeans())
        (run.payload().bitCyclic(slot) ? ones : zeros).add(mean);

    TableWriter t({"series", "value"});
    t.addRow({"message", run.payload().toString()});
    t.addRow({"decoded", spy.decoded().toString()});
    t.addRow({"bit error rate",
              fmtDouble(run.result().channel.wireBitErrorRate, 4)});
    t.addRow({"mean loop latency ('1')", fmtDouble(ones.mean(), 1)});
    t.addRow({"mean loop latency ('0')", fmtDouble(zeros.mean(), 1)});
    t.addRow({"contended / uncontended",
              fmtDouble(zeros.mean() > 0.0 ?
                            ones.mean() / zeros.mean() : 0.0, 2)});
    t.render(std::cout);

    std::printf("\npaper: iterations under contention take visibly "
                "longer (high plateau for '1',\nlow plateau for "
                "'0').\n");
    return 0;
}
