/**
 * @file
 * Online-analysis cadence tests: the daemon running the paper's live
 * schedule (clustering every N quanta, autocorrelation every quantum)
 * and raising alarms with bounded detection latency.
 */

#include <gtest/gtest.h>

#include <memory>

#include "auditor/cc_auditor.hh"
#include "auditor/daemon.hh"
#include "channels/prime_probe.hh"
#include "channels/divider_channel.hh"
#include "sim/machine.hh"
#include "workloads/suites.hh"

namespace cchunter
{
namespace
{

MachineParams
smallMachine()
{
    MachineParams p;
    p.scheduler.quantum = 2500000;
    return p;
}

ChannelTiming
fastTiming()
{
    ChannelTiming t;
    t.start = 1000;
    t.bandwidthBps = 10000.0;
    return t;
}

TEST(OnlineAnalysisTest, DividerChannelAlarmsAtFirstInterval)
{
    Machine m(smallMachine());
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::random64(rng);
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = fastTiming();
    m.addProcess(std::make_unique<DividerSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorDivider(key, 0, 0);
    AuditDaemon daemon(m, auditor);

    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    int callbacks = 0;
    daemon.enableOnlineAnalysis(
        params, [&](const Alarm& a) { ++callbacks; });

    m.runQuanta(8);
    // Intervals complete after quanta 4 and 8: two alarms.
    ASSERT_GE(daemon.alarms().size(), 2u);
    EXPECT_EQ(callbacks, static_cast<int>(daemon.alarms().size()));
    EXPECT_EQ(daemon.firstAlarmQuantum(0), 3u); // quantum index 3
    EXPECT_NE(daemon.alarms()[0].summary.find("DETECTED"),
              std::string::npos);
}

TEST(OnlineAnalysisTest, CacheChannelAlarmsEveryQuantum)
{
    MachineParams mp = smallMachine();
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    Machine m(mp);
    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 1000.0; // one bit per quantum
    Rng rng(2);

    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 256;

    PrimeProbeTrojanParams tp;
    tp.timing = timing;
    tp.message = Message::random64(rng);
    tp.layout = layout;
    tp.roundsPerBit = 4;
    m.addProcess(std::make_unique<PrimeProbeTrojan>(tp), 0);
    PrimeProbeSpyParams sp;
    sp.timing = timing;
    sp.layout = layout;
    sp.roundsPerBit = 4;
    m.addProcess(std::make_unique<PrimeProbeSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorCache(key, 0, 0);
    AuditDaemon daemon(m, auditor);
    daemon.enableOnlineAnalysis(OnlineAnalysisParams{});

    m.runQuanta(6);
    // Warm-up quantum aside, nearly every quantum holds several full
    // oscillation periods and alarms.
    EXPECT_GE(daemon.alarms().size(), 4u);
    EXPECT_LE(daemon.firstAlarmQuantum(0), 2u);
}

TEST(OnlineAnalysisTest, BenignPairNeverAlarms)
{
    Machine m(smallMachine());
    m.addProcess(makeBenchmark("gobmk", 3), 0);
    m.addProcess(makeBenchmark("sjeng", 4), 1);
    m.addProcess(makeBenchmark("mcf", 5));

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorBus(key, 0);
    auditor.monitorDivider(key, 1, 0);
    AuditDaemon daemon(m, auditor);
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 2;
    daemon.enableOnlineAnalysis(params);

    m.runQuanta(8);
    EXPECT_TRUE(daemon.alarms().empty());
    EXPECT_EQ(daemon.firstAlarmQuantum(0), SIZE_MAX);
}

/** Alarm stream plus pipeline counters from one scenario run. */
struct ScenarioOutcome
{
    std::vector<Alarm> alarms;
    PipelineStats pipeline;
};

/** Add the divider trojan/spy pair plus one benchmark co-runner. */
void
addDividerWorkload(Machine& m)
{
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::random64(rng);
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = fastTiming();
    m.addProcess(std::make_unique<DividerSpy>(sp), 1);
    m.addProcess(makeBenchmark("mcf", 5));
}

/** Watch the divider on slot 0 and the bus on slot 1. */
void
programDividerAndBus(CCAuditor& auditor)
{
    const AuditKey key = requestAuditKey(true);
    auditor.monitorDivider(key, 0, 0);
    auditor.monitorBus(key, 1);
}

/** Run the divider trojan/spy scenario under the given online
 *  parameters and return the alarm stream and pipeline stats. */
ScenarioOutcome
runDividerOutcome(OnlineAnalysisParams params, std::size_t quanta = 8)
{
    Machine m(smallMachine());
    addDividerWorkload(m);
    CCAuditor auditor(m);
    programDividerAndBus(auditor);
    AuditDaemon daemon(m, auditor);

    daemon.enableOnlineAnalysis(params);
    m.runQuanta(quanta);
    return ScenarioOutcome{daemon.alarms(), daemon.pipelineStats()};
}

/** Run the divider trojan/spy scenario and return the alarm stream. */
std::vector<Alarm>
dividerAlarms(std::size_t analysis_threads)
{
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    params.analysisThreads = analysis_threads;
    return runDividerOutcome(params).alarms;
}

/**
 * Expect the daemon's verdict on a contention slot — served from its
 * incrementally maintained merged histogram — to equal a from-scratch
 * analysis of the same retained window.
 */
void
expectMatchesRecompute(const AuditDaemon& daemon, unsigned slot,
                       const CCHunterParams& params)
{
    std::vector<const Histogram*> view;
    for (const Histogram& h : daemon.contentionWindow(slot))
        view.push_back(&h);
    const ContentionVerdict streaming =
        daemon.analyzeContention(slot, params);
    const ContentionVerdict reference =
        CCHunter(params).analyzeContention(view, nullptr);
    EXPECT_EQ(streaming.summary(), reference.summary()) << "slot " << slot;
    EXPECT_EQ(streaming.detected, reference.detected) << "slot " << slot;
    EXPECT_EQ(streaming.combined.likelihoodRatio,
              reference.combined.likelihoodRatio)
        << "slot " << slot;
    // The sample counts pin the merged mass itself, which a stale or
    // missing unmerge changes even when the ratio happens to hold.
    EXPECT_EQ(streaming.combined.nonZeroSamples,
              reference.combined.nonZeroSamples)
        << "slot " << slot;
    EXPECT_EQ(streaming.combined.burstSamples,
              reference.combined.burstSamples)
        << "slot " << slot;
}

TEST(OnlineAnalysisTest, ParallelFanOutMatchesSerialAlarms)
{
    // The fan-out across monitored units must leave the alarm stream
    // bit-identical to the serial path: same alarms, same order.
    const auto serial = dividerAlarms(1);
    const auto parallel = dividerAlarms(4);
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].slot, serial[i].slot);
        EXPECT_EQ(parallel[i].when, serial[i].when);
        EXPECT_EQ(parallel[i].quantum, serial[i].quantum);
        EXPECT_EQ(parallel[i].summary, serial[i].summary);
    }
}

TEST(OnlineAnalysisTest, StreamingMatchesLegacyRecomputeAlarms)
{
    // The incrementally maintained merged histogram must be
    // indistinguishable from recomputing it off the retained window:
    // at every clustering pass (an observer registered after the
    // daemon's sees the window that pass consumed), each slot's
    // verdict equals a from-scratch analysis.
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    Machine m(smallMachine());
    addDividerWorkload(m);
    CCAuditor auditor(m);
    programDividerAndBus(auditor);
    AuditDaemon daemon(m, auditor);
    daemon.enableOnlineAnalysis(params);

    std::size_t passes = 0;
    m.scheduler().addQuantumObserver([&](std::uint64_t q, Tick) {
        if ((q + 1) % params.clusteringIntervalQuanta != 0)
            return;
        ++passes;
        for (unsigned s = 0; s < 2; ++s)
            expectMatchesRecompute(daemon, s, params.hunter);
    });
    m.runQuanta(8);

    EXPECT_EQ(passes, 2u);
    ASSERT_FALSE(daemon.alarms().empty());
}

TEST(OnlineAnalysisTest, PipelineStatsCountDrains)
{
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    const auto outcome = runDividerOutcome(params);

    // Two contention slots drained over 8 quanta.
    EXPECT_EQ(outcome.pipeline.drainedHistograms, 16u);
    // Clustering fires after quanta 4 and 8: two analysis passes.
    EXPECT_EQ(outcome.pipeline.analysesRun, 2u);
    EXPECT_GT(outcome.pipeline.latencyMaxUs, 0.0);
    EXPECT_GE(outcome.pipeline.latencyMaxUs,
              outcome.pipeline.latencyMinUs);
    EXPECT_FALSE(outcome.pipeline.summary().empty());

    // The flat stat-entry view carries the same numbers under
    // prefixed names for the stats_report renderer.
    const auto entries = pipelineStatEntries(outcome.pipeline);
    bool found = false;
    for (const auto& e : entries) {
        if (e.name == "daemon.drained_histograms") {
            EXPECT_DOUBLE_EQ(e.value, 16.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(OnlineAnalysisTest, PipelineSummaryIgnoresWallClockLatency)
{
    // Two runs of one scenario differ only in how long each analysis
    // pass took on the host; the printed summary must not differ.
    PipelineStats fast;
    fast.drainedHistograms = 16;
    fast.drainedConflicts = 3;
    fast.evictedQuanta = 2;
    fast.evictedConflicts = 1;
    fast.analysesRun = 2;
    fast.latencyMinUs = 10.0;
    fast.latencyMaxUs = 30.0;
    fast.latencyTotalUs = 40.0;
    PipelineStats slow = fast;
    slow.latencyMinUs = 123.1;
    slow.latencyMaxUs = 353.3;
    slow.latencyTotalUs = 476.4;
    EXPECT_EQ(fast.summary(), slow.summary());

    // The simulated counts still show, and the latencies still reach
    // the stat entries.
    PipelineStats morePasses = fast;
    ++morePasses.analysesRun;
    EXPECT_NE(fast.summary(), morePasses.summary());
    bool found = false;
    for (const auto& e : pipelineStatEntries(slow)) {
        if (e.name == "daemon.latency_max_us") {
            EXPECT_DOUBLE_EQ(e.value, 353.3);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(OnlineAnalysisTest, LongRunKeepsWindowsAndCostBounded)
{
    // Run 4x the retention window: the daemon must hold exactly
    // `retention` quanta per slot, count the rest as evicted, and the
    // incremental analysis must keep matching the recompute path at
    // every quantum boundary, through 24 evict/unmerge cycles.
    DaemonRetention retention;
    retention.contentionQuanta = 8;
    constexpr std::size_t kQuanta = 32;

    Machine m(smallMachine());
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::random64(rng);
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = fastTiming();
    m.addProcess(std::make_unique<DividerSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorDivider(key, 0, 0);
    AuditDaemon daemon(m, auditor, retention);
    std::size_t probes = 0;
    m.scheduler().addQuantumObserver([&](std::uint64_t, Tick) {
        ++probes;
        expectMatchesRecompute(daemon, 0, CCHunterParams{});
    });

    m.runQuanta(kQuanta);

    EXPECT_EQ(probes, kQuanta);
    EXPECT_EQ(daemon.quantaRecorded(), kQuanta);
    EXPECT_EQ(daemon.contentionWindow(0).size(), 8u);
    EXPECT_EQ(daemon.evictedQuanta(0), kQuanta - 8);
    EXPECT_EQ(daemon.contentionQuanta(0).size(), 8u);
}

TEST(OnlineAnalysisTest, ConflictWindowStaysBounded)
{
    // Cache-channel conflict records flow at thousands per quantum; a
    // small retention must cap the ring and count the overflow.
    DaemonRetention retention;
    retention.conflictRecords = 64;

    MachineParams mp = smallMachine();
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    Machine m(mp);
    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 1000.0;
    Rng rng(2);

    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 256;

    PrimeProbeTrojanParams tp;
    tp.timing = timing;
    tp.message = Message::random64(rng);
    tp.layout = layout;
    tp.roundsPerBit = 4;
    m.addProcess(std::make_unique<PrimeProbeTrojan>(tp), 0);
    PrimeProbeSpyParams sp;
    sp.timing = timing;
    sp.layout = layout;
    sp.roundsPerBit = 4;
    m.addProcess(std::make_unique<PrimeProbeSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorCache(key, 0, 0);
    AuditDaemon daemon(m, auditor, retention);

    m.runQuanta(3);

    EXPECT_EQ(daemon.conflictWindow(0).size(), 64u);
    EXPECT_GT(daemon.evictedConflicts(0), 0u);
    EXPECT_EQ(daemon.conflictRecords(0).size(), 64u);
    EXPECT_EQ(daemon.labelSeries(0).size(), 64u);
    const PipelineStats stats = daemon.pipelineStats();
    EXPECT_EQ(stats.drainedConflicts,
              daemon.evictedConflicts(0) + 64u);
}

TEST(OnlineAnalysisTest, InvalidIntervalThrows)
{
    Machine m(smallMachine());
    CCAuditor auditor(m);
    AuditDaemon daemon(m, auditor);
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 0;
    EXPECT_ANY_THROW(daemon.enableOnlineAnalysis(params));
}

} // namespace
} // namespace cchunter
