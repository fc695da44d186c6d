/**
 * @file
 * Graceful-degradation tests: the audit daemon running under an
 * attached fault injector must account for every injected fault, keep
 * detecting the channel at moderate fault rates, and stay
 * bit-identical to a clean run when the injector is absent.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "auditor/cc_auditor.hh"
#include "auditor/daemon.hh"
#include "channels/prime_probe.hh"
#include "channels/divider_channel.hh"
#include "faults/fault_injector.hh"
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

/** Everything observable from one divider-channel audit run. */
struct RunOutcome
{
    std::vector<Alarm> alarms;
    PipelineStats pipeline;
    DegradedStats degraded;
    ContentionVerdict verdict;
    double confidence = 1.0;
};

RunOutcome
runDividerAudit(const std::optional<FaultPlan>& plan,
                std::size_t quanta = 8)
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

    std::optional<FaultInjector> injector;
    if (plan) {
        injector.emplace(*plan);
        daemon.attachFaultInjector(&*injector);
    }

    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    daemon.enableOnlineAnalysis(params);

    m.runQuanta(quanta);

    RunOutcome out;
    out.alarms = daemon.alarms();
    out.pipeline = daemon.pipelineStats();
    out.degraded = daemon.degradedStats();
    out.verdict = daemon.analyzeContention(0);
    out.confidence = daemon.contentionConfidence(0, out.verdict);
    return out;
}

void
expectIdenticalOutcomes(const RunOutcome& a, const RunOutcome& b)
{
    ASSERT_EQ(a.alarms.size(), b.alarms.size());
    for (std::size_t i = 0; i < a.alarms.size(); ++i) {
        EXPECT_EQ(a.alarms[i].slot, b.alarms[i].slot);
        EXPECT_EQ(a.alarms[i].when, b.alarms[i].when);
        EXPECT_EQ(a.alarms[i].quantum, b.alarms[i].quantum);
        EXPECT_EQ(a.alarms[i].summary, b.alarms[i].summary);
        EXPECT_DOUBLE_EQ(a.alarms[i].confidence,
                         b.alarms[i].confidence);
    }
    EXPECT_EQ(a.verdict.summary(), b.verdict.summary());
    EXPECT_DOUBLE_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.degraded.totalFaults(), b.degraded.totalFaults());
}

TEST(DegradedPipelineTest, NoInjectorMeansNoDegradation)
{
    const RunOutcome clean = runDividerAudit(std::nullopt);
    ASSERT_FALSE(clean.alarms.empty());
    EXPECT_EQ(clean.degraded.totalFaults(), 0u);
    EXPECT_DOUBLE_EQ(clean.degraded.windowCoverage, 1.0);
    EXPECT_DOUBLE_EQ(clean.confidence, 1.0);
    for (const Alarm& a : clean.alarms)
        EXPECT_DOUBLE_EQ(a.confidence, 1.0);
}

TEST(DegradedPipelineTest, DisabledPlanMatchesNoInjectorExactly)
{
    // Attaching an injector whose plan is all-zero must leave the run
    // bit-identical to one with no injector at all.
    const RunOutcome without = runDividerAudit(std::nullopt);
    const RunOutcome with_disabled = runDividerAudit(FaultPlan{});
    expectIdenticalOutcomes(without, with_disabled);
}

TEST(DegradedPipelineTest, SeededPlanIsDeterministic)
{
    FaultPlan plan;
    plan.seed = 21;
    plan.dropQuantumRate = 0.2;
    plan.duplicateQuantumRate = 0.1;
    const RunOutcome a = runDividerAudit(plan);
    const RunOutcome b = runDividerAudit(plan);
    expectIdenticalOutcomes(a, b);
    EXPECT_EQ(a.degraded.missedQuanta, b.degraded.missedQuanta);
    EXPECT_EQ(a.degraded.duplicatedQuanta,
              b.degraded.duplicatedQuanta);
}

TEST(DegradedPipelineTest, DetectsThroughTenPercentQuantumLoss)
{
    // The ISSUE acceptance bar: at <= 10% injected quantum loss the
    // divider channel must still be detected with the paper's
    // likelihood-ratio decision (>= 0.9 observed for real channels)
    // while the alarms report degraded confidence.
    FaultPlan plan;
    plan.seed = 4;
    plan.dropQuantumRate = 0.10;
    const RunOutcome r = runDividerAudit(plan, /*quanta=*/16);

    ASSERT_FALSE(r.alarms.empty());
    EXPECT_TRUE(r.verdict.detected);
    EXPECT_GE(r.verdict.combined.likelihoodRatio, 0.9);
    if (r.degraded.missedQuanta > 0) {
        EXPECT_LT(r.degraded.windowCoverage, 1.0);
        EXPECT_LT(r.confidence, 1.0);
        EXPECT_GE(r.degraded.degradedAlarms, 1u);
        EXPECT_LT(r.degraded.minAlarmConfidence, 1.0);
    }
}

TEST(DegradedPipelineTest, DroppedQuantaReduceCoverage)
{
    FaultPlan plan;
    plan.seed = 8;
    plan.dropQuantumRate = 0.5;
    const RunOutcome r = runDividerAudit(plan, /*quanta=*/16);

    ASSERT_GT(r.degraded.missedQuanta, 0u);
    const double expected =
        1.0 - static_cast<double>(r.degraded.missedQuanta) / 16.0;
    EXPECT_NEAR(r.degraded.windowCoverage, expected, 1e-9);
    // Contention confidence for this slot is coverage scaled by the
    // (zero) saturated-bin fraction.
    EXPECT_NEAR(r.confidence, expected, 1e-9);
    // An alarm raised at the last boundary is rated by the formula
    // that rates the end-of-run verdict, over the same window.
    ASSERT_FALSE(r.alarms.empty());
    EXPECT_EQ(r.alarms.back().quantum, 15u);
    EXPECT_DOUBLE_EQ(r.alarms.back().confidence, r.confidence);
}

TEST(DegradedPipelineTest, SaturationFlagsAndStillDetects)
{
    // Paper-width 16-bit histogram entries saturate under the divider
    // channel's dense conflict train; the degraded fit must flag the
    // clamped bins yet keep the verdict.  Saturation needs more than
    // 0xffff delta-T windows falling into one density bin per quantum.
    // At 10 kbps roughly 43% of 500-tick windows are idle (bin 0), so
    // a 100M-tick quantum (200k windows, ~86k idle) clamps bin 0.
    MachineParams mp = smallMachine();
    mp.scheduler.quantum = 100000000;
    Machine m(mp);
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::random64(rng);
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = fastTiming();
    m.addProcess(std::make_unique<DividerSpy>(sp), 1);

    CCAuditor auditor(m);
    HistogramBufferParams hp = auditor.histogramParams();
    hp.saturate16 = true;
    auditor.setHistogramParams(hp);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorDivider(key, 0, 0);
    AuditDaemon daemon(m, auditor);

    m.runQuanta(2);
    const ContentionVerdict verdict = daemon.analyzeContention(0);
    EXPECT_TRUE(verdict.detected);
    const DegradedStats degraded = daemon.degradedStats();
    // The 10k bps divider train overflows 16-bit accumulators.
    EXPECT_GT(degraded.accumulatorSaturations +
                  degraded.saturatedBinEvents,
              0u);
    const double confidence =
        daemon.contentionConfidence(0, verdict);
    EXPECT_GE(confidence, 0.0);
    EXPECT_LE(confidence, 1.0);
}

TEST(DegradedPipelineTest, CacheChannelSurvivesConflictFaults)
{
    // Truncated/reordered/corrupted conflict batches plus forced Bloom
    // aliases: the oscillation detector still fires on the prime/probe
    // channel while confidence reports the reduced integrity.
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
    AuditDaemon daemon(m, auditor);

    FaultPlan plan;
    plan.seed = 6;
    plan.truncateBatchRate = 0.1;
    plan.corruptContextRate = 0.02;
    plan.bloomAliasRate = 0.001;
    FaultInjector injector(plan);
    daemon.attachFaultInjector(&injector);

    m.runQuanta(6);

    const OscillationVerdict verdict = daemon.analyzeOscillation(0);
    EXPECT_TRUE(verdict.detected);
    const DegradedStats degraded = daemon.degradedStats();
    EXPECT_GT(degraded.totalFaults(), 0u);
    // Injector ledger and daemon ledger must reconcile.
    const FaultInjectionStats& is = injector.stats();
    EXPECT_EQ(degraded.truncatedBatches, is.truncatedBatches);
    EXPECT_EQ(degraded.truncatedEvents, is.truncatedEvents);
    EXPECT_EQ(degraded.reorderedBatches, is.reorderedBatches);
    EXPECT_EQ(degraded.corruptedContexts, is.corruptedContexts);
    EXPECT_EQ(degraded.bloomAliases, is.bloomAliases);
    const double confidence = daemon.oscillationConfidence(0);
    EXPECT_LT(confidence, 1.0);
    EXPECT_GT(confidence, 0.0);
}

} // namespace
} // namespace cchunter
