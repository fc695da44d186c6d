#include <gtest/gtest.h>

#include "channels/bus_channel.hh"
#include "scenario/experiment.hh"

namespace cchunter
{
namespace
{

OnlineAuditOptions
auditOf(AuditedWorkload workload, const ScenarioOptions& scenario)
{
    OnlineAuditOptions options;
    options.workload = workload;
    options.scenario = scenario;
    return options;
}

/** Small quanta keep integration tests fast while preserving the
 *  delta-t window structure. */
ScenarioOptions
fastOptions()
{
    ScenarioOptions opts;
    opts.quantum = 2500000; // 1 ms
    opts.quanta = 8;
    opts.bandwidthBps = 10000.0;
    opts.noiseProcesses = 3;
    return opts;
}

TEST(ExpectedBitsTest, CyclicExpansion)
{
    Message m = Message::fromBits({true, false});
    Message e = expectedBits(m, 5);
    EXPECT_EQ(e.toString(), "10101");
}

TEST(SlotBitErrorRateTest, CountsMismatchedSlots)
{
    Message m = Message::fromBits({true, false});
    std::vector<std::pair<std::size_t, bool>> decoded{
        {0, true}, {1, false}, {2, false}, {3, false}};
    // Slot 2 should be '1' (cyclic): one error in four.
    EXPECT_DOUBLE_EQ(slotBitErrorRate(m, decoded), 0.25);
    EXPECT_DOUBLE_EQ(slotBitErrorRate(m, {}), 1.0);
}

TEST(ScenarioOptionsTest, SignalCapDefaults)
{
    ScenarioOptions opts;
    EXPECT_EQ(opts.effectiveSignalTicks(), 25000000u);
    opts.maxSignalTicks = 123;
    EXPECT_EQ(opts.effectiveSignalTicks(), 123u);
}

TEST(BusScenarioTest, DetectsAndDecodes)
{
    AuditRun run(auditOf(AuditedWorkload::Bus, fastOptions()));
    run.run();
    const OnlineAuditResult r = run.result();
    const ContentionVerdict& v = r.finalVerdicts[0].contention;
    EXPECT_TRUE(v.detected);
    EXPECT_GT(v.recurrence.maxLikelihoodRatio, 0.9);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.05);
    EXPECT_GT(run.machine().mem().bus().locks(), 100u);
    EXPECT_EQ(run.daemon().contentionQuanta(0).size(), 8u);
    EXPECT_FALSE(dynamic_cast<const BusSpy&>(*run.spy()).samples().empty());
}

TEST(BusScenarioTest, BurstPeakNearTwentyLocksPerWindow)
{
    const OnlineAuditResult r =
        runOnlineAudit(auditOf(AuditedWorkload::Bus, fastOptions()));
    // Locks are paced every 5000 cycles; delta-t = 100k -> bursts of
    // ~20 (paper figure 6a).
    EXPECT_NEAR(static_cast<double>(
                    r.finalVerdicts[0].contention.combined.burstPeakBin),
                20.0, 3.0);
}

TEST(DividerScenarioTest, DetectsAndDecodes)
{
    AuditRun run(auditOf(AuditedWorkload::Divider, fastOptions()));
    run.run();
    const OnlineAuditResult r = run.result();
    const ContentionVerdict& v = r.finalVerdicts[0].contention;
    EXPECT_TRUE(v.detected);
    EXPECT_GT(v.recurrence.maxLikelihoodRatio, 0.9);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.05);
    EXPECT_GT(run.machine().divider(0).totalConflicts(), 1000u);
    // Burst cluster near 96 wait-conflicts per 500-cycle window
    // (paper figure 6b: bins 84-105).
    EXPECT_GE(v.combined.burstPeakBin, 84u);
    EXPECT_LE(v.combined.burstPeakBin, 105u);
}

TEST(CacheScenarioTest, DetectsOscillationNearSetCount)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0; // one bit per ms quantum
    opts.quanta = 16;
    opts.channelSets = 512;
    AuditRun run(auditOf(AuditedWorkload::Cache, opts));
    run.run();
    const OnlineAuditResult r = run.result();
    const OscillationVerdict& v = r.finalVerdicts[0].oscillation;
    EXPECT_TRUE(v.detected);
    // Dominant lag tracks the set count, slightly inflated by noise
    // (paper: 533 for 512 sets).
    EXPECT_GE(v.analysis.dominantLag, 500u);
    EXPECT_LE(v.analysis.dominantLag, 600u);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.2);
    EXPECT_FALSE(run.daemon().conflictRecords(0).empty());
}

TEST(CacheScenarioTest, FewerSetsShorterPeriod)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 12;
    opts.channelSets = 128;
    const OscillationVerdict v =
        runOnlineAudit(auditOf(AuditedWorkload::Cache, opts))
            .finalVerdicts[0]
            .oscillation;
    EXPECT_TRUE(v.detected);
    EXPECT_GE(v.analysis.dominantLag, 120u);
    EXPECT_LE(v.analysis.dominantLag, 180u);
}

TEST(MultiplierScenarioTest, DetectsAndDecodes)
{
    AuditRun run(auditOf(AuditedWorkload::Multiplier, fastOptions()));
    run.run();
    const OnlineAuditResult r = run.result();
    const ContentionVerdict& v = r.finalVerdicts[0].contention;
    EXPECT_TRUE(v.detected);
    EXPECT_GT(v.recurrence.maxLikelihoodRatio, 0.9);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.05);
    EXPECT_GT(run.machine().multiplier(0).totalConflicts(), 1000u);
}

TEST(BusScenarioTest, EvasionKeepsDetectionKillsChannel)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 6;
    // Decoys at the signalling rate: every window looks contended.
    opts.busEvasionPeriod = 5000;
    const OnlineAuditResult r =
        runOnlineAudit(auditOf(AuditedWorkload::Bus, opts));
    EXPECT_TRUE(r.finalVerdicts[0].contention.detected);
    // The spy can no longer tell '1' slots from decoyed '0' slots.
    EXPECT_GT(r.channel.wireBitErrorRate, 0.2);
}

TEST(BenignScenarioTest, NoFalseAlarms)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 4;
    for (const char* name : {"gobmk", "mailserver"}) {
        // Bus + divider, then the L2 with the bus: every unit of the
        // pair judged, two slots at a time.
        for (const BenignAuditUnits units :
             {BenignAuditUnits::BusDivider, BenignAuditUnits::CacheBus}) {
            OnlineAuditOptions audit =
                auditOf(AuditedWorkload::BenignPair, opts);
            audit.benignA = audit.benignB = name;
            audit.benignUnits = units;
            const OnlineAuditResult r = runOnlineAudit(audit);
            ASSERT_EQ(r.finalVerdicts.size(), 2u);
            for (const UnitOutcome& outcome : r.finalVerdicts)
                EXPECT_FALSE(outcome.detected)
                    << name << " " << monitorTargetName(outcome.unit);
        }
    }
}

TEST(CacheScenarioTest, IdealTrackerAlsoDetects)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 12;
    opts.channelSets = 128;
    opts.idealTracker = true;
    AuditRun run(auditOf(AuditedWorkload::Cache, opts));
    run.run();
    EXPECT_TRUE(run.result().finalVerdicts[0].oscillation.detected);
    ASSERT_NE(run.auditor().idealTracker(0), nullptr);
    EXPECT_GT(run.auditor().idealTracker(0)->conflictMisses(), 0u);
}

TEST(CacheScenarioTest, StarvedBloomStillDetects)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 12;
    opts.channelSets = 128;
    opts.trackerParams.bloomBitsPerGeneration = 256; // N/16
    EXPECT_TRUE(runOnlineAudit(auditOf(AuditedWorkload::Cache, opts))
                    .finalVerdicts[0]
                    .oscillation.detected);
}

TEST(ScenarioTest, DeterministicForSeed)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 3;
    AuditRun a(auditOf(AuditedWorkload::Bus, opts));
    AuditRun b(auditOf(AuditedWorkload::Bus, opts));
    a.run();
    b.run();
    EXPECT_EQ(a.machine().mem().bus().locks(),
              b.machine().mem().bus().locks());
    EXPECT_EQ(a.spy()->decoded().toString(),
              b.spy()->decoded().toString());
    EXPECT_DOUBLE_EQ(
        a.result().finalVerdicts[0].contention.combined.likelihoodRatio,
        b.result().finalVerdicts[0].contention.combined.likelihoodRatio);
}

TEST(ScenarioTest, MessagePropagates)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 3;
    opts.message = Message::fromBits({true, true, false, true});
    const AuditRun run(auditOf(AuditedWorkload::Bus, opts));
    EXPECT_EQ(run.payload().toString(), "1101");
    EXPECT_EQ(run.wire().toString(), "1101");
}

TEST(ScenarioTest, PipelineStatsPopulated)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 3;
    const OnlineAuditResult r =
        runOnlineAudit(auditOf(AuditedWorkload::Bus, opts));
    // One monitored slot, three quanta drained, nothing evicted (the
    // online retention spans the whole run).
    EXPECT_EQ(r.pipeline.drainedHistograms, 3u);
    EXPECT_EQ(r.pipeline.evictedQuanta, 0u);
    EXPECT_FALSE(r.pipeline.summary().empty());
}

TEST(ScenarioTest, ScenarioConfigEchoesEffectiveOptions)
{
    ScenarioOptions opts = fastOptions();
    const Config cfg = scenarioConfig(opts);
    EXPECT_EQ(cfg.getUint("quanta"), opts.quanta);
    EXPECT_EQ(cfg.getUint("quantum"), opts.quantum);
    EXPECT_DOUBLE_EQ(cfg.getDouble("bandwidth"), opts.bandwidthBps);
    EXPECT_EQ(cfg.getUint("sets"), opts.channelSets);
    EXPECT_FALSE(cfg.getBool("ideal_tracker"));
    // The dump is the reproducibility record: every key must appear.
    const std::string dumped = cfg.dump();
    for (const auto& key : cfg.keys())
        EXPECT_NE(dumped.find(key + "="), std::string::npos);
}

} // namespace
} // namespace cchunter
