/**
 * @file
 * Fault-matrix scenario tests: live-audited trojan/spy runs driven
 * through seeded fault plans.  Detection must survive moderate fault
 * rates with honestly degraded confidence, fault-free plans must leave
 * scenario results bit-identical to pre-fault-injection runs, and any
 * seeded plan must reproduce exactly.
 */

#include <gtest/gtest.h>

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

OnlineAuditResult
audit(AuditedWorkload workload, const ScenarioOptions& scenario)
{
    return runOnlineAudit(auditOf(workload, scenario));
}

ScenarioOptions
fastOptions()
{
    ScenarioOptions opts;
    opts.bandwidthBps = 10000.0;
    opts.quanta = 8;
    opts.quantum = 2500000;
    opts.seed = 1;
    opts.noiseProcesses = 0;
    return opts;
}

TEST(FaultMatrixTest, CleanPlanLeavesDividerRunUntouched)
{
    const ScenarioOptions clean = fastOptions();
    ScenarioOptions with_plan = fastOptions();
    with_plan.faults = FaultPlan{}; // explicit all-zero plan

    AuditRun clean_run(auditOf(AuditedWorkload::Divider, clean));
    AuditRun plan_run(auditOf(AuditedWorkload::Divider, with_plan));
    clean_run.run();
    plan_run.run();
    const OnlineAuditResult a = clean_run.result();
    const OnlineAuditResult b = plan_run.result();

    EXPECT_EQ(a.finalVerdicts[0].contention.summary(),
              b.finalVerdicts[0].contention.summary());
    EXPECT_EQ(clean_run.spy()->decoded().toString(),
              plan_run.spy()->decoded().toString());
    EXPECT_DOUBLE_EQ(a.channel.wireBitErrorRate,
                     b.channel.wireBitErrorRate);
    EXPECT_EQ(clean_run.machine().divider(0).totalConflicts(),
              plan_run.machine().divider(0).totalConflicts());
    EXPECT_EQ(a.degraded.totalFaults(), 0u);
    EXPECT_EQ(b.degraded.totalFaults(), 0u);
    EXPECT_DOUBLE_EQ(a.finalVerdicts[0].confidence, 1.0);
    EXPECT_DOUBLE_EQ(b.finalVerdicts[0].confidence, 1.0);
    // Clean config dumps carry no faults.* keys.
    EXPECT_EQ(scenarioConfig(clean).dump(),
              scenarioConfig(with_plan).dump());
}

TEST(FaultMatrixTest, DividerDetectsAtTenPercentLoss)
{
    // The acceptance bar: <= 10% injected quantum loss keeps the
    // likelihood-ratio decision (>= 0.9) while confidence degrades.
    ScenarioOptions opts = fastOptions();
    opts.quanta = 16;
    opts.faults.seed = 4;
    opts.faults.dropQuantumRate = 0.10;

    const OnlineAuditResult r = audit(AuditedWorkload::Divider, opts);
    const UnitOutcome& outcome = r.finalVerdicts[0];
    EXPECT_TRUE(outcome.contention.detected);
    EXPECT_GE(outcome.contention.combined.likelihoodRatio, 0.9);
    if (r.degraded.missedQuanta > 0) {
        EXPECT_LT(r.degraded.windowCoverage, 1.0);
        EXPECT_LT(outcome.confidence, 1.0);
    }
    EXPECT_GT(outcome.confidence, 0.0);
}

TEST(FaultMatrixTest, SeededScenarioRunsAreDeterministic)
{
    ScenarioOptions opts = fastOptions();
    opts.faults.seed = 23;
    opts.faults.dropQuantumRate = 0.15;
    opts.faults.duplicateQuantumRate = 0.05;
    opts.faults.saturatePaperWidths = true;

    const OnlineAuditResult a = audit(AuditedWorkload::Divider, opts);
    const OnlineAuditResult b = audit(AuditedWorkload::Divider, opts);

    EXPECT_EQ(a.finalVerdicts[0].contention.summary(),
              b.finalVerdicts[0].contention.summary());
    EXPECT_DOUBLE_EQ(a.finalVerdicts[0].confidence,
                     b.finalVerdicts[0].confidence);
    EXPECT_EQ(a.degraded.missedQuanta, b.degraded.missedQuanta);
    EXPECT_EQ(a.degraded.duplicatedQuanta, b.degraded.duplicatedQuanta);
    EXPECT_EQ(a.degraded.saturatedBinEvents,
              b.degraded.saturatedBinEvents);
    EXPECT_EQ(a.degraded.accumulatorSaturations,
              b.degraded.accumulatorSaturations);
    // The faults echo into the reproducibility config dump.
    const std::string dump = scenarioConfig(opts).dump();
    EXPECT_NE(dump.find("faults.drop_quantum"), std::string::npos);
    EXPECT_NE(dump.find("faults.saturate"), std::string::npos);
}

TEST(FaultMatrixTest, CacheScenarioDegradesGracefully)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 6;
    opts.channelSets = 256;
    opts.faults.seed = 6;
    opts.faults.truncateBatchRate = 0.1;
    opts.faults.bloomAliasRate = 0.001;

    const OnlineAuditResult r = audit(AuditedWorkload::Cache, opts);
    EXPECT_TRUE(r.finalVerdicts[0].oscillation.detected);
    EXPECT_GT(r.degraded.totalFaults(), 0u);
    EXPECT_LT(r.finalVerdicts[0].confidence, 1.0);
    EXPECT_GT(r.finalVerdicts[0].confidence, 0.0);
}

TEST(FaultMatrixTest, BenignPairStaysQuietUnderFaults)
{
    // Fault injection must not conjure channels out of benign noise:
    // dropped quanta and saturated entries degrade confidence, not
    // discrimination.
    ScenarioOptions opts;
    opts.quanta = 4;
    opts.quantum = 2500000;
    opts.seed = 2;
    opts.faults.seed = 12;
    opts.faults.dropQuantumRate = 0.1;
    opts.faults.saturatePaperWidths = true;

    for (const BenignAuditUnits units :
         {BenignAuditUnits::BusDivider, BenignAuditUnits::CacheBus}) {
        OnlineAuditOptions options =
            auditOf(AuditedWorkload::BenignPair, opts);
        options.benignA = "gobmk";
        options.benignB = "sjeng";
        options.benignUnits = units;
        const OnlineAuditResult r = runOnlineAudit(options);
        ASSERT_EQ(r.finalVerdicts.size(), 2u);
        for (const UnitOutcome& outcome : r.finalVerdicts) {
            EXPECT_FALSE(outcome.detected)
                << monitorTargetName(outcome.unit);
            EXPECT_LE(outcome.confidence, 1.0);
            EXPECT_GT(outcome.confidence, 0.0);
        }
    }
}

} // namespace
} // namespace cchunter
