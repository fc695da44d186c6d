/**
 * @file
 * Pins the DetectionThresholds plumbing: default thresholds leave a
 * live-audited run bit-identical to the pre-parameterisation harness,
 * detectedAt() reproduces the headline decision at the run's own
 * cut-offs, and every run's config dump echoes the cut-offs it used.
 */

#include <gtest/gtest.h>

#include "eval/labelled_corpus.hh"
#include "scenario/experiment.hh"

using namespace cchunter;

namespace
{

ScenarioOptions
fastOptions()
{
    ScenarioOptions opts;
    opts.quantum = 2500000;
    opts.quanta = 8;
    opts.bandwidthBps = 10000.0;
    opts.noiseProcesses = 0;
    opts.seed = 5;
    return opts;
}

OnlineAuditResult
audit(AuditedWorkload workload, const ScenarioOptions& scenario)
{
    OnlineAuditOptions options;
    options.workload = workload;
    options.scenario = scenario;
    return runOnlineAudit(options);
}

} // namespace

TEST(ThresholdPlumbingTest, ValidateRejectsOutOfRangeCutoffs)
{
    DetectionThresholds thresholds;
    EXPECT_NO_THROW(thresholds.validate());
    thresholds.contentionLikelihood = -0.1;
    EXPECT_ANY_THROW(thresholds.validate());
    thresholds = {};
    thresholds.oscillationPeak = 1.5;
    EXPECT_ANY_THROW(thresholds.validate());
    thresholds = {};
    thresholds.oscillationStrongPeak = 2.0;
    EXPECT_ANY_THROW(thresholds.apply());
}

TEST(ThresholdPlumbingTest, ApplyOverridesOnlyTheCutoffs)
{
    CCHunterParams base;
    base.clustering.burst.minNonZeroSamples = 99;
    base.oscillation.minSeriesLength = 77;
    DetectionThresholds thresholds;
    thresholds.contentionLikelihood = 0.8;
    thresholds.oscillationPeak = 0.2;
    thresholds.oscillationStrongPeak = 0.9;
    const CCHunterParams applied = thresholds.apply(base);
    EXPECT_EQ(applied.clustering.burst.likelihoodThreshold, 0.8);
    EXPECT_EQ(applied.oscillation.peakThreshold, 0.2);
    EXPECT_EQ(applied.oscillation.strongPeakThreshold, 0.9);
    // Non-threshold parameters pass through untouched.
    EXPECT_EQ(applied.clustering.burst.minNonZeroSamples, 99u);
    EXPECT_EQ(applied.oscillation.minSeriesLength, 77u);
}

TEST(ThresholdPlumbingTest, DefaultsMatchThePaper)
{
    const DetectionThresholds thresholds;
    EXPECT_EQ(thresholds.contentionLikelihood, 0.5);
    const CCHunterParams stock;
    const CCHunterParams applied = thresholds.apply();
    EXPECT_EQ(applied.clustering.burst.likelihoodThreshold,
              stock.clustering.burst.likelihoodThreshold);
    EXPECT_EQ(applied.oscillation.peakThreshold,
              stock.oscillation.peakThreshold);
    EXPECT_EQ(applied.oscillation.strongPeakThreshold,
              stock.oscillation.strongPeakThreshold);
}

TEST(ThresholdPlumbingTest, DefaultThresholdsKeepRunsBitIdentical)
{
    // Explicit paper values and the default-constructed struct must
    // drive byte-identical analyses (the pre-parameterisation pin).
    ScenarioOptions defaults = fastOptions();
    ScenarioOptions explicitPaper = fastOptions();
    explicitPaper.thresholds.contentionLikelihood = 0.5;
    explicitPaper.thresholds.oscillationPeak = 0.35;
    explicitPaper.thresholds.oscillationStrongPeak = 0.6;
    const OnlineAuditResult a = audit(AuditedWorkload::Divider, defaults);
    const OnlineAuditResult b =
        audit(AuditedWorkload::Divider, explicitPaper);
    const ContentionVerdict& va = a.finalVerdicts[0].contention;
    const ContentionVerdict& vb = b.finalVerdicts[0].contention;
    EXPECT_EQ(va.detected, vb.detected);
    EXPECT_EQ(va.summary(), vb.summary());
    EXPECT_EQ(a.channel.wireBitErrorRate, b.channel.wireBitErrorRate);
    EXPECT_EQ(a.alarms.size(), b.alarms.size());
}

TEST(ThresholdPlumbingTest, DetectedAtReproducesTheContentionVerdict)
{
    const ContentionVerdict verdict =
        audit(AuditedWorkload::Divider, fastOptions())
            .finalVerdicts[0]
            .contention;
    EXPECT_TRUE(verdict.detected);
    EXPECT_EQ(verdict.detectedAt(0.5), verdict.detected);
    // Re-deciding is monotone: loosening can only keep or gain the
    // detection, tightening can only keep or lose it.
    bool previous = true;
    for (double t = 0.05; t <= 0.951; t += 0.05) {
        const bool now = verdict.detectedAt(t);
        EXPECT_TRUE(previous || !now) << "non-monotone at " << t;
        previous = now;
    }
    // The paper separation: a real channel survives far above 0.5.
    EXPECT_TRUE(verdict.detectedAt(0.9));
}

TEST(ThresholdPlumbingTest, DetectedAtReproducesTheOscillationVerdict)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 12;
    const OscillationVerdict verdict =
        audit(AuditedWorkload::Cache, opts).finalVerdicts[0].oscillation;
    EXPECT_TRUE(verdict.detected);
    const CCHunterParams paper = DetectionThresholds{}.apply();
    EXPECT_EQ(verdict.detectedAt(paper.oscillation), verdict.detected);
    // An impossible peak floor kills the re-decision.
    OscillationParams strict = paper.oscillation;
    strict.peakThreshold = 1.0;
    strict.strongPeakThreshold = 1.0;
    EXPECT_FALSE(verdict.detectedAt(strict));
}

TEST(ThresholdPlumbingTest, ScenarioConfigEchoesTheCutoffs)
{
    ScenarioOptions opts = fastOptions();
    const Config stock = scenarioConfig(opts);
    EXPECT_EQ(stock.getDouble("detect.likelihood"), 0.5);
    EXPECT_EQ(stock.getDouble("detect.osc_peak"), 0.35);
    EXPECT_EQ(stock.getDouble("detect.osc_strong_peak"), 0.6);
    opts.thresholds.contentionLikelihood = 0.75;
    const Config swept = scenarioConfig(opts);
    EXPECT_EQ(swept.getDouble("detect.likelihood"), 0.75);
}

TEST(ThresholdPlumbingTest, SweptThresholdChangesTheOnlineVerdict)
{
    // The same cache channel judged under an impossible peak floor
    // must stop flagging: proof the cut-offs actually reach the
    // online analyses rather than being decorative.
    OnlineAuditOptions options;
    options.workload = AuditedWorkload::Cache;
    options.scenario = fastOptions();
    options.scenario.bandwidthBps = 1000.0;
    options.scenario.quanta = 12;
    options.online.clusteringIntervalQuanta = 4;
    const OnlineAuditResult paper = runOnlineAudit(options);
    options.scenario.thresholds.oscillationPeak = 1.0;
    options.scenario.thresholds.oscillationStrongPeak = 1.0;
    const OnlineAuditResult strict = runOnlineAudit(options);
    ASSERT_EQ(paper.finalVerdicts.size(), 1u);
    ASSERT_EQ(strict.finalVerdicts.size(), 1u);
    EXPECT_TRUE(paper.finalVerdicts[0].detected);
    EXPECT_FALSE(strict.finalVerdicts[0].detected);
    // The online alarm stream dries up with the verdict.
    EXPECT_FALSE(paper.alarms.empty());
    EXPECT_LT(strict.alarms.size(), paper.alarms.size());
}
