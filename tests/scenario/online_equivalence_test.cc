/**
 * @file
 * Equivalence test for deferred end-of-run oscillation verdicts: the
 * batched FFT pass (finalizeDeferredOscillations) must reproduce the
 * inline per-run transforms bit for bit.  Both resolve the verdict
 * through the same full-window transform of the retained label
 * series, so the alarm stream is compared field by field and the
 * final verdicts by decision and exact correlogram.
 */

#include <gtest/gtest.h>

#include <vector>

#include "scenario/experiment.hh"

namespace cchunter
{
namespace
{

OnlineAuditOptions
cacheAudit(std::uint64_t seed)
{
    OnlineAuditOptions options;
    options.workload = AuditedWorkload::Cache;
    options.scenario.bandwidthBps = 1000.0;
    options.scenario.quanta = 8;
    options.scenario.quantum = 2500000;
    options.scenario.seed = seed;
    options.scenario.noiseProcesses = 0;
    options.online.clusteringIntervalQuanta = 4;
    return options;
}

void
expectSameAlarms(const OnlineAuditResult& a, const OnlineAuditResult& b)
{
    ASSERT_EQ(a.alarms.size(), b.alarms.size());
    for (std::size_t i = 0; i < a.alarms.size(); ++i) {
        EXPECT_EQ(a.alarms[i].quantum, b.alarms[i].quantum) << i;
        EXPECT_EQ(a.alarms[i].slot, b.alarms[i].slot) << i;
        EXPECT_EQ(a.alarms[i].unit, b.alarms[i].unit) << i;
        EXPECT_EQ(a.alarms[i].kind, b.alarms[i].kind) << i;
        EXPECT_EQ(a.alarms[i].dominantFeature,
                  b.alarms[i].dominantFeature)
            << i;
        EXPECT_EQ(a.alarms[i].confidence, b.alarms[i].confidence) << i;
    }
}

TEST(DeferredOscillationTest, BatchedFinalizeMatchesInlineVerdicts)
{
    for (const std::uint64_t seed : {2ull, 7ull}) {
        // Default options on both sides: the inline verdict and the
        // deferred pass run the same full transform, so they must be
        // bit-identical.
        const OnlineAuditResult inlineRun =
            runOnlineAudit(cacheAudit(seed));

        OnlineAuditOptions deferredOptions = cacheAudit(seed);
        deferredOptions.deferOscillationVerdicts = true;
        OnlineAuditResult deferredRun = runOnlineAudit(deferredOptions);

        expectSameAlarms(inlineRun, deferredRun);

        std::vector<UnitOutcome*> pending;
        for (UnitOutcome& unit : deferredRun.finalVerdicts)
            if (unit.deferredOscillation)
                pending.push_back(&unit);
        finalizeDeferredOscillations(pending);

        ASSERT_EQ(deferredRun.finalVerdicts.size(),
                  inlineRun.finalVerdicts.size());
        for (std::size_t i = 0; i < inlineRun.finalVerdicts.size();
             ++i) {
            const UnitOutcome& d = deferredRun.finalVerdicts[i];
            const UnitOutcome& r = inlineRun.finalVerdicts[i];
            EXPECT_FALSE(d.deferredOscillation) << "unit " << i;
            EXPECT_TRUE(d.pendingSeries.empty()) << "unit " << i;
            EXPECT_EQ(d.detected, r.detected) << "unit " << i;
            EXPECT_EQ(d.kind, r.kind) << "unit " << i;
            if (d.kind != AlarmKind::Oscillation)
                continue;
            // Same dispatch, shared plan: bit-identical analysis.
            EXPECT_EQ(d.oscillation.detected, r.oscillation.detected);
            EXPECT_EQ(d.oscillation.analysis.correlogram,
                      r.oscillation.analysis.correlogram)
                << "unit " << i;
            EXPECT_EQ(d.oscillation.analysis.dominantLag,
                      r.oscillation.analysis.dominantLag);
            EXPECT_EQ(d.oscillation.analysis.dominantValue,
                      r.oscillation.analysis.dominantValue);
        }
    }
}

TEST(DeferredOscillationTest, FinalizeOnEmptyPendingIsANoop)
{
    std::vector<UnitOutcome*> none;
    EXPECT_EQ(finalizeDeferredOscillations(none), 0u);
}

} // namespace
} // namespace cchunter
