/**
 * @file
 * Unit tests for the deterministic fault-injection layer: plan
 * validation and config round-trips, per-fault stream independence,
 * mutation bookkeeping, and exact run-to-run reproducibility.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "util/config.hh"

namespace cchunter
{
namespace
{

TEST(FaultPlanTest, DefaultPlanIsDisabled)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    plan.validate(); // all-zero plan is valid
}

TEST(FaultPlanTest, AnyNonZeroRateEnables)
{
    FaultPlan plan;
    plan.dropQuantumRate = 0.1;
    EXPECT_TRUE(plan.enabled());

    FaultPlan sat;
    sat.saturatePaperWidths = true;
    EXPECT_TRUE(sat.enabled());
}

TEST(FaultPlanTest, ValidateRejectsOutOfRangeRates)
{
    FaultPlan plan;
    plan.dropQuantumRate = 1.5;
    EXPECT_ANY_THROW(plan.validate());
    plan.dropQuantumRate = -0.1;
    EXPECT_ANY_THROW(plan.validate());
}

TEST(FaultPlanTest, ConfigRoundTrip)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.dropQuantumRate = 0.125;
    plan.duplicateQuantumRate = 0.25;
    plan.truncateBatchRate = 0.0625;
    plan.reorderBatchRate = 0.5;
    plan.corruptContextRate = 0.03125;
    plan.bloomAliasRate = 0.015625;
    plan.saturatePaperWidths = true;

    Config cfg;
    plan.toConfig(cfg);
    const FaultPlan back = FaultPlan::fromConfig(cfg);
    EXPECT_EQ(back.seed, plan.seed);
    EXPECT_DOUBLE_EQ(back.dropQuantumRate, plan.dropQuantumRate);
    EXPECT_DOUBLE_EQ(back.duplicateQuantumRate,
                     plan.duplicateQuantumRate);
    EXPECT_DOUBLE_EQ(back.truncateBatchRate, plan.truncateBatchRate);
    EXPECT_DOUBLE_EQ(back.reorderBatchRate, plan.reorderBatchRate);
    EXPECT_DOUBLE_EQ(back.corruptContextRate, plan.corruptContextRate);
    EXPECT_DOUBLE_EQ(back.bloomAliasRate, plan.bloomAliasRate);
    EXPECT_EQ(back.saturatePaperWidths, plan.saturatePaperWidths);
    EXPECT_FALSE(plan.summary().empty());
}

TEST(FaultInjectorTest, ZeroRatesNeverFire)
{
    FaultInjector inj{FaultPlan{}};
    std::vector<ConflictMissEvent> events(16);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(inj.dropQuantum());
        EXPECT_FALSE(inj.duplicateQuantum());
        EXPECT_FALSE(inj.aliasBloom());
        EXPECT_FALSE(inj.mutateConflictBatch(events).any());
    }
    const FaultInjectionStats& stats = inj.stats();
    EXPECT_EQ(stats.droppedQuanta, 0u);
    EXPECT_EQ(stats.duplicatedQuanta, 0u);
    EXPECT_EQ(stats.truncatedBatches, 0u);
    EXPECT_EQ(stats.truncatedEvents, 0u);
    EXPECT_EQ(stats.reorderedBatches, 0u);
    EXPECT_EQ(stats.corruptedContexts, 0u);
    EXPECT_EQ(stats.bloomAliases, 0u);
}

TEST(FaultInjectorTest, DropRateConvergesAndCounts)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.dropQuantumRate = 0.3;
    FaultInjector inj(plan);
    std::uint64_t fired = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i)
        fired += inj.dropQuantum();
    const double rate = static_cast<double>(fired) / kDraws;
    EXPECT_NEAR(rate, 0.3, 0.02);
    EXPECT_EQ(inj.stats().droppedQuanta, fired);
    // Only the drop stream drew, so no other counter moved.
    EXPECT_EQ(inj.stats().duplicatedQuanta, 0u);
    EXPECT_EQ(inj.stats().bloomAliases, 0u);
}

TEST(FaultInjectorTest, SameSeedSameSchedule)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.dropQuantumRate = 0.2;
    plan.duplicateQuantumRate = 0.1;
    plan.bloomAliasRate = 0.05;
    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(a.dropQuantum(), b.dropQuantum());
        EXPECT_EQ(a.duplicateQuantum(), b.duplicateQuantum());
        EXPECT_EQ(a.aliasBloom(), b.aliasBloom());
    }
}

TEST(FaultInjectorTest, FaultStreamsAreIndependent)
{
    // Turning one fault on must not shift another fault's schedule:
    // the drop decisions with and without duplication enabled are
    // identical draw-for-draw.
    FaultPlan only_drop;
    only_drop.seed = 11;
    only_drop.dropQuantumRate = 0.25;

    FaultPlan both = only_drop;
    both.duplicateQuantumRate = 0.4;

    FaultInjector a(only_drop), b(both);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(a.dropQuantum(), b.dropQuantum());
        b.duplicateQuantum(); // extra draws on b's dup stream
    }
}

TEST(FaultInjectorTest, TruncationShortensAndCounts)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.truncateBatchRate = 1.0;
    FaultInjector inj(plan);

    std::vector<ConflictMissEvent> events(10);
    for (std::size_t i = 0; i < events.size(); ++i)
        events[i].time = i;
    const ConflictBatchMutation m = inj.mutateConflictBatch(events);
    EXPECT_TRUE(m.truncated);
    EXPECT_LT(events.size(), 10u);
    EXPECT_EQ(m.truncatedEvents, 10u - events.size());
    // Truncation keeps a prefix: surviving events stay in time order.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].time, i);
    EXPECT_EQ(inj.stats().truncatedBatches, 1u);
    EXPECT_EQ(inj.stats().truncatedEvents, m.truncatedEvents);
}

TEST(FaultInjectorTest, ContextCorruptionStaysInHardwareIdSpace)
{
    FaultPlan plan;
    plan.seed = 5;
    plan.corruptContextRate = 1.0;
    FaultInjector inj(plan);

    std::vector<ConflictMissEvent> events(64);
    for (auto& e : events) {
        e.replacer = 0;
        e.victim = 1;
    }
    const ConflictBatchMutation m = inj.mutateConflictBatch(events);
    EXPECT_GT(m.corruptedContexts, 0u);
    // Corrupted IDs are drawn from the 3-bit hardware context space.
    for (const auto& e : events) {
        EXPECT_LT(e.replacer, ContextId{8});
        EXPECT_LT(e.victim, ContextId{8});
    }
    EXPECT_EQ(inj.stats().corruptedContexts, m.corruptedContexts);
}

TEST(FaultInjectorTest, ReorderShufflesInPlace)
{
    FaultPlan plan;
    plan.seed = 9;
    plan.reorderBatchRate = 1.0;
    FaultInjector inj(plan);

    std::vector<ConflictMissEvent> events(32);
    for (std::size_t i = 0; i < events.size(); ++i)
        events[i].time = i;
    const ConflictBatchMutation m = inj.mutateConflictBatch(events);
    EXPECT_TRUE(m.reordered);
    EXPECT_EQ(events.size(), 32u); // nothing lost, only shuffled
    bool out_of_order = false;
    for (std::size_t i = 1; i < events.size(); ++i)
        out_of_order |= events[i].time < events[i - 1].time;
    EXPECT_TRUE(out_of_order);
    EXPECT_EQ(inj.stats().reorderedBatches, 1u);
}

} // namespace
} // namespace cchunter
