#include <gtest/gtest.h>

#include "fleet/tenant_registry.hh"

namespace cchunter
{
namespace
{

TEST(TenantRegistryTest, KeepsTenantsInAscendingIdOrder)
{
    TenantRegistry registry;
    registry.add({7, "late", {}});
    registry.add({2, "early", {}});
    registry.add({5, "middle", {}});
    ASSERT_EQ(registry.size(), 3u);
    EXPECT_EQ(registry.tenants()[0].id, 2u);
    EXPECT_EQ(registry.tenants()[1].id, 5u);
    EXPECT_EQ(registry.tenants()[2].id, 7u);
}

TEST(TenantRegistryTest, DefaultsDisplayNameFromId)
{
    TenantRegistry registry;
    registry.add({3, "", {}});
    EXPECT_EQ(registry.at(3).name, "tenant3");
}

TEST(TenantRegistryTest, LookupAndContains)
{
    TenantRegistry registry;
    registry.add({1, "one", {}});
    registry.add({4, "four", {}});
    EXPECT_TRUE(registry.contains(1));
    EXPECT_TRUE(registry.contains(4));
    EXPECT_FALSE(registry.contains(2));
    EXPECT_EQ(registry.at(4).name, "four");
}

TEST(TenantRegistryTest, ShardAssignmentIsStableAndModular)
{
    // id % shards: independent of what else is registered, so adding
    // a tenant never migrates existing ones.
    EXPECT_EQ(TenantRegistry::shardOf(0, 4), 0u);
    EXPECT_EQ(TenantRegistry::shardOf(5, 4), 1u);
    EXPECT_EQ(TenantRegistry::shardOf(7, 4), 3u);
    EXPECT_EQ(TenantRegistry::shardOf(7, 1), 0u);
    // A zero shard count clamps to one rather than dividing by zero.
    EXPECT_EQ(TenantRegistry::shardOf(9, 0), 0u);
}

TEST(TenantRegistryTest, ShardPlanPartitionsAllTenantsAscending)
{
    TenantRegistry registry;
    for (TenantId id = 0; id < 10; ++id)
        registry.add({id, "", {}});
    const auto plan = registry.shardPlan(4);
    ASSERT_EQ(plan.size(), 4u);
    std::size_t total = 0;
    for (std::size_t s = 0; s < plan.size(); ++s) {
        total += plan[s].size();
        for (std::size_t i = 0; i < plan[s].size(); ++i) {
            EXPECT_EQ(TenantRegistry::shardOf(plan[s][i], 4), s);
            if (i > 0) {
                EXPECT_LT(plan[s][i - 1], plan[s][i]);
            }
        }
    }
    EXPECT_EQ(total, registry.size());
    // Dense ids balance: 10 tenants over 4 shards -> sizes 3,3,2,2.
    EXPECT_EQ(plan[0].size(), 3u);
    EXPECT_EQ(plan[1].size(), 3u);
    EXPECT_EQ(plan[2].size(), 2u);
    EXPECT_EQ(plan[3].size(), 2u);
}

TEST(TenantRegistryTest, SyntheticFleetIsDeterministic)
{
    SyntheticFleetOptions options;
    options.tenants = 6;
    options.seed = 42;
    const TenantRegistry a = TenantRegistry::synthetic(options);
    const TenantRegistry b = TenantRegistry::synthetic(options);
    ASSERT_EQ(a.size(), 6u);
    ASSERT_EQ(b.size(), 6u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.tenants()[i].id, b.tenants()[i].id);
        EXPECT_EQ(a.tenants()[i].audit.workload,
                  b.tenants()[i].audit.workload);
        EXPECT_EQ(a.tenants()[i].audit.scenario.seed,
                  b.tenants()[i].audit.scenario.seed);
    }
}

TEST(TenantRegistryTest, SyntheticFleetCyclesMixAndDerivesSeeds)
{
    SyntheticFleetOptions options;
    options.tenants = 4;
    options.seed = 100;
    options.mix = {AuditedWorkload::Divider, AuditedWorkload::Cache};
    const TenantRegistry registry = TenantRegistry::synthetic(options);
    EXPECT_EQ(registry.at(0).audit.workload, AuditedWorkload::Divider);
    EXPECT_EQ(registry.at(1).audit.workload, AuditedWorkload::Cache);
    EXPECT_EQ(registry.at(2).audit.workload, AuditedWorkload::Divider);
    EXPECT_EQ(registry.at(3).audit.workload, AuditedWorkload::Cache);
    EXPECT_EQ(registry.at(0).audit.scenario.seed, 100u);
    EXPECT_EQ(registry.at(3).audit.scenario.seed, 103u);
    // Cache tenants get the cache bandwidth, the rest the contention
    // bandwidth.
    EXPECT_DOUBLE_EQ(registry.at(1).audit.scenario.bandwidthBps,
                     options.cacheBandwidthBps);
    EXPECT_DOUBLE_EQ(registry.at(0).audit.scenario.bandwidthBps,
                     options.contentionBandwidthBps);
}

TEST(TenantRegistryTest, SharedSeedFleetCarriesIdenticalChannels)
{
    SyntheticFleetOptions options;
    options.tenants = 3;
    options.mix = {AuditedWorkload::Divider};
    options.distinctSeeds = false;
    const TenantRegistry registry = TenantRegistry::synthetic(options);
    EXPECT_EQ(registry.at(0).audit.scenario.seed,
              registry.at(2).audit.scenario.seed);
}

} // namespace
} // namespace cchunter
