#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "fleet/fleet_auditor.hh"
#include "scenario/experiment.hh"
#include "util/thread_pool.hh"

namespace cchunter
{
namespace
{

SyntheticFleetOptions
smallFleet(std::size_t tenants)
{
    SyntheticFleetOptions options;
    options.tenants = tenants;
    options.seed = 1;
    options.quanta = 8;
    options.quantum = 2500000;
    options.clusteringIntervalQuanta = 4;
    return options;
}

TEST(FleetAuditorTest, EmptyRegistryProducesEmptyReport)
{
    TenantRegistry registry;
    FleetAuditor auditor(registry);
    FleetAuditReport report = auditor.run();
    EXPECT_EQ(report.tenantsAudited, 0u);
    EXPECT_TRUE(report.incidents.incidents().empty());
}

TEST(FleetAuditorTest, ShardCountClampsToFleetSize)
{
    TenantRegistry registry;
    registry.add({0, "", {}});
    registry.add({1, "", {}});
    FleetAuditParams params;
    params.shards = 16;
    FleetAuditor auditor(registry, params);
    EXPECT_EQ(auditor.effectiveShards(), 2u);
}

TEST(FleetAuditorTest, AuditsEveryTenantAndFindsPlantedChannels)
{
    const TenantRegistry registry =
        TenantRegistry::synthetic(smallFleet(4));
    FleetAuditParams params;
    params.shards = 2;
    FleetAuditor auditor(registry, params);
    FleetAuditReport report = auditor.run();

    EXPECT_EQ(report.tenantsAudited, 4u);
    EXPECT_EQ(report.shardsUsed, 2u);
    EXPECT_EQ(report.quantaTotal, 4u * 8u);
    // Every tenant carries a planted channel; the fleet must notice.
    EXPECT_GT(report.alarmsTotal, 0u);
    EXPECT_FALSE(report.incidents.incidents().empty());
    // The hand-off accounting matches the plan.
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].tenants, 2u);
    EXPECT_EQ(report.shards[1].tenants, 2u);
    EXPECT_EQ(report.shards[0].tenantsRun, 2u);
    EXPECT_EQ(report.shards[1].tenantsRun, 2u);
    // Stat entries carry the two-level shard prefixes.
    const auto entries = report.statEntries();
    bool sawShardEntry = false;
    for (const StatEntry& entry : entries)
        sawShardEntry |= entry.name == "fleet.shard1.alarms";
    EXPECT_TRUE(sawShardEntry);
}

TEST(FleetAuditorTest, IncidentStreamIndependentOfShardAndThreadCount)
{
    // The tentpole determinism contract: for a fixed registry the
    // incident stream is bit-identical across shard counts and
    // per-tenant analysis thread counts (the blocking hand-off
    // preserves every batch).
    const TenantRegistry registry =
        TenantRegistry::synthetic(smallFleet(8));

    const auto runWith = [&](std::size_t shards,
                             std::size_t analysis_threads) {
        FleetAuditParams params;
        params.shards = shards;
        params.analysisThreads = analysis_threads;
        FleetAuditor auditor(registry, params);
        return auditor.run();
    };

    FleetAuditReport baseline = runWith(1, 1);
    const std::string text = baseline.incidents.streamText();
    const std::uint64_t hash = baseline.incidents.streamHash();
    EXPECT_FALSE(text.empty());

    for (const std::size_t shards : {2, 8}) {
        FleetAuditReport report = runWith(shards, 1);
        EXPECT_EQ(report.incidents.streamText(), text)
            << "shards=" << shards;
        EXPECT_EQ(report.incidents.streamHash(), hash);
        EXPECT_EQ(report.alarmsTotal, baseline.alarmsTotal);
    }

    FleetAuditReport threaded =
        runWith(2, ThreadPool::hardwareConcurrency());
    EXPECT_EQ(threaded.incidents.streamText(), text);
    EXPECT_EQ(threaded.incidents.streamHash(), hash);
}

TEST(FleetAuditorTest, ThrowingTenantFailsTheRun)
{
    // A tenant whose audit throws (here: a clustering interval of 0,
    // which enableOnlineAnalysis rejects) fails the whole run.  The
    // throw leaves its shard worker and reaches the caller through
    // the pool once every other shard has returned, with or without
    // a journal open — no thread is left behind to hang on.
    const TenantRegistry healthy =
        TenantRegistry::synthetic(smallFleet(6));
    TenantRegistry registry;
    for (TenantConfig tenant : healthy.tenants()) {
        if (tenant.id == 2)
            tenant.audit.online.clusteringIntervalQuanta = 0;
        registry.add(std::move(tenant));
    }
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        "cchunter_throwing_tenant";

    for (const std::size_t shards : {1u, 2u}) {
        for (const bool persist : {false, true}) {
            std::filesystem::remove_all(dir);
            FleetAuditParams params;
            params.shards = shards;
            params.workerThreads = 2;
            if (persist)
                params.persist.dir = dir.string();
            FleetAuditor auditor(registry, params);
            EXPECT_THROW(auditor.run(), std::runtime_error)
                << "shards=" << shards << " persist=" << persist;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(FleetAuditorTest, SharedSeedFleetCorrelatesAcrossTenants)
{
    // Two tenants carrying the *same* divider channel (shared seed):
    // the aggregator must recognise the shared signature and raise a
    // fleet-wide record with both tenants listed.
    SyntheticFleetOptions options = smallFleet(2);
    options.mix = {AuditedWorkload::Divider};
    options.distinctSeeds = false;
    const TenantRegistry registry = TenantRegistry::synthetic(options);

    FleetAuditParams params;
    params.shards = 2;
    FleetAuditor auditor(registry, params);
    FleetAuditReport report = auditor.run();

    ASSERT_GT(report.alarmsTotal, 0u);
    ASSERT_GE(report.incidents.fleetWideCount(), 1u);
    const Incident& fleet = report.incidents.incidents().back();
    EXPECT_TRUE(fleet.fleetWide);
    ASSERT_EQ(fleet.correlatedTenants.size(), 2u);
    EXPECT_EQ(fleet.correlatedTenants[0], 0u);
    EXPECT_EQ(fleet.correlatedTenants[1], 1u);
    EXPECT_EQ(fleet.unit, MonitorTarget::IntegerDivider);
}

} // namespace
} // namespace cchunter
