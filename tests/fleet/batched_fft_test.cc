/**
 * @file
 * Batched fleet FFT equivalence tests.
 *
 * With fleet.batchedFft on, every shard resolves each tenant's
 * deferred end-of-run oscillation transforms through the thread's
 * cached FFT plan and one scratch arena before handing the tenant's
 * batch off.  The incident stream must stay byte-identical to the
 * unbatched run — and across shard layouts and per-tenant analysis
 * thread counts — because batching shares twiddle tables and buffers,
 * never the dataflow of one series.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_auditor.hh"

using namespace cchunter;

namespace
{

FleetAuditReport
runFleet(std::size_t shards, std::size_t analysis_threads,
         bool batched_fft)
{
    const TenantRegistry registry = TenantRegistry::synthetic({});
    FleetAuditParams params;
    params.shards = shards;
    params.workerThreads = 2;
    params.analysisThreads = analysis_threads;
    params.batchedFft = batched_fft;
    FleetAuditor auditor(registry, params);
    return auditor.run();
}

std::uint64_t
totalOf(const FleetAuditReport& report,
        std::uint64_t ShardStats::*field)
{
    std::uint64_t total = 0;
    for (const ShardStats& shard : report.shards)
        total += shard.*field;
    return total;
}

} // namespace

TEST(BatchedFleetFftTest, StreamByteIdenticalAcrossShardsAndThreads)
{
    const std::size_t hw =
        std::max(2u, std::thread::hardware_concurrency());

    const FleetAuditReport reference = runFleet(1, 1, false);
    const std::string expected = reference.incidents.streamText();
    ASSERT_FALSE(expected.empty());

    for (const std::size_t shards : {1u, 2u, 8u}) {
        for (const std::size_t threads : {std::size_t{1}, hw}) {
            for (const bool batched : {true, false}) {
                const FleetAuditReport report =
                    runFleet(shards, threads, batched);
                EXPECT_EQ(report.incidents.streamText(), expected)
                    << "shards=" << shards << " threads=" << threads
                    << " batched=" << batched;
                EXPECT_EQ(report.incidents.streamHash(),
                          reference.incidents.streamHash());
            }
        }
    }
}

TEST(BatchedFleetFftTest, BatchedPassActuallyRuns)
{
    const FleetAuditReport batched = runFleet(2, 1, true);
    const FleetAuditReport unbatched = runFleet(2, 1, false);
    // The synthetic fleet's cache tenants retain FFT-qualifying label
    // series, so the batched pass must have transformed some of them;
    // with batching off the counter stays untouched.
    EXPECT_GT(totalOf(batched, &ShardStats::batchedSeries), 0u);
    EXPECT_EQ(totalOf(unbatched, &ShardStats::batchedSeries), 0u);
}

TEST(BatchedFleetFftTest, OfflineVerdictsIdenticalEitherWay)
{
    const FleetAuditReport batched = runFleet(2, 1, true);
    const FleetAuditReport unbatched = runFleet(2, 1, false);
    EXPECT_EQ(totalOf(batched, &ShardStats::offlineDetected),
              totalOf(unbatched, &ShardStats::offlineDetected));
    EXPECT_EQ(batched.tenantsAudited, unbatched.tenantsAudited);
    EXPECT_EQ(batched.alarmsTotal, unbatched.alarmsTotal);
}

TEST(BatchedFleetFftTest, StatEntriesCarryTheNewCounters)
{
    const FleetAuditReport report = runFleet(2, 1, true);
    const auto entries = report.statEntries();
    bool sawOffline = false;
    bool sawBatched = false;
    for (const StatEntry& entry : entries) {
        if (entry.name == "fleet.shard0.offlineDetected")
            sawOffline = true;
        if (entry.name == "fleet.shard0.batchedSeries")
            sawBatched = true;
    }
    EXPECT_TRUE(sawOffline);
    EXPECT_TRUE(sawBatched);
}
