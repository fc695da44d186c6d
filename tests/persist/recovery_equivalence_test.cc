/**
 * @file
 * Crash-recovery equivalence tests: the heart of the persistence
 * contract.  A fleet run killed after any number of durably persisted
 * batches and then resumed must emit an incident stream byte-identical
 * to an uninterrupted run — across shard layouts and analysis thread
 * counts, and under every injected snapshot/journal corruption, where
 * the graceful floor is a counted cold start that re-audits, never a
 * crash or a wrong answer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "file_damage.hh"
#include "fleet/fleet_auditor.hh"
#include "persist/recovery.hh"
#include "persist/snapshot_file.hh"

using namespace cchunter;
using namespace cchunter::persist;

namespace
{

/** Canonical stream hash of TenantRegistry::synthetic({}) — same
 *  fixture as tests/fleet/incident_stream_golden_test.cc. */
constexpr std::uint64_t kGoldenHash = 11842952238281650353ull;

constexpr std::size_t kFleetTenants = 8;

class RecoveryEquivalenceTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::path(testing::TempDir()) /
               (std::string("cchunter_recovery_") +
                testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    FleetAuditParams
    params(std::size_t shards, std::size_t analysisThreads) const
    {
        FleetAuditParams p;
        p.shards = shards;
        p.workerThreads = 2;
        p.analysisThreads = analysisThreads;
        p.persist.dir = dir_.string();
        p.persist.checkpointIntervalBatches = 3;
        return p;
    }

    FleetAuditReport
    runFleet(const FleetAuditParams& p) const
    {
        const TenantRegistry registry = TenantRegistry::synthetic({});
        FleetAuditor auditor(registry, p);
        return auditor.run();
    }

    /** Run with persistence, dying after `killAfter` durable batches. */
    FleetAuditReport
    crashRun(std::size_t shards, std::uint64_t killAfter) const
    {
        FleetAuditParams p = params(shards, 1);
        p.simulateCrashAfterBatches = killAfter;
        return runFleet(p);
    }

    /** Resume from the persistence directory and finish the audit. */
    FleetAuditReport
    resumeRun(std::size_t shards, std::size_t analysisThreads = 1) const
    {
        FleetAuditParams p = params(shards, analysisThreads);
        p.persist.resume = true;
        return runFleet(p);
    }

    /** Damage a persisted file in place; returns how many bytes
     *  changed or were lost. */
    std::size_t
    corruptFile(const std::string& path, FileDamage damage) const
    {
        bool ok = false;
        std::vector<std::uint8_t> bytes = readFileBytes(path, ok);
        EXPECT_TRUE(ok) << path;
        const std::size_t damaged = damageImage(bytes, damage);
        EXPECT_TRUE(writeFileAtomic(path, bytes));
        return damaged;
    }

    std::filesystem::path dir_;
};

/**
 * Rewrite a persisted file in an older layout.  In version 2 every
 * tenant batch carried four more u64 quarantine counters right after
 * unmergeUnderflows; version 1 also carried three more u64 pipeline
 * counters right after evictedConflicts.  Returns the number of batch
 * records rewritten.
 */
std::size_t
rewriteAsVersion(const std::string& path, ReadMode mode,
                 std::uint32_t version)
{
    const RecordFileContents contents = readRecordFile(path, mode);
    EXPECT_TRUE(contents.clean()) << path;
    // Kind byte, u32 tenant, three u64s (shard, quanta, offline
    // detections), then the four drain/evict counters.
    constexpr std::size_t kAfterEvictedConflicts = 1 + 4 + 3 * 8 + 4 * 8;
    // Then analysesRun, three f64 latencies and the ten degraded
    // counters up to unmergeUnderflows.
    constexpr std::size_t kAfterUnmergeUnderflows =
        kAfterEvictedConflicts + 4 * 8 + 10 * 8;
    ByteWriter header;
    header.u64(kSnapshotMagic);
    header.u32(version);
    std::vector<std::uint8_t> bytes = header.take();
    std::size_t batches = 0;
    for (std::vector<std::uint8_t> payload : contents.records) {
        if (!payload.empty() &&
            payload.front() ==
                static_cast<std::uint8_t>(RecordKind::TenantBatch)) {
            // The later offset first, so the earlier one holds.
            payload.insert(payload.begin() + kAfterUnmergeUnderflows,
                           4 * 8, 0);
            if (version == 1)
                payload.insert(payload.begin() + kAfterEvictedConflicts,
                               3 * 8, 0);
            ++batches;
        }
        appendFramedRecord(bytes, payload);
    }
    EXPECT_TRUE(writeFileAtomic(path, bytes));
    return batches;
}

bool
hasStat(const std::vector<StatEntry>& entries, const std::string& name)
{
    for (const auto& e : entries)
        if (e.name == name)
            return true;
    return false;
}

} // namespace

TEST_F(RecoveryEquivalenceTest, PersistedRunMatchesBaseline)
{
    // Persistence on, no crash: same stream as ever, with the
    // journal/checkpoint machinery visibly engaged.
    const FleetAuditReport report = runFleet(params(2, 1));
    EXPECT_FALSE(report.crashed);
    EXPECT_EQ(report.incidents.streamHash(), kGoldenHash);
    EXPECT_EQ(report.persist.journalAppends, kFleetTenants);
    EXPECT_GT(report.persist.journalBytes, 0u);
    // 8 batches at interval 3 → 2 mid-run checkpoints + the final one.
    EXPECT_EQ(report.persist.checkpointsWritten, 3u);
    EXPECT_GT(report.persist.lastSnapshotBytes, 0u);
    EXPECT_EQ(report.persist.defects.total(), 0u);
    EXPECT_EQ(report.persist.coldStarts, 0u);
    EXPECT_TRUE(std::filesystem::exists(snapshotPath(
        PersistPolicy{.dir = dir_.string()})));

    const auto entries = report.statEntries();
    EXPECT_TRUE(hasStat(entries, "persist.checkpoints"));
    EXPECT_TRUE(hasStat(entries, "persist.journalAppends"));
    EXPECT_TRUE(hasStat(entries, "fleet.crashed"));
}

TEST_F(RecoveryEquivalenceTest, FinalSnapshotRoundTripsTheIncidentLog)
{
    const FleetAuditReport report = runFleet(params(2, 1));
    const RecordFileContents contents = readRecordFile(
        snapshotPath(PersistPolicy{.dir = dir_.string()}),
        ReadMode::Snapshot);
    ASSERT_TRUE(contents.clean());
    FleetCheckpoint checkpoint;
    ASSERT_TRUE(decodeFleetCheckpoint(contents, checkpoint));
    EXPECT_TRUE(checkpoint.finalized);
    EXPECT_EQ(checkpoint.batches.size(), kFleetTenants);
    ASSERT_TRUE(checkpoint.incidents.has_value());
    EXPECT_EQ(checkpoint.incidents->streamText(),
              report.incidents.streamText());
    EXPECT_EQ(checkpoint.incidents->streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, KillAtEveryBoundaryResumesByteIdentical)
{
    // The acceptance sweep: die after the K-th durably persisted
    // batch for every K, resume, and demand the uninterrupted stream
    // byte for byte.
    const std::string baseline =
        [&] {
            FleetAuditParams p;
            p.shards = 2;
            p.workerThreads = 2;
            const TenantRegistry registry =
                TenantRegistry::synthetic({});
            return FleetAuditor(registry, p)
                .run()
                .incidents.streamText();
        }();

    for (std::uint64_t k = 1; k <= kFleetTenants; ++k) {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);

        const FleetAuditReport crashed = crashRun(2, k);
        EXPECT_TRUE(crashed.crashed) << "k=" << k;
        EXPECT_TRUE(crashed.incidents.incidents().empty())
            << "k=" << k;

        const FleetAuditReport resumed = resumeRun(2);
        EXPECT_FALSE(resumed.crashed) << "k=" << k;
        EXPECT_EQ(resumed.incidents.streamText(), baseline)
            << "k=" << k;
        EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash)
            << "k=" << k;
        EXPECT_EQ(resumed.persist.restoredTenants, k) << "k=" << k;
        // A kill before the first checkpoint leaves no snapshot file
        // — that read counts as `unreadable` and recovery proceeds
        // from the journal.  No other defect class is acceptable.
        EXPECT_EQ(resumed.persist.defects.total(),
                  resumed.persist.defects.unreadable)
            << "k=" << k;
        EXPECT_LE(resumed.persist.defects.unreadable, 1u) << "k=" << k;
        EXPECT_EQ(resumed.persist.coldStarts, 0u) << "k=" << k;

        std::uint64_t recovered = 0;
        for (const auto& shard : resumed.shards)
            recovered += shard.recoveredTenants;
        EXPECT_EQ(recovered, k) << "k=" << k;
    }
}

TEST_F(RecoveryEquivalenceTest, ResumeEquivalenceAcrossLayouts)
{
    // One crash point, every layout: shard count and analysis fan-out
    // must not matter on either side of the kill.
    const std::size_t hw =
        std::max(2u, std::thread::hardware_concurrency());
    for (const std::size_t shards : {std::size_t(1), std::size_t(2),
                                     std::size_t(8)}) {
        for (const std::size_t threads : {std::size_t(1), hw}) {
            std::filesystem::remove_all(dir_);
            std::filesystem::create_directories(dir_);
            const FleetAuditReport crashed = crashRun(shards, 3);
            ASSERT_TRUE(crashed.crashed)
                << "shards=" << shards << " threads=" << threads;
            const FleetAuditReport resumed =
                resumeRun(shards, threads);
            EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash)
                << "shards=" << shards << " threads=" << threads;
        }
    }
}

TEST_F(RecoveryEquivalenceTest, ResumeRehomesAcrossShardLayoutChange)
{
    // Crash under one shard layout, resume under another: recovered
    // batches are re-homed by the current assignment rule.
    const FleetAuditReport crashed = crashRun(2, 4);
    ASSERT_TRUE(crashed.crashed);
    const FleetAuditReport resumed = resumeRun(8);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
    EXPECT_EQ(resumed.persist.restoredTenants, 4u);
}

TEST_F(RecoveryEquivalenceTest, BitFlippedSnapshotIsQuarantined)
{
    const FleetAuditReport crashed = crashRun(2, 5);
    ASSERT_TRUE(crashed.crashed);

    ASSERT_EQ(corruptFile(snapshotPath(PersistPolicy{.dir = dir_.string()}),
                          FileDamage::FlipBit),
              1u);

    const FleetAuditReport resumed = resumeRun(2);
    // The flip lands somewhere in the image: whatever defect class it
    // produces, the snapshot's contribution is quarantined (counted)
    // and the stream is still the golden one — re-auditing covers
    // whatever could not be restored.
    EXPECT_GE(resumed.persist.defects.total() +
                  resumed.persist.registryMismatches,
              1u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
    EXPECT_FALSE(resumed.crashed);
}

TEST_F(RecoveryEquivalenceTest, TornSnapshotIsQuarantined)
{
    const FleetAuditReport crashed = crashRun(2, 5);
    ASSERT_TRUE(crashed.crashed);

    ASSERT_GE(corruptFile(snapshotPath(PersistPolicy{.dir = dir_.string()}),
                          FileDamage::TearTail),
              1u);

    const FleetAuditReport resumed = resumeRun(2);
    EXPECT_GE(resumed.persist.defects.total(), 1u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, ClobberedMagicIsQuarantined)
{
    const FleetAuditReport crashed = crashRun(2, 5);
    ASSERT_TRUE(crashed.crashed);

    ASSERT_GE(corruptFile(snapshotPath(PersistPolicy{.dir = dir_.string()}),
                          FileDamage::ClobberMagic),
              1u);

    const FleetAuditReport resumed = resumeRun(2);
    // A clobbered header *could* still decode as the original magic by
    // chance (it cannot, with 2^-64 probability); assert the expected
    // reason directly.
    EXPECT_GE(resumed.persist.defects.badMagic, 1u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, TornJournalTailIsDiscardedNotFatal)
{
    const FleetAuditReport crashed = crashRun(2, 5);
    ASSERT_TRUE(crashed.crashed);

    corruptFile(journalPath(PersistPolicy{.dir = dir_.string()}),
                FileDamage::TearTail);

    const FleetAuditReport resumed = resumeRun(2);
    // The journal's intact prefix (possibly empty) still counts; the
    // snapshot is untouched, so at least the checkpointed batches are
    // restored and the stream is golden either way.
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
    EXPECT_FALSE(resumed.crashed);
}

TEST_F(RecoveryEquivalenceTest, EverythingCorruptedFallsBackToColdStart)
{
    const FleetAuditReport crashed = crashRun(2, 6);
    ASSERT_TRUE(crashed.crashed);

    corruptFile(snapshotPath(PersistPolicy{.dir = dir_.string()}),
                FileDamage::ClobberMagic);
    corruptFile(journalPath(PersistPolicy{.dir = dir_.string()}),
                FileDamage::ClobberMagic);

    const FleetAuditReport resumed = resumeRun(2);
    EXPECT_GE(resumed.persist.defects.badMagic, 2u);
    EXPECT_EQ(resumed.persist.restoredTenants, 0u);
    EXPECT_EQ(resumed.persist.coldStarts, 1u);
    // The graceful floor: recover nothing, re-audit everything, same
    // answer.
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, MissingFilesResumeAsColdStart)
{
    // resume=true against an empty directory must behave like a
    // first run, with the unreadable files counted.
    const FleetAuditReport resumed = resumeRun(2);
    EXPECT_EQ(resumed.persist.coldStarts, 1u);
    EXPECT_EQ(resumed.persist.defects.unreadable, 2u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, FutureVersionSnapshotColdStartsThatFile)
{
    const FleetAuditReport crashed = crashRun(2, 5);
    ASSERT_TRUE(crashed.crashed);

    // Hand-bump the snapshot's version field (u32 after the u64
    // magic): a downgrade scenario — state written by a newer build.
    const std::string snap =
        snapshotPath(PersistPolicy{.dir = dir_.string()});
    bool ok = false;
    std::vector<std::uint8_t> bytes = readFileBytes(snap, ok);
    ASSERT_TRUE(ok);
    ASSERT_GE(bytes.size(), 12u);
    bytes[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
    ASSERT_TRUE(writeFileAtomic(snap, bytes));

    const FleetAuditReport resumed = resumeRun(2);
    EXPECT_EQ(resumed.persist.defects.unknownVersion, 1u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, ParentLayoutFilesAreRefusedAsVersionSkew)
{
    // A checkpoint and a journal in each older layout, stamped with
    // this fleet's own fingerprint: both are refused under the version
    // defect, nothing is restored, and the resume re-audits the whole
    // fleet to the same stream.
    const PersistPolicy policy{.dir = dir_.string()};
    for (const std::uint32_t version : {1u, 2u}) {
        SCOPED_TRACE(version);
        ASSERT_TRUE(crashRun(2, 5).crashed);
        // Checkpoint after batch 3; batches 4 and 5 in the journal.
        EXPECT_EQ(rewriteAsVersion(snapshotPath(policy),
                                   ReadMode::Snapshot, version),
                  3u);
        EXPECT_EQ(rewriteAsVersion(journalPath(policy), ReadMode::Journal,
                                   version),
                  2u);

        const FleetAuditReport resumed = resumeRun(2);
        EXPECT_FALSE(resumed.crashed);
        EXPECT_EQ(resumed.persist.defects.unknownVersion, 2u);
        EXPECT_EQ(resumed.persist.defects.total(), 2u);
        EXPECT_EQ(resumed.persist.registryMismatches, 0u);
        EXPECT_EQ(resumed.persist.restoredTenants, 0u);
        EXPECT_EQ(resumed.persist.coldStarts, 1u);
        EXPECT_EQ(resumed.tenantsAudited, kFleetTenants);
        EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
    }
}

TEST_F(RecoveryEquivalenceTest, MissingNestedDirIsCreatedAndJournaled)
{
    // persist.dir names a directory two levels below one that exists:
    // the run makes it, journals every batch up to the kill, and the
    // resume restores them and finishes on the same stream.
    FleetAuditParams p = params(2, 1);
    p.persist.dir = (dir_ / "state" / "fleet").string();
    p.simulateCrashAfterBatches = 5;
    const FleetAuditReport crashed = runFleet(p);
    ASSERT_TRUE(crashed.crashed);
    EXPECT_EQ(crashed.persist.journalAppends, 5u);
    EXPECT_EQ(crashed.persist.writeFailures, 0u);

    p.simulateCrashAfterBatches = 0;
    p.persist.resume = true;
    const FleetAuditReport resumed = runFleet(p);
    EXPECT_FALSE(resumed.crashed);
    EXPECT_EQ(resumed.persist.restoredTenants, 5u);
    EXPECT_EQ(resumed.persist.coldStarts, 0u);
    EXPECT_EQ(resumed.persist.writeFailures, 0u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, RefusedSnapshotKeepsTheJournal)
{
    // A directory squatting on the snapshot's temporary name makes
    // every snapshot write fail while the journal still works.  The
    // journal is then the one durable copy of its batches, so no
    // refused checkpoint may truncate it.
    std::filesystem::create_directories(dir_ / "fleet.snapshot.tmp");
    FleetAuditParams p = params(2, 1);
    p.simulateCrashAfterBatches = 5;
    const FleetAuditReport crashed = runFleet(p);
    ASSERT_TRUE(crashed.crashed);
    EXPECT_EQ(crashed.persist.journalAppends, 5u);
    EXPECT_EQ(crashed.persist.checkpointsWritten, 0u);
    // Interval 3: one checkpoint came due before the kill.
    EXPECT_EQ(crashed.persist.writeFailures, 1u);

    p.simulateCrashAfterBatches = 0;
    p.persist.resume = true;
    const FleetAuditReport resumed = runFleet(p);
    EXPECT_FALSE(resumed.crashed);
    EXPECT_EQ(resumed.persist.restoredTenants, 5u);
    EXPECT_EQ(resumed.persist.coldStarts, 0u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
    // Refused: the resume's compaction, the one checkpoint due after
    // three new batches, and the final snapshot.  The fresh journal
    // carries the five salvaged batches and the three new ones.
    EXPECT_EQ(resumed.persist.writeFailures, 3u);
    EXPECT_EQ(resumed.persist.checkpointsWritten, 0u);
    EXPECT_EQ(resumed.persist.journalAppends, kFleetTenants);

    // Nothing was ever snapshotted, so a second resume finds the
    // whole fleet in the journal and re-audits no tenant.
    const FleetAuditReport again = runFleet(p);
    EXPECT_EQ(again.persist.restoredTenants, kFleetTenants);
    EXPECT_EQ(again.shards[0].tenantsRun + again.shards[1].tenantsRun,
              0u);
    EXPECT_EQ(again.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, NoFinalSnapshotKeepsTheJournal)
{
    // Without a final snapshot nothing absorbs the batches journaled
    // after the last interval checkpoint, so the finished run must
    // leave them in the journal.
    FleetAuditParams p = params(2, 1);
    p.persist.finalSnapshot = false;
    const FleetAuditReport finished = runFleet(p);
    ASSERT_FALSE(finished.crashed);
    // Interval 3: checkpoints after batches 3 and 6, none at the end.
    EXPECT_EQ(finished.persist.checkpointsWritten, 2u);
    EXPECT_EQ(finished.persist.writeFailures, 0u);

    p.persist.resume = true;
    const FleetAuditReport resumed = runFleet(p);
    EXPECT_EQ(resumed.persist.restoredFromSnapshot, 6u);
    EXPECT_EQ(resumed.persist.restoredFromJournal, 2u);
    EXPECT_EQ(resumed.persist.restoredTenants, kFleetTenants);
    EXPECT_EQ(resumed.shards[0].tenantsRun + resumed.shards[1].tenantsRun,
              0u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, KillLosesOnlyTheTenantsInFlight)
{
    // The shard worker that audited a tenant journals and ingests its
    // batch before it starts the next tenant.  So a run killed after
    // K journaled batches has audited those K tenants plus at most
    // the one each other shard was running when the kill landed —
    // never a backlog.  The resume then audits exactly the tenants
    // that were not recovered.
    constexpr std::uint64_t kKillAfter = 4;
    SyntheticFleetOptions fleet;
    fleet.tenants = 24;
    fleet.quanta = 4;
    const TenantRegistry registry = TenantRegistry::synthetic(fleet);
    const auto tenantsRun = [](const FleetAuditReport& report) {
        std::uint64_t run = 0;
        for (const ShardStats& shard : report.shards)
            run += shard.tenantsRun;
        return run;
    };

    for (const std::size_t shards : {1u, 2u}) {
        for (const bool batched : {true, false}) {
            std::filesystem::remove_all(dir_);
            std::filesystem::create_directories(dir_);
            const std::string where = "shards=" +
                                      std::to_string(shards) +
                                      " batched=" +
                                      std::to_string(batched);
            FleetAuditParams base;
            base.shards = shards;
            base.workerThreads = 2;
            base.batchedFft = batched;
            const std::string uninterrupted =
                FleetAuditor(registry, base).run().incidents.streamText();
            ASSERT_FALSE(uninterrupted.empty());

            FleetAuditParams p = params(shards, 1);
            p.batchedFft = batched;
            p.simulateCrashAfterBatches = kKillAfter;
            const FleetAuditReport killed =
                FleetAuditor(registry, p).run();
            ASSERT_TRUE(killed.crashed) << where;
            EXPECT_GE(tenantsRun(killed), kKillAfter) << where;
            EXPECT_LE(tenantsRun(killed), kKillAfter + shards - 1)
                << where;
            EXPECT_EQ(killed.tenantsAudited, kKillAfter) << where;

            p.simulateCrashAfterBatches = 0;
            p.persist.resume = true;
            const FleetAuditReport resumed =
                FleetAuditor(registry, p).run();
            EXPECT_FALSE(resumed.crashed) << where;
            EXPECT_EQ(resumed.persist.restoredTenants, kKillAfter)
                << where;
            EXPECT_EQ(tenantsRun(resumed), fleet.tenants - kKillAfter)
                << where;
            EXPECT_EQ(resumed.incidents.streamText(), uninterrupted)
                << where;
            EXPECT_TRUE(
                hasStat(resumed.statEntries(), "fleet.shard0.run"));
        }
    }
}

TEST_F(RecoveryEquivalenceTest, UnwritableDirCountsFailuresAndNeverCrashes)
{
    // persist.dir is a regular file, so nothing can be journaled or
    // snapshotted.  Every failed write is counted, the kill switch
    // (which counts journaled batches only) never fires, and the audit
    // still ends on the golden stream.
    const std::filesystem::path file = dir_ / "not_a_dir";
    std::ofstream(file) << "x";
    FleetAuditParams p = params(2, 1);
    p.persist.dir = file.string();
    p.simulateCrashAfterBatches = 3;
    const FleetAuditReport report = runFleet(p);
    EXPECT_FALSE(report.crashed);
    EXPECT_EQ(report.persist.journalAppends, 0u);
    EXPECT_EQ(report.persist.checkpointsWritten, 0u);
    // The journal open, every append, and the two interval snapshots
    // plus the final one.
    EXPECT_EQ(report.persist.writeFailures, 1u + kFleetTenants + 3u);
    EXPECT_TRUE(hasStat(report.statEntries(), "persist.writeFailures"));
    EXPECT_EQ(report.tenantsAudited, kFleetTenants);
    EXPECT_EQ(report.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, ForeignFleetSnapshotIsRefused)
{
    // Persist a *different* fleet into the directory, then resume the
    // default one: the registry fingerprint must refuse the state and
    // the default fleet re-audits from scratch.
    SyntheticFleetOptions other;
    other.seed = 99;
    const TenantRegistry foreign = TenantRegistry::synthetic(other);
    FleetAuditParams p;
    p.shards = 2;
    p.workerThreads = 2;
    p.persist.dir = dir_.string();
    p.simulateCrashAfterBatches = 4;
    FleetAuditor foreignAuditor(foreign, p);
    ASSERT_TRUE(foreignAuditor.run().crashed);

    const FleetAuditReport resumed = resumeRun(2);
    EXPECT_GE(resumed.persist.registryMismatches, 1u);
    EXPECT_EQ(resumed.persist.restoredTenants, 0u);
    EXPECT_EQ(resumed.persist.coldStarts, 1u);
    EXPECT_EQ(resumed.incidents.streamHash(), kGoldenHash);
}

TEST_F(RecoveryEquivalenceTest, PersistPolicyConfigRoundTrip)
{
    PersistPolicy policy;
    policy.dir = "/tmp/fleet-state";
    policy.checkpointIntervalBatches = 9;
    policy.resume = true;
    policy.finalSnapshot = false;

    Config cfg;
    policy.toConfig(cfg);
    const PersistPolicy back = PersistPolicy::fromConfig(cfg);
    EXPECT_EQ(back.dir, policy.dir);
    EXPECT_EQ(back.checkpointIntervalBatches,
              policy.checkpointIntervalBatches);
    EXPECT_EQ(back.resume, policy.resume);
    EXPECT_EQ(back.finalSnapshot, policy.finalSnapshot);
    EXPECT_TRUE(back.enabled());
    EXPECT_FALSE(PersistPolicy{}.enabled());
}

TEST_F(RecoveryEquivalenceTest, CrashSwitchIgnoredWithoutPersistence)
{
    FleetAuditParams p;
    p.shards = 2;
    p.workerThreads = 2;
    p.simulateCrashAfterBatches = 2; // no persist.dir → inert
    const TenantRegistry registry = TenantRegistry::synthetic({});
    const FleetAuditReport report =
        FleetAuditor(registry, p).run();
    EXPECT_FALSE(report.crashed);
    EXPECT_EQ(report.incidents.streamHash(), kGoldenHash);
}
