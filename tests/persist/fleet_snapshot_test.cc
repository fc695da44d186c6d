/**
 * @file
 * Snapshot-format (v3) tests: payload round-trips for tenant batches,
 * incident stores and meta records; whole-checkpoint encode/decode;
 * structural-inconsistency rejection; future-version rejection; the
 * registry fingerprint contract; and a golden byte fixture pinning the
 * v3 wire format so an accidental layout change cannot slip through.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "persist/fleet_snapshot.hh"
#include "persist/snapshot_file.hh"

using namespace cchunter;
using namespace cchunter::persist;

namespace
{

Alarm
makeAlarm(unsigned slot, std::uint64_t quantum)
{
    Alarm alarm;
    alarm.slot = slot;
    alarm.when = static_cast<Tick>(quantum * 1000);
    alarm.quantum = quantum;
    alarm.summary = "slot " + std::to_string(slot) + " periodic";
    alarm.confidence = 0.875;
    alarm.unit = MonitorTarget::L2Cache;
    alarm.kind = AlarmKind::Oscillation;
    alarm.dominantFeature = 7;
    return alarm;
}

TenantAlarmBatch
makeBatch(TenantId tenant)
{
    TenantAlarmBatch batch;
    batch.tenant = tenant;
    batch.shard = tenant % 3;
    batch.quantaRecorded = 64;
    batch.offlineDetectedUnits = 2;
    batch.alarms.push_back(makeAlarm(0, 5));
    batch.alarms.push_back(makeAlarm(3, 9));
    batch.pipeline.drainedHistograms = 64;
    batch.pipeline.drainedConflicts = 12;
    batch.pipeline.evictedQuanta = 1;
    batch.pipeline.evictedConflicts = 2;
    batch.pipeline.analysesRun = 15;
    batch.pipeline.latencyMinUs = 1.5;
    batch.pipeline.latencyMaxUs = 99.25;
    batch.pipeline.latencyTotalUs = 480.0;
    batch.degraded.missedQuanta = 3;
    batch.degraded.duplicatedQuanta = 1;
    batch.degraded.truncatedBatches = 2;
    batch.degraded.truncatedEvents = 17;
    batch.degraded.reorderedBatches = 1;
    batch.degraded.corruptedContexts = 4;
    batch.degraded.bloomAliases = 2;
    batch.degraded.saturatedBinEvents = 8;
    batch.degraded.accumulatorSaturations = 1;
    batch.degraded.unmergeUnderflows = 1;
    batch.degraded.degradedAlarms = 2;
    batch.degraded.minAlarmConfidence = 0.5;
    batch.degraded.windowCoverage = 0.953125;
    return batch;
}

void
expectBatchEq(const TenantAlarmBatch& a, const TenantAlarmBatch& b)
{
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.quantaRecorded, b.quantaRecorded);
    EXPECT_EQ(a.offlineDetectedUnits, b.offlineDetectedUnits);
    ASSERT_EQ(a.alarms.size(), b.alarms.size());
    for (std::size_t i = 0; i < a.alarms.size(); ++i) {
        EXPECT_EQ(a.alarms[i].slot, b.alarms[i].slot);
        EXPECT_EQ(a.alarms[i].when, b.alarms[i].when);
        EXPECT_EQ(a.alarms[i].quantum, b.alarms[i].quantum);
        EXPECT_EQ(a.alarms[i].summary, b.alarms[i].summary);
        EXPECT_EQ(a.alarms[i].confidence, b.alarms[i].confidence);
        EXPECT_EQ(a.alarms[i].unit, b.alarms[i].unit);
        EXPECT_EQ(a.alarms[i].kind, b.alarms[i].kind);
        EXPECT_EQ(a.alarms[i].dominantFeature,
                  b.alarms[i].dominantFeature);
        EXPECT_EQ(a.alarms[i].channelSignature(),
                  b.alarms[i].channelSignature());
    }
    EXPECT_EQ(a.pipeline.drainedHistograms, b.pipeline.drainedHistograms);
    EXPECT_EQ(a.pipeline.latencyMaxUs, b.pipeline.latencyMaxUs);
    EXPECT_EQ(a.pipeline.latencyTotalUs, b.pipeline.latencyTotalUs);
    EXPECT_EQ(a.degraded.missedQuanta, b.degraded.missedQuanta);
    EXPECT_EQ(a.degraded.minAlarmConfidence,
              b.degraded.minAlarmConfidence);
    EXPECT_EQ(a.degraded.windowCoverage, b.degraded.windowCoverage);
}

IncidentStore
makeStore()
{
    IncidentRateLimit limit;
    limit.maxPerTenant = 3;
    limit.maxTotal = 10;
    IncidentStore store(limit);
    for (int i = 0; i < 4; ++i) {
        Incident incident;
        incident.fleetWide = (i == 3);
        incident.tenant = static_cast<TenantId>(i % 2);
        incident.slot = static_cast<unsigned>(i);
        incident.unit = MonitorTarget::L2Cache;
        incident.kind = AlarmKind::Oscillation;
        incident.signature = 0x5160'0000ull + static_cast<std::uint64_t>(i);
        incident.firstQuantum = 4;
        incident.lastQuantum = 12;
        incident.occurrences = 3;
        incident.meanConfidence = 0.9;
        incident.minConfidence = 0.8;
        incident.score = 0.55;
        incident.severity = IncidentSeverity::Warning;
        incident.correlated = (i == 3);
        if (i == 3)
            incident.correlatedTenants = {0, 1};
        store.emit(incident);
    }
    return store;
}

} // namespace

TEST(FleetSnapshotTest, TenantBatchRoundTrip)
{
    const TenantAlarmBatch batch = makeBatch(42);
    const std::vector<std::uint8_t> payload = encodeTenantBatch(batch);
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0],
              static_cast<std::uint8_t>(RecordKind::TenantBatch));

    TenantAlarmBatch out;
    ASSERT_TRUE(decodeTenantBatch(payload, out));
    expectBatchEq(batch, out);
}

TEST(FleetSnapshotTest, TenantBatchRejectsWrongKindAndGarbage)
{
    std::vector<std::uint8_t> payload =
        encodeTenantBatch(makeBatch(1));
    payload[0] = static_cast<std::uint8_t>(RecordKind::Meta);
    TenantAlarmBatch out;
    EXPECT_FALSE(decodeTenantBatch(payload, out));

    // Truncated payload: structurally short, must be refused.
    std::vector<std::uint8_t> cut = encodeTenantBatch(makeBatch(1));
    cut.resize(cut.size() / 2);
    EXPECT_FALSE(decodeTenantBatch(cut, out));

    // Trailing junk: a same-version writer never produces it.
    std::vector<std::uint8_t> padded = encodeTenantBatch(makeBatch(1));
    padded.push_back(0);
    EXPECT_FALSE(decodeTenantBatch(padded, out));
}

TEST(FleetSnapshotTest, IncidentStoreRoundTrip)
{
    const IncidentStore store = makeStore();
    const std::vector<std::uint8_t> payload =
        encodeIncidentStore(store, store.limit());

    IncidentStore out;
    ASSERT_TRUE(decodeIncidentStore(payload, out));
    EXPECT_EQ(out.incidents().size(), store.incidents().size());
    EXPECT_EQ(out.suppressed(), store.suppressed());
    EXPECT_EQ(out.limit().maxPerTenant, store.limit().maxPerTenant);
    EXPECT_EQ(out.limit().maxTotal, store.limit().maxTotal);
    // The determinism contract is stated over the canonical stream:
    // a restored store must render byte-identically.
    EXPECT_EQ(out.streamText(), store.streamText());
    EXPECT_EQ(out.streamHash(), store.streamHash());
    ASSERT_FALSE(out.incidents().empty());
    EXPECT_EQ(out.incidents().back().correlatedTenants,
              store.incidents().back().correlatedTenants);
}

TEST(FleetSnapshotTest, RestoredStoreContinuesRateLimiting)
{
    IncidentStore store = makeStore(); // maxPerTenant=3, tenant 0 has 2
    const std::vector<std::uint8_t> payload =
        encodeIncidentStore(store, store.limit());
    IncidentStore out;
    ASSERT_TRUE(decodeIncidentStore(payload, out));

    const std::uint64_t nextId = store.incidents().back().id + 1;
    Incident extra;
    extra.tenant = 0;
    extra.slot = 9;
    // Third incident for tenant 0 is admitted with the continued id
    // sequence; the fourth hits the per-tenant cap.
    EXPECT_TRUE(out.emit(extra));
    EXPECT_EQ(out.incidents().back().id, nextId);
    Incident over = extra;
    over.slot = 10;
    EXPECT_FALSE(out.emit(over));
    EXPECT_EQ(out.suppressed(), store.suppressed() + 1);
}

TEST(FleetSnapshotTest, MetaRoundTrip)
{
    const std::vector<std::uint8_t> payload =
        encodeMeta(0xFEEDFACEF00Dull, true, 17);
    std::uint64_t fingerprint = 0, batchCount = 0;
    bool finalized = false;
    ASSERT_TRUE(
        decodeMeta(payload, fingerprint, batchCount, finalized));
    EXPECT_EQ(fingerprint, 0xFEEDFACEF00Dull);
    EXPECT_EQ(batchCount, 17u);
    EXPECT_TRUE(finalized);

    std::vector<std::uint8_t> wrongKind = payload;
    wrongKind[0] =
        static_cast<std::uint8_t>(RecordKind::TenantBatch);
    EXPECT_FALSE(
        decodeMeta(wrongKind, fingerprint, batchCount, finalized));
}

TEST(FleetSnapshotTest, CheckpointRoundTrip)
{
    FleetCheckpoint checkpoint;
    checkpoint.registryFingerprint = 0xABCDull;
    checkpoint.finalized = true;
    checkpoint.batches.push_back(makeBatch(2));
    checkpoint.batches.push_back(makeBatch(5));
    checkpoint.incidents = makeStore();

    const std::vector<std::uint8_t> bytes = encodeFleetCheckpoint(
        checkpoint, checkpoint.incidents->limit());
    const RecordFileContents contents =
        decodeRecordFile(bytes, ReadMode::Snapshot);
    ASSERT_TRUE(contents.clean());

    FleetCheckpoint out;
    ASSERT_TRUE(decodeFleetCheckpoint(contents, out));
    EXPECT_EQ(out.registryFingerprint, 0xABCDull);
    EXPECT_TRUE(out.finalized);
    ASSERT_EQ(out.batches.size(), 2u);
    expectBatchEq(checkpoint.batches[0], out.batches[0]);
    expectBatchEq(checkpoint.batches[1], out.batches[1]);
    ASSERT_TRUE(out.incidents.has_value());
    EXPECT_EQ(out.incidents->streamText(),
              checkpoint.incidents->streamText());
}

TEST(FleetSnapshotTest, UnfinalizedCheckpointCarriesNoIncidents)
{
    FleetCheckpoint checkpoint;
    checkpoint.registryFingerprint = 7;
    checkpoint.batches.push_back(makeBatch(0));

    const std::vector<std::uint8_t> bytes =
        encodeFleetCheckpoint(checkpoint);
    FleetCheckpoint out;
    ASSERT_TRUE(decodeFleetCheckpoint(
        decodeRecordFile(bytes, ReadMode::Snapshot), out));
    EXPECT_FALSE(out.finalized);
    EXPECT_FALSE(out.incidents.has_value());
    ASSERT_EQ(out.batches.size(), 1u);
}

TEST(FleetSnapshotTest, BatchCountMismatchIsStructurallyRejected)
{
    FleetCheckpoint checkpoint;
    checkpoint.batches.push_back(makeBatch(0));
    checkpoint.batches.push_back(makeBatch(1));
    const std::vector<std::uint8_t> bytes =
        encodeFleetCheckpoint(checkpoint);

    // Re-frame with one batch record dropped: every remaining record
    // is individually valid, but the set no longer matches the meta
    // record's count.
    RecordFileContents contents =
        decodeRecordFile(bytes, ReadMode::Snapshot);
    ASSERT_TRUE(contents.clean());
    ASSERT_EQ(contents.records.size(), 3u);
    contents.records.pop_back();

    FleetCheckpoint out;
    EXPECT_FALSE(decodeFleetCheckpoint(contents, out));
}

TEST(FleetSnapshotTest, FutureVersionSnapshotIsRejectedWholesale)
{
    FleetCheckpoint checkpoint;
    checkpoint.batches.push_back(makeBatch(0));
    std::vector<std::uint8_t> bytes = encodeFleetCheckpoint(checkpoint);

    // The u32 version field sits right after the u64 magic.
    bytes[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
    const RecordFileContents contents =
        decodeRecordFile(bytes, ReadMode::Snapshot);
    EXPECT_EQ(contents.defect, SnapshotDefect::UnknownVersion);
    EXPECT_TRUE(contents.records.empty());
}

TEST(FleetSnapshotTest, RegistryFingerprintIsStableAndSensitive)
{
    SyntheticFleetOptions options;
    options.tenants = 4;
    const std::uint64_t a =
        registryFingerprint(TenantRegistry::synthetic(options));
    const std::uint64_t b =
        registryFingerprint(TenantRegistry::synthetic(options));
    EXPECT_EQ(a, b);

    // Any audit-relevant knob must move the fingerprint.
    SyntheticFleetOptions moreTenants = options;
    moreTenants.tenants = 5;
    EXPECT_NE(a, registryFingerprint(
                     TenantRegistry::synthetic(moreTenants)));

    SyntheticFleetOptions otherSeed = options;
    otherSeed.seed = 2;
    EXPECT_NE(a, registryFingerprint(
                     TenantRegistry::synthetic(otherSeed)));

    SyntheticFleetOptions otherCadence = options;
    otherCadence.clusteringIntervalQuanta = 2;
    EXPECT_NE(a, registryFingerprint(
                     TenantRegistry::synthetic(otherCadence)));
}

TEST(FleetSnapshotTest, GoldenV3HeaderBytesArePinned)
{
    // The first 12 bytes of every v3 file: magic "cchsnap!" (stored
    // little-endian) then version 3.  Changing either is a format
    // break and must be a conscious version bump, not an accident.
    const std::vector<std::uint8_t> bytes =
        encodeFleetCheckpoint(FleetCheckpoint{});
    ASSERT_GE(bytes.size(), 12u);
    const std::uint8_t golden[12] = {0x63, 0x63, 0x68, 0x73, 0x6e,
                                     0x61, 0x70, 0x21, 0x03, 0x00,
                                     0x00, 0x00};
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(bytes[i], golden[i]) << "offset " << i;
}

TEST(FleetSnapshotTest, GoldenV3CheckpointBytesAreStable)
{
    // Full-image determinism: encoding the same logical checkpoint
    // twice (fresh objects both times) must produce identical bytes,
    // and the FNV of those bytes pins the record layout — if this
    // hash moves, the v3 wire format changed.
    FleetCheckpoint checkpoint;
    checkpoint.registryFingerprint = 0x1234567890ABCDEFull;
    checkpoint.finalized = false;
    checkpoint.batches.push_back(makeBatch(3));

    const std::vector<std::uint8_t> first =
        encodeFleetCheckpoint(checkpoint);
    FleetCheckpoint again;
    again.registryFingerprint = 0x1234567890ABCDEFull;
    again.finalized = false;
    again.batches.push_back(makeBatch(3));
    const std::vector<std::uint8_t> second =
        encodeFleetCheckpoint(again);
    EXPECT_EQ(first, second);
    EXPECT_EQ(fnv1a64(first.data(), first.size()), 0x4371a35ff8129a79ull);
}
