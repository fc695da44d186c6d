#include "persist/recovery.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter::persist
{

PersistPolicy
PersistPolicy::fromConfig(const Config& cfg)
{
    PersistPolicy policy;
    policy.dir = cfg.getString("persist.dir", policy.dir);
    policy.checkpointIntervalBatches = static_cast<std::size_t>(
        cfg.getUint("persist.checkpoint_interval",
                    policy.checkpointIntervalBatches));
    policy.resume = cfg.getBool("persist.resume", policy.resume);
    policy.finalSnapshot =
        cfg.getBool("persist.final_snapshot", policy.finalSnapshot);
    return policy;
}

void
PersistPolicy::toConfig(Config& cfg) const
{
    cfg.set("persist.dir", dir);
    cfg.set("persist.checkpoint_interval",
            static_cast<std::int64_t>(checkpointIntervalBatches));
    cfg.set("persist.resume", resume);
    cfg.set("persist.final_snapshot", finalSnapshot);
}

std::string
snapshotPath(const PersistPolicy& policy)
{
    return policy.dir + "/fleet.snapshot";
}

std::string
journalPath(const PersistPolicy& policy)
{
    return policy.dir + "/fleet.journal";
}

std::vector<StatEntry>
persistStatEntries(const PersistStats& stats,
                   const std::string& prefix)
{
    std::vector<StatEntry> entries;
    auto add = [&](const char* name, double value, const char* desc) {
        entries.push_back({prefix + name, value, desc});
    };
    add("checkpoints", static_cast<double>(stats.checkpointsWritten),
        "snapshots written (interval + final)");
    add("snapshotBytes", static_cast<double>(stats.lastSnapshotBytes),
        "size of the newest snapshot");
    add("journalAppends", static_cast<double>(stats.journalAppends),
        "batch records journaled");
    add("journalBytes", static_cast<double>(stats.journalBytes),
        "bytes written to the journal");
    add("writeFailures", static_cast<double>(stats.writeFailures),
        "failed journal opens/appends and snapshot writes");
    add("restoredSnapshot",
        static_cast<double>(stats.restoredFromSnapshot),
        "batches recovered from the snapshot");
    add("restoredJournal",
        static_cast<double>(stats.restoredFromJournal),
        "batches recovered from the journal");
    add("restoredTenants", static_cast<double>(stats.restoredTenants),
        "distinct tenants whose audit was recovered");
    add("duplicateRestored",
        static_cast<double>(stats.duplicateRestored),
        "recovered batches shadowed by an earlier copy");
    add("unknownTenants",
        static_cast<double>(stats.unknownTenantBatches),
        "recovered batches for tenants not in the plan");
    add("tailDiscards",
        static_cast<double>(stats.journalTailDiscards),
        "journal reads that lost a torn/corrupt tail");
    add("registryMismatches",
        static_cast<double>(stats.registryMismatches),
        "files refused for a foreign fleet fingerprint");
    add("coldStarts", static_cast<double>(stats.coldStarts),
        "resumes that recovered nothing");
    add("restoredResponseActions",
        static_cast<double>(stats.restoredResponseActions),
        "response actions restored with the orchestrator");
    add("defects.badMagic",
        static_cast<double>(stats.defects.badMagic),
        "files with a wrong or missing magic");
    add("defects.badChecksum",
        static_cast<double>(stats.defects.badChecksum),
        "records failing their FNV-1a checksum");
    add("defects.unknownVersion",
        static_cast<double>(stats.defects.unknownVersion),
        "files from an older or newer format version");
    add("defects.truncatedTail",
        static_cast<double>(stats.defects.truncatedTail),
        "files ending inside a record frame");
    add("defects.unreadable",
        static_cast<double>(stats.defects.unreadable),
        "files that could not be read at all");
    add("restoreMicros", stats.restoreMicros,
        "wall-clock cost of the recovery load (us)");
    return entries;
}

namespace
{

/** Append `batch` unless its tenant was already recovered. */
void
mergeBatch(RecoveredFleetState& state, TenantAlarmBatch batch,
           PersistStats& stats, bool fromSnapshot)
{
    const bool duplicate = std::any_of(
        state.batches.begin(), state.batches.end(),
        [&](const TenantAlarmBatch& b) {
            return b.tenant == batch.tenant;
        });
    if (duplicate) {
        ++stats.duplicateRestored;
        return;
    }
    state.batches.push_back(std::move(batch));
    if (fromSnapshot)
        ++stats.restoredFromSnapshot;
    else
        ++stats.restoredFromJournal;
}

/** Recover batches from the snapshot file (all-or-nothing). */
void
recoverSnapshot(const std::string& path,
                std::uint64_t expectedFingerprint,
                RecoveredFleetState& state, PersistStats& stats)
{
    const RecordFileContents contents =
        readRecordFile(path, ReadMode::Snapshot);
    if (!contents.clean()) {
        stats.defects.count(contents.defect);
        warn("persist: snapshot ", path, " rejected: ",
             snapshotDefectName(contents.defect));
        return;
    }
    FleetCheckpoint checkpoint;
    if (!decodeFleetCheckpoint(contents, checkpoint)) {
        // Checksummed frames that do not decode as a checkpoint mean
        // the payload bytes lie about their own structure — the same
        // quarantine bucket as a failed checksum.
        stats.defects.count(SnapshotDefect::BadChecksum);
        warn("persist: snapshot ", path, " rejected: undecodable");
        return;
    }
    if (checkpoint.registryFingerprint != expectedFingerprint) {
        ++stats.registryMismatches;
        warn("persist: snapshot ", path,
             " rejected: foreign fleet fingerprint");
        return;
    }
    for (TenantAlarmBatch& batch : checkpoint.batches)
        mergeBatch(state, std::move(batch), stats, true);
    if (checkpoint.respond) {
        stats.restoredResponseActions +=
            checkpoint.respond->actions.size();
        state.respond = std::move(checkpoint.respond);
    }
}

/** Recover batches from the journal's intact prefix. */
void
recoverJournal(const std::string& path,
               std::uint64_t expectedFingerprint,
               RecoveredFleetState& state, PersistStats& stats)
{
    JournalContents contents = readJournal(path);
    if (!contents.clean()) {
        stats.defects.count(contents.tailDefect);
        // A tail defect with a usable prefix is the torn-write case;
        // a header defect leaves no records at all.
        if (!contents.records.empty())
            ++stats.journalTailDiscards;
        else
            warn("persist: journal ", path, " rejected: ",
                 snapshotDefectName(contents.tailDefect));
    }
    if (contents.records.empty())
        return;

    // Record 0 is the meta header the writer stamped at open().
    std::uint64_t fingerprint = 0;
    std::uint64_t batchCount = 0;
    bool finalized = false;
    if (!decodeMeta(contents.records.front(), fingerprint, batchCount,
                    finalized)) {
        stats.defects.count(SnapshotDefect::BadChecksum);
        warn("persist: journal ", path, " rejected: bad header");
        return;
    }
    if (fingerprint != expectedFingerprint) {
        ++stats.registryMismatches;
        warn("persist: journal ", path,
             " rejected: foreign fleet fingerprint");
        return;
    }
    for (std::size_t i = 1; i < contents.records.size(); ++i) {
        TenantAlarmBatch batch;
        if (!decodeTenantBatch(contents.records[i], batch)) {
            // An intact frame holding a non-batch payload: treat it
            // and everything after as an untrusted tail.
            stats.defects.count(SnapshotDefect::BadChecksum);
            ++stats.journalTailDiscards;
            break;
        }
        mergeBatch(state, std::move(batch), stats, false);
    }
}

} // namespace

RecoveredFleetState
recoverFleetState(const PersistPolicy& policy,
                  std::uint64_t expectedFingerprint,
                  PersistStats& stats)
{
    RecoveredFleetState state;
    recoverSnapshot(snapshotPath(policy), expectedFingerprint, state,
                    stats);
    recoverJournal(journalPath(policy), expectedFingerprint, state,
                   stats);
    stats.restoredTenants += state.batches.size();
    if (state.batches.empty())
        ++stats.coldStarts;
    return state;
}

} // namespace cchunter::persist
