/**
 * @file
 * Serialization of fleet-audit state (format v1).
 *
 * A checkpoint is the AlarmAggregator's logical state: the set of
 * tenant alarm batches ingested so far.  Restoring re-ingests those
 * batches into a fresh aggregator, which reproduces its internal
 * state exactly — ingest is order-insensitive and keyed by tenant, so
 * the eventual incident stream depends only on the batch *set*, never
 * on who wrote the snapshot or when.  A finalized run's snapshot also
 * carries the scored IncidentStore, so a restarted auditor resumes
 * with the previous run's correlation context (ids, suppression
 * counts, rate-limit positions) intact.
 *
 * Every record is framed and checksummed by persist/snapshot_file;
 * this layer only defines payload layouts.  Payloads open with a
 * record-kind byte so a reader can verify it is looking at what it
 * expects before trusting any field.
 */

#ifndef CCHUNTER_PERSIST_FLEET_SNAPSHOT_HH
#define CCHUNTER_PERSIST_FLEET_SNAPSHOT_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fleet/alarm_aggregator.hh"
#include "fleet/incident_store.hh"
#include "fleet/tenant_registry.hh"
#include "persist/snapshot_file.hh"
#include "respond/orchestrator.hh"

namespace cchunter::persist
{

/** First payload byte of every record. */
enum class RecordKind : std::uint8_t
{
    Meta = 1,          //!< fingerprint + layout of the file
    TenantBatch = 2,   //!< one tenant's audit output
    IncidentStore = 3, //!< a finalized run's scored incident log
    ResponseState = 4, //!< the response orchestrator's ladder state
};

/** The decoded form of a checkpoint file. */
struct FleetCheckpoint
{
    /** Fingerprint of the registry the state was captured from; a
     *  restore against a different fleet must cold-start. */
    std::uint64_t registryFingerprint = 0;

    /** True when the run had finalized (incidents present). */
    bool finalized = false;

    /** Completed tenant batches, in capture order. */
    std::vector<TenantAlarmBatch> batches;

    /** The scored incident log (finalized snapshots only). */
    std::optional<IncidentStore> incidents;

    /** The response orchestrator's state (pair levels + action log),
     *  when a response policy was active.  Carrying it in the
     *  checkpoint is what makes quarantines survive a crash/restart:
     *  a resumed auditor rebuilds the orchestrator from here before
     *  observing any new incidents. */
    std::optional<ResponseOrchestratorState> respond;
};

/** Encode/decode one tenant batch payload. */
std::vector<std::uint8_t> encodeTenantBatch(
    const TenantAlarmBatch& batch);
bool decodeTenantBatch(const std::vector<std::uint8_t>& payload,
                       TenantAlarmBatch& out);

/** Encode/decode a whole incident store (incidents, suppression
 *  count, rate limits) as one payload. */
std::vector<std::uint8_t> encodeIncidentStore(
    const IncidentStore& store, const IncidentRateLimit& limit);
bool decodeIncidentStore(const std::vector<std::uint8_t>& payload,
                         IncidentStore& out);

/** Encode/decode the response orchestrator's persistable state
 *  (pair ladder positions, the full action log, counters). */
std::vector<std::uint8_t> encodeResponseState(
    const ResponseOrchestratorState& state);
bool decodeResponseState(const std::vector<std::uint8_t>& payload,
                         ResponseOrchestratorState& out);

/** Meta payload: fingerprint, finalized flag, expected batch count. */
std::vector<std::uint8_t> encodeMeta(std::uint64_t fingerprint,
                                     bool finalized,
                                     std::uint64_t batchCount);
bool decodeMeta(const std::vector<std::uint8_t>& payload,
                std::uint64_t& fingerprint, std::uint64_t& batchCount,
                bool& finalized);

/**
 * Completed tenant batches, each encoded and framed (length,
 * checksum, payload) once: the same frame goes to the journal when
 * the batch completes and into every later snapshot, so a checkpoint
 * re-encodes and re-checksums nothing it already holds.
 */
class FramedBatches
{
  public:
    /** Frame one batch and keep it.  Returns its frame, valid until
     *  the next add(). */
    std::span<const std::uint8_t> add(const TenantAlarmBatch& batch);

    /** Number of batches held. */
    std::size_t size() const { return ends_.size(); }

    /** The i-th batch's frame, in add() order. */
    std::span<const std::uint8_t> frame(std::size_t i) const;

    /** Every frame, back to back, in add() order. */
    std::span<const std::uint8_t> bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::vector<std::size_t> ends_; //!< end offset of each frame
};

/**
 * Serialize a checkpoint into a complete record-file byte image
 * (header, meta record, one record per batch, optionally the
 * incident store and the response state).
 */
std::vector<std::uint8_t> encodeFleetCheckpoint(
    const FleetCheckpoint& checkpoint,
    const IncidentRateLimit& limit = {});

/** The same image from batches framed beforehand: byte-identical to
 *  encodeFleetCheckpoint of a checkpoint holding those batches. */
std::vector<std::uint8_t> encodeFleetCheckpoint(
    std::uint64_t registryFingerprint, bool finalized,
    const FramedBatches& batches, const IncidentStore* incidents,
    const ResponseOrchestratorState* respond,
    const IncidentRateLimit& limit = {});

/**
 * Decode a record file (already past the container's framing checks)
 * into a checkpoint.  Returns false when the records are structurally
 * inconsistent — wrong kinds, short payloads, a batch count that does
 * not match the meta record — which a same-version writer never
 * produces; callers quarantine such a file like a checksum failure.
 */
bool decodeFleetCheckpoint(const RecordFileContents& contents,
                           FleetCheckpoint& out);

/**
 * Stable fingerprint of a tenant registry: FNV-1a over every
 * tenant's id, name and full audit configuration (workload, scenario
 * echo, online cadence).  Two registries with equal fingerprints run
 * identical audits, so a snapshot is only replayed against the fleet
 * it was captured from.
 */
std::uint64_t registryFingerprint(const TenantRegistry& registry);

} // namespace cchunter::persist

#endif // CCHUNTER_PERSIST_FLEET_SNAPSHOT_HH
