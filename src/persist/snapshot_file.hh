/**
 * @file
 * The on-disk container every persisted artefact shares.
 *
 * A snapshot (or journal) file is a fixed header — magic and format
 * version — followed by length-prefixed, individually checksummed
 * records:
 *
 *     [u64 magic][u32 version]
 *     [u32 length][u64 fnv1a64(payload)][payload bytes]  x N
 *
 * Reading is defensive by construction: a wrong magic, any version but
 * the current one, a checksum mismatch or a record cut short by a torn
 * write is *detected and counted*, never a crash and never a silent
 * misparse.  Snapshot semantics reject the whole file on any defect
 * (an inconsistent checkpoint is worthless); journal semantics keep
 * the valid prefix and discard the defective tail (an append-only log
 * is exactly as good as its last intact record).
 */

#ifndef CCHUNTER_PERSIST_SNAPSHOT_FILE_HH
#define CCHUNTER_PERSIST_SNAPSHOT_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "persist/codec.hh"

namespace cchunter::persist
{

/** First eight bytes of every persisted file ("cchsnap!" LE). */
constexpr std::uint64_t kSnapshotMagic = 0x2170616e73686363ull;

/** Current format version.  Readers refuse every other version: no
 *  older layout is decodable by this reader. */
constexpr std::uint32_t kSnapshotVersion = 3;

/** Why a persisted file (or its tail) was refused. */
enum class SnapshotDefect : std::uint8_t
{
    None,
    BadMagic,      //!< header is not a snapshot at all
    BadChecksum,   //!< a record's payload does not match its FNV-1a
    UnknownVersion, //!< written by an older or newer format
    TruncatedTail, //!< a record frame runs past the end of the file
    Unreadable,    //!< the file is absent or the OS refused the read
};

/** Short lower-case name of a defect (stat entry / log rendering). */
const char* snapshotDefectName(SnapshotDefect defect);

/** Per-reason defect tally — the persistence quarantine taxonomy. */
struct DefectCounts
{
    std::uint64_t badMagic = 0;
    std::uint64_t badChecksum = 0;
    std::uint64_t unknownVersion = 0;
    std::uint64_t truncatedTail = 0;
    std::uint64_t unreadable = 0;

    void count(SnapshotDefect defect);
    std::uint64_t total() const;
    void accumulate(const DefectCounts& other);
};

/** Result of reading one record file. */
struct RecordFileContents
{
    /** Payloads of every intact record, in file order. */
    std::vector<std::vector<std::uint8_t>> records;

    /** First defect hit (None for a fully clean file). */
    SnapshotDefect defect = SnapshotDefect::None;

    /** Records discarded after the defect (journal reads only ever
     *  lose the tail; snapshot reads discard everything). */
    std::uint64_t discardedRecords = 0;

    bool clean() const { return defect == SnapshotDefect::None; }
};

/** How readRecordFile treats a mid-file defect. */
enum class ReadMode
{
    Snapshot, //!< any defect rejects the whole file (records cleared)
    Journal,  //!< keep the intact prefix, drop the defective tail
};

/** The container header alone: magic, then version. */
std::vector<std::uint8_t> encodeRecordFileHeader();

/** Serialize a header plus framed records into one byte vector. */
std::vector<std::uint8_t> encodeRecordFile(
    const std::vector<std::vector<std::uint8_t>>& records);

/** Append one framed record (length, checksum, payload) to `out`. */
void appendFramedRecord(std::vector<std::uint8_t>& out,
                        const std::vector<std::uint8_t>& payload);

/** Parse a byte image of a record file (see ReadMode semantics). */
RecordFileContents decodeRecordFile(
    const std::vector<std::uint8_t>& bytes, ReadMode mode);

/**
 * Write bytes to `path` atomically: the bytes land in `path + ".tmp"`
 * first and are renamed over the destination, so a crash mid-write
 * leaves either the old file or the new one — never a torn snapshot.
 * Returns false (and logs) when the filesystem refuses.
 */
bool writeFileAtomic(const std::string& path,
                     const std::vector<std::uint8_t>& bytes);

/** Read a whole file; empty optional-style flag via `ok`. */
std::vector<std::uint8_t> readFileBytes(const std::string& path,
                                        bool& ok);

/** Read + decode a record file in one step.  A missing/unreadable
 *  file yields SnapshotDefect::Unreadable. */
RecordFileContents readRecordFile(const std::string& path,
                                  ReadMode mode);

} // namespace cchunter::persist

#endif // CCHUNTER_PERSIST_SNAPSHOT_FILE_HH
