/**
 * @file
 * Append-only record journal.
 *
 * Between checkpoints the fleet auditor appends every completed
 * tenant batch to a journal file: one framed, checksummed record per
 * append, flushed to the OS before the call returns.  Recovery reads
 * the journal in ReadMode::Journal, so a process killed mid-append
 * costs at most the record being written — the torn tail is detected
 * by its length prefix or checksum, counted, and discarded, never
 * misparsed.  A checkpoint compacts the log: the snapshot absorbs
 * everything journaled so far and reset() starts the journal afresh.
 */

#ifndef CCHUNTER_PERSIST_JOURNAL_HH
#define CCHUNTER_PERSIST_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "persist/snapshot_file.hh"

namespace cchunter::persist
{

/**
 * Appender half of the journal.  Not thread-safe; the fleet auditor
 * serializes appends under its persistence lock.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter&) = delete;
    JournalWriter& operator=(const JournalWriter&) = delete;

    /**
     * Open (truncate) the journal at `path` and write the container
     * header plus a first `headerRecord` (the checkpoint meta record,
     * so a journal is self-describing about which fleet wrote it).
     * Returns false when the filesystem refuses.
     */
    bool open(const std::string& path,
              const std::vector<std::uint8_t>& headerRecord);

    /** Append one framed record and flush it.  Returns false (and
     *  stops accepting) on a write error. */
    bool append(const std::vector<std::uint8_t>& payload);

    /** append() for a record the caller has already framed
     *  (appendFramedRecord's length, checksum and payload). */
    bool appendFrame(std::span<const std::uint8_t> frame);

    /** Truncate back to the header (after a checkpoint absorbed the
     *  journaled records). */
    bool reset();

    void close();

    bool isOpen() const { return file_ != nullptr; }
    std::uint64_t appends() const { return appends_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    std::FILE* file_ = nullptr;
    std::string path_;
    std::vector<std::uint8_t> headerRecord_;
    std::uint64_t appends_ = 0;
    std::uint64_t bytesWritten_ = 0;
};

/** One journal read: the intact records plus tail-defect accounting. */
struct JournalContents
{
    /** Payloads of the header record and every intact append. */
    std::vector<std::vector<std::uint8_t>> records;

    /** Defect that ended the read (None when the file was clean). */
    SnapshotDefect tailDefect = SnapshotDefect::None;

    bool clean() const
    {
        return tailDefect == SnapshotDefect::None;
    }
};

/** Read a journal, keeping the valid prefix (see ReadMode::Journal). */
JournalContents readJournal(const std::string& path);

} // namespace cchunter::persist

#endif // CCHUNTER_PERSIST_JOURNAL_HH
