#include "persist/journal.hh"

#include "util/logging.hh"

namespace cchunter::persist
{

namespace
{

std::vector<std::uint8_t>
journalPreamble(const std::vector<std::uint8_t>& headerRecord)
{
    std::vector<std::uint8_t> bytes = encodeRecordFileHeader();
    appendFramedRecord(bytes, headerRecord);
    return bytes;
}

} // namespace

JournalWriter::~JournalWriter()
{
    close();
}

bool
JournalWriter::open(const std::string& path,
                    const std::vector<std::uint8_t>& headerRecord)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        warn("persist: cannot open journal ", path);
        return false;
    }
    path_ = path;
    headerRecord_ = headerRecord;
    appends_ = 0;
    bytesWritten_ = 0;
    const std::vector<std::uint8_t> preamble =
        journalPreamble(headerRecord_);
    if (std::fwrite(preamble.data(), 1, preamble.size(), file_) !=
            preamble.size() ||
        std::fflush(file_) != 0) {
        warn("persist: cannot write journal header to ", path);
        close();
        return false;
    }
    bytesWritten_ += preamble.size();
    return true;
}

bool
JournalWriter::append(const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> frame;
    appendFramedRecord(frame, payload);
    return appendFrame(frame);
}

bool
JournalWriter::appendFrame(std::span<const std::uint8_t> frame)
{
    if (!file_)
        return false;
    if (std::fwrite(frame.data(), 1, frame.size(), file_) !=
            frame.size() ||
        std::fflush(file_) != 0) {
        warn("persist: journal append failed on ", path_);
        close();
        return false;
    }
    ++appends_;
    bytesWritten_ += frame.size();
    return true;
}

bool
JournalWriter::reset()
{
    if (!file_)
        return false;
    const std::string path = path_;
    const std::vector<std::uint8_t> headerRecord = headerRecord_;
    return open(path, headerRecord);
}

void
JournalWriter::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

JournalContents
readJournal(const std::string& path)
{
    const RecordFileContents raw =
        readRecordFile(path, ReadMode::Journal);
    JournalContents out;
    out.records = raw.records;
    out.tailDefect = raw.defect;
    return out;
}

} // namespace cchunter::persist
