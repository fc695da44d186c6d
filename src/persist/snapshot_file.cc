#include "persist/snapshot_file.hh"

#include <cstdio>

#include "util/logging.hh"

namespace cchunter::persist
{

const char*
snapshotDefectName(SnapshotDefect defect)
{
    switch (defect) {
    case SnapshotDefect::None:
        return "none";
    case SnapshotDefect::BadMagic:
        return "badMagic";
    case SnapshotDefect::BadChecksum:
        return "badChecksum";
    case SnapshotDefect::UnknownVersion:
        return "unknownVersion";
    case SnapshotDefect::TruncatedTail:
        return "truncatedTail";
    case SnapshotDefect::Unreadable:
        return "unreadable";
    }
    return "?";
}

void
DefectCounts::count(SnapshotDefect defect)
{
    switch (defect) {
    case SnapshotDefect::None:
        break;
    case SnapshotDefect::BadMagic:
        ++badMagic;
        break;
    case SnapshotDefect::BadChecksum:
        ++badChecksum;
        break;
    case SnapshotDefect::UnknownVersion:
        ++unknownVersion;
        break;
    case SnapshotDefect::TruncatedTail:
        ++truncatedTail;
        break;
    case SnapshotDefect::Unreadable:
        ++unreadable;
        break;
    }
}

std::uint64_t
DefectCounts::total() const
{
    return badMagic + badChecksum + unknownVersion + truncatedTail +
           unreadable;
}

void
DefectCounts::accumulate(const DefectCounts& other)
{
    badMagic += other.badMagic;
    badChecksum += other.badChecksum;
    unknownVersion += other.unknownVersion;
    truncatedTail += other.truncatedTail;
    unreadable += other.unreadable;
}

void
appendFramedRecord(std::vector<std::uint8_t>& out,
                   const std::vector<std::uint8_t>& payload)
{
    ByteWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u64(fnv1a64(payload.data(), payload.size()));
    const auto& head = frame.bytes();
    out.insert(out.end(), head.begin(), head.end());
    out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t>
encodeRecordFileHeader()
{
    ByteWriter header;
    header.u64(kSnapshotMagic);
    header.u32(kSnapshotVersion);
    return header.take();
}

std::vector<std::uint8_t>
encodeRecordFile(const std::vector<std::vector<std::uint8_t>>& records)
{
    std::vector<std::uint8_t> bytes = encodeRecordFileHeader();
    for (const auto& payload : records)
        appendFramedRecord(bytes, payload);
    return bytes;
}

RecordFileContents
decodeRecordFile(const std::vector<std::uint8_t>& bytes, ReadMode mode)
{
    RecordFileContents out;
    ByteReader reader(bytes);

    // Header first: a wrong magic means "not ours at all" and any
    // other version means "ours, but not this layout" — both reject
    // the whole file in either mode.
    const std::uint64_t magic = reader.u64();
    const std::uint32_t version = reader.u32();
    if (reader.bad() || magic != kSnapshotMagic) {
        out.defect = SnapshotDefect::BadMagic;
        return out;
    }
    if (version != kSnapshotVersion) {
        out.defect = SnapshotDefect::UnknownVersion;
        return out;
    }

    while (reader.remaining() > 0) {
        const std::uint32_t length = reader.u32();
        const std::uint64_t checksum = reader.u64();
        if (reader.bad() || reader.remaining() < length) {
            // The frame itself ran past the end: a torn write.
            out.defect = SnapshotDefect::TruncatedTail;
            break;
        }
        std::vector<std::uint8_t> payload(length);
        for (std::uint32_t i = 0; i < length; ++i)
            payload[i] = reader.u8();
        if (fnv1a64(payload.data(), payload.size()) != checksum) {
            out.defect = SnapshotDefect::BadChecksum;
            break;
        }
        out.records.push_back(std::move(payload));
    }

    if (out.defect != SnapshotDefect::None) {
        // Everything from the defect onward is untrusted.  A journal
        // keeps its intact prefix; a snapshot must be whole or
        // nothing.
        ++out.discardedRecords;
        if (mode == ReadMode::Snapshot) {
            out.discardedRecords += out.records.size();
            out.records.clear();
        }
    }
    return out;
}

bool
writeFileAtomic(const std::string& path,
                const std::vector<std::uint8_t>& bytes)
{
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("persist: cannot open ", tmp, " for writing");
        return false;
    }
    bool ok = bytes.empty() ||
              std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
    ok = std::fflush(f) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        warn("persist: short write to ", tmp);
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("persist: cannot rename ", tmp, " over ", path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::vector<std::uint8_t>
readFileBytes(const std::string& path, bool& ok)
{
    ok = false;
    std::vector<std::uint8_t> bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::uint8_t buf[65536];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        bytes.clear();
    return bytes;
}

RecordFileContents
readRecordFile(const std::string& path, ReadMode mode)
{
    bool ok = false;
    const std::vector<std::uint8_t> bytes = readFileBytes(path, ok);
    if (!ok) {
        RecordFileContents out;
        out.defect = SnapshotDefect::Unreadable;
        return out;
    }
    return decodeRecordFile(bytes, mode);
}

} // namespace cchunter::persist
