/**
 * @file
 * Byte-codec and record-container tests for the persistence layer:
 * ByteWriter/ByteReader round-trips and overrun safety, the FNV-1a
 * checksum contract, and every defect class of the framed record file
 * (bad magic, bad checksum, future version, truncated tail,
 * unreadable) under both read modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "persist/snapshot_file.hh"

using namespace cchunter;
using namespace cchunter::persist;

namespace
{

std::vector<std::uint8_t>
payloadOf(const std::string& text)
{
    return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + "cchunter_codec_" + name;
}

} // namespace

TEST(SnapshotCodecTest, WriterReaderRoundTripAllTypes)
{
    ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.f64(-1234.5678);
    w.str("covert channel");
    w.str(""); // empty strings must survive too
    const std::vector<std::uint8_t> bytes = w.take();

    ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.f64(), -1234.5678);
    EXPECT_EQ(r.str(), "covert channel");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.exhausted());
    EXPECT_FALSE(r.bad());
}

TEST(SnapshotCodecTest, EncodingIsLittleEndianAndPacked)
{
    ByteWriter w;
    w.u32(0x01020304u);
    const auto& bytes = w.bytes();
    ASSERT_EQ(bytes.size(), 4u);
    EXPECT_EQ(bytes[0], 0x04);
    EXPECT_EQ(bytes[1], 0x03);
    EXPECT_EQ(bytes[2], 0x02);
    EXPECT_EQ(bytes[3], 0x01);
}

TEST(SnapshotCodecTest, ReaderOverrunIsStickyAndReturnsZeros)
{
    ByteWriter w;
    w.u8(7);
    const std::vector<std::uint8_t> bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 7);
    // Reading a u64 from an empty reader must not crash — it goes
    // bad and yields zero, and stays bad for every later read.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_TRUE(r.bad());
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.bad());
    EXPECT_FALSE(r.exhausted());
}

TEST(SnapshotCodecTest, StringLengthBeyondBufferIsCaught)
{
    // A corrupt length prefix claiming more bytes than exist must not
    // read out of bounds or allocate absurdly.
    ByteWriter w;
    w.u32(0xFFFFFFFFu);
    w.u8('x');
    const std::vector<std::uint8_t> bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.bad());
}

TEST(SnapshotCodecTest, Fnv1a64IsPinnedAndConsistent)
{
    // The offset basis is pinned: IncidentStore::streamHash() and the
    // snapshot record checksums share this function, so the golden
    // stream hash fixtures break if it drifts.
    EXPECT_EQ(fnv1a64(std::string()), 1469598103934665603ull);
    EXPECT_NE(fnv1a64(std::string("a")), fnv1a64(std::string("b")));
    EXPECT_NE(fnv1a64(std::string("ab")), fnv1a64(std::string("ba")));
    const std::string text = "incident 0";
    EXPECT_EQ(fnv1a64(text), fnv1a64(text.data(), text.size()));
    // Chaining: the seed parameter continues a running hash.
    EXPECT_EQ(fnv1a64(std::string("cd"), fnv1a64(std::string("ab"))),
              fnv1a64(std::string("abcd")));
}

TEST(SnapshotCodecTest, RecordFileRoundTripsCleanly)
{
    const std::vector<std::vector<std::uint8_t>> records = {
        payloadOf("first"), payloadOf(""), payloadOf("third record")};
    const std::vector<std::uint8_t> bytes = encodeRecordFile(records);
    for (const ReadMode mode : {ReadMode::Snapshot, ReadMode::Journal}) {
        const RecordFileContents out = decodeRecordFile(bytes, mode);
        EXPECT_TRUE(out.clean());
        EXPECT_EQ(out.records, records);
        EXPECT_EQ(out.discardedRecords, 0u);
    }
}

TEST(SnapshotCodecTest, WrongMagicRejectsInBothModes)
{
    std::vector<std::uint8_t> bytes =
        encodeRecordFile({payloadOf("data")});
    bytes[0] ^= 0xFF;
    for (const ReadMode mode : {ReadMode::Snapshot, ReadMode::Journal}) {
        const RecordFileContents out = decodeRecordFile(bytes, mode);
        EXPECT_EQ(out.defect, SnapshotDefect::BadMagic);
        EXPECT_TRUE(out.records.empty());
    }
}

TEST(SnapshotCodecTest, FutureVersionRejectsInBothModes)
{
    // An older layout is as undecodable as a newer one.
    for (const std::uint32_t version :
         {kSnapshotVersion + 1, kSnapshotVersion - 1}) {
        ByteWriter header;
        header.u64(kSnapshotMagic);
        header.u32(version);
        std::vector<std::uint8_t> bytes = header.take();
        appendFramedRecord(bytes, payloadOf("another layout"));
        for (const ReadMode mode :
             {ReadMode::Snapshot, ReadMode::Journal}) {
            const RecordFileContents out = decodeRecordFile(bytes, mode);
            EXPECT_EQ(out.defect, SnapshotDefect::UnknownVersion)
                << "version " << version;
            EXPECT_TRUE(out.records.empty());
        }
    }
}

TEST(SnapshotCodecTest, ChecksumFlipSplitsByMode)
{
    // Flip one payload bit of the SECOND record: snapshot mode must
    // reject everything, journal mode keeps the intact first record.
    std::vector<std::uint8_t> bytes =
        encodeRecordFile({payloadOf("keep me"), payloadOf("flip me")});
    bytes[bytes.size() - 1] ^= 0x01;

    const RecordFileContents snap =
        decodeRecordFile(bytes, ReadMode::Snapshot);
    EXPECT_EQ(snap.defect, SnapshotDefect::BadChecksum);
    EXPECT_TRUE(snap.records.empty());
    EXPECT_EQ(snap.discardedRecords, 2u);

    const RecordFileContents journal =
        decodeRecordFile(bytes, ReadMode::Journal);
    EXPECT_EQ(journal.defect, SnapshotDefect::BadChecksum);
    ASSERT_EQ(journal.records.size(), 1u);
    EXPECT_EQ(journal.records[0], payloadOf("keep me"));
    EXPECT_EQ(journal.discardedRecords, 1u);
}

TEST(SnapshotCodecTest, TornTailSplitsByMode)
{
    // Cut the file mid-record: the torn frame is detected by its
    // length prefix, never misparsed.
    std::vector<std::uint8_t> bytes = encodeRecordFile(
        {payloadOf("whole"), payloadOf("this one gets torn")});
    bytes.resize(bytes.size() - 5);

    const RecordFileContents snap =
        decodeRecordFile(bytes, ReadMode::Snapshot);
    EXPECT_EQ(snap.defect, SnapshotDefect::TruncatedTail);
    EXPECT_TRUE(snap.records.empty());

    const RecordFileContents journal =
        decodeRecordFile(bytes, ReadMode::Journal);
    EXPECT_EQ(journal.defect, SnapshotDefect::TruncatedTail);
    ASSERT_EQ(journal.records.size(), 1u);
    EXPECT_EQ(journal.records[0], payloadOf("whole"));
}

TEST(SnapshotCodecTest, EveryTruncationPointIsSurvivedWithoutCrash)
{
    // Exhaustive torn-write sweep: any prefix of a valid file must
    // decode to *something* counted — never a crash, never a bogus
    // extra record.
    const std::vector<std::uint8_t> whole = encodeRecordFile(
        {payloadOf("alpha"), payloadOf("beta"), payloadOf("gamma")});
    for (std::size_t cut = 0; cut < whole.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(whole.begin(),
                                               whole.begin() + cut);
        const RecordFileContents out =
            decodeRecordFile(prefix, ReadMode::Journal);
        EXPECT_LE(out.records.size(), 3u) << "cut=" << cut;
        if (cut < whole.size()) {
            EXPECT_FALSE(out.clean() && out.records.size() == 3)
                << "cut=" << cut;
        }
        for (const auto& rec : out.records)
            EXPECT_TRUE(rec == payloadOf("alpha") ||
                        rec == payloadOf("beta") ||
                        rec == payloadOf("gamma"))
                << "cut=" << cut;
    }
}

TEST(SnapshotCodecTest, MissingFileReadsAsUnreadable)
{
    const RecordFileContents out = readRecordFile(
        tempPath("never_written.snap"), ReadMode::Snapshot);
    EXPECT_EQ(out.defect, SnapshotDefect::Unreadable);
    EXPECT_TRUE(out.records.empty());
}

TEST(SnapshotCodecTest, AtomicWriteRoundTripsThroughDisk)
{
    const std::string path = tempPath("atomic.snap");
    const std::vector<std::uint8_t> bytes =
        encodeRecordFile({payloadOf("persisted")});
    ASSERT_TRUE(writeFileAtomic(path, bytes));
    // No .tmp residue after a successful rename.
    std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
    const RecordFileContents out =
        readRecordFile(path, ReadMode::Snapshot);
    EXPECT_TRUE(out.clean());
    ASSERT_EQ(out.records.size(), 1u);
    EXPECT_EQ(out.records[0], payloadOf("persisted"));
    std::remove(path.c_str());
}

TEST(SnapshotCodecTest, DefectCountsAccountEveryReason)
{
    DefectCounts counts;
    counts.count(SnapshotDefect::BadMagic);
    counts.count(SnapshotDefect::BadChecksum);
    counts.count(SnapshotDefect::BadChecksum);
    counts.count(SnapshotDefect::UnknownVersion);
    counts.count(SnapshotDefect::TruncatedTail);
    counts.count(SnapshotDefect::Unreadable);
    counts.count(SnapshotDefect::None); // not a defect, not counted
    EXPECT_EQ(counts.badMagic, 1u);
    EXPECT_EQ(counts.badChecksum, 2u);
    EXPECT_EQ(counts.unknownVersion, 1u);
    EXPECT_EQ(counts.truncatedTail, 1u);
    EXPECT_EQ(counts.unreadable, 1u);
    EXPECT_EQ(counts.total(), 6u);

    DefectCounts more;
    more.count(SnapshotDefect::BadMagic);
    counts.accumulate(more);
    EXPECT_EQ(counts.badMagic, 2u);
    EXPECT_EQ(counts.total(), 7u);
}

TEST(SnapshotCodecTest, DefectNamesAreStable)
{
    EXPECT_STREQ(snapshotDefectName(SnapshotDefect::None), "none");
    EXPECT_STREQ(snapshotDefectName(SnapshotDefect::BadMagic),
                 "badMagic");
    EXPECT_STREQ(snapshotDefectName(SnapshotDefect::BadChecksum),
                 "badChecksum");
    EXPECT_STREQ(snapshotDefectName(SnapshotDefect::UnknownVersion),
                 "unknownVersion");
    EXPECT_STREQ(snapshotDefectName(SnapshotDefect::TruncatedTail),
                 "truncatedTail");
    EXPECT_STREQ(snapshotDefectName(SnapshotDefect::Unreadable),
                 "unreadable");
}
