/**
 * @file
 * Write-ahead journal unit tests: CRC framing, per-type round
 * trips, and — the property recovery depends on — truncation
 * tolerance: any byte-level prefix of a valid journal reads back as
 * a record-level prefix, never an error, and bytesConsumed() names
 * the exact boundary to truncate to before resuming appends.
 */

#include "runtime/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace specinfer {
namespace runtime {
namespace {

TEST(Crc32Test, MatchesKnownVector)
{
    // The IEEE 802.3 check value for "123456789".
    const char *msg = "123456789";
    EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(msg, 0), 0x00000000u);
}

TEST(Crc32Test, SensitiveToEveryByte)
{
    std::string a = "speculate-verify";
    uint32_t base = crc32(a.data(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        std::string b = a;
        b[i] ^= 0x01;
        EXPECT_NE(crc32(b.data(), b.size()), base) << "byte " << i;
    }
}

JournalRecord
sampleSubmit()
{
    JournalRecord r;
    r.type = RecordType::Submit;
    r.id = 7;
    r.arrivalIteration = 12;
    r.maxNewTokens = 16;
    r.deadlineIterations = 400;
    r.prompt = {3, 14, 15, 92, 65};
    return r;
}

JournalRecord
sampleStep()
{
    JournalRecord r;
    r.type = RecordType::Step;
    r.id = 7;
    r.tokens = {11, 22, 33};
    r.logProbs = {-0.5f, -1.25f, -0.03125f};
    r.step.treeSize = 9;
    r.step.verifiedTokens = 3;
    r.step.llmChunkTokens = 10;
    r.step.ssmTokensDecoded = 9;
    r.step.prefill = false;
    r.step.fallback = true;
    r.rngAfter.s[0] = 0x0123456789abcdefULL;
    r.rngAfter.s[1] = 0xfedcba9876543210ULL;
    r.rngAfter.s[2] = 42;
    r.rngAfter.s[3] = 7;
    r.rngAfter.hasCachedNormal = true;
    r.rngAfter.cachedNormal = -1.75;
    r.sessionDone = true;
    r.stopReason = 2;
    return r;
}

JournalRecord
samplePreempt()
{
    JournalRecord r;
    r.type = RecordType::Preempt;
    r.id = 9;
    r.preemptionCount = 2;
    r.earliestRestart = 31;
    return r;
}

JournalRecord
sampleFinish()
{
    JournalRecord r;
    r.type = RecordType::Finish;
    r.id = 7;
    r.stopReason = 1;
    r.arrivalIteration = 12;
    r.startIteration = 13;
    r.finishIteration = 29;
    r.preemptions = 1;
    return r;
}

JournalRecord
sampleIteration()
{
    JournalRecord r;
    r.type = RecordType::Iteration;
    r.iteration = 30;
    r.iterDegraded = 1;
    r.iterSlow = 1;
    r.degradation.speculationDisabled = true;
    r.degradation.consecutiveFaults = 3;
    r.degradation.cleanIterations = 0;
    r.degradation.currentBackoff = 8;
    r.degradation.reenableIteration = 38;
    r.degradation.disableEpisodes = 2;
    return r;
}

JournalRecord
sampleReserve()
{
    JournalRecord r;
    r.type = RecordType::Reserve;
    r.id = 42;
    return r;
}

std::vector<JournalRecord>
sampleRecords()
{
    return {sampleSubmit(), sampleStep(), samplePreempt(),
            sampleFinish(), sampleIteration(), sampleReserve()};
}

void
expectEqual(const JournalRecord &got, const JournalRecord &want)
{
    ASSERT_EQ(got.type, want.type) << recordTypeName(want.type);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.arrivalIteration, want.arrivalIteration);
    EXPECT_EQ(got.maxNewTokens, want.maxNewTokens);
    EXPECT_EQ(got.deadlineIterations, want.deadlineIterations);
    EXPECT_EQ(got.prompt, want.prompt);
    EXPECT_EQ(got.tokens, want.tokens);
    EXPECT_EQ(got.logProbs, want.logProbs);
    EXPECT_EQ(got.step.treeSize, want.step.treeSize);
    EXPECT_EQ(got.step.verifiedTokens, want.step.verifiedTokens);
    EXPECT_EQ(got.step.llmChunkTokens, want.step.llmChunkTokens);
    EXPECT_EQ(got.step.ssmTokensDecoded, want.step.ssmTokensDecoded);
    EXPECT_EQ(got.step.prefill, want.step.prefill);
    EXPECT_EQ(got.step.fallback, want.step.fallback);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got.rngAfter.s[i], want.rngAfter.s[i]);
    EXPECT_EQ(got.rngAfter.hasCachedNormal,
              want.rngAfter.hasCachedNormal);
    EXPECT_EQ(got.rngAfter.cachedNormal, want.rngAfter.cachedNormal);
    EXPECT_EQ(got.sessionDone, want.sessionDone);
    EXPECT_EQ(got.stopReason, want.stopReason);
    EXPECT_EQ(got.preemptionCount, want.preemptionCount);
    EXPECT_EQ(got.earliestRestart, want.earliestRestart);
    EXPECT_EQ(got.startIteration, want.startIteration);
    EXPECT_EQ(got.finishIteration, want.finishIteration);
    EXPECT_EQ(got.preemptions, want.preemptions);
    EXPECT_EQ(got.iteration, want.iteration);
    EXPECT_EQ(got.iterDegraded, want.iterDegraded);
    EXPECT_EQ(got.iterSlow, want.iterSlow);
    const DegradationState &gd = got.degradation;
    const DegradationState &wd = want.degradation;
    EXPECT_EQ(gd.speculationDisabled, wd.speculationDisabled);
    EXPECT_EQ(gd.consecutiveFaults, wd.consecutiveFaults);
    EXPECT_EQ(gd.cleanIterations, wd.cleanIterations);
    EXPECT_EQ(gd.currentBackoff, wd.currentBackoff);
    EXPECT_EQ(gd.reenableIteration, wd.reenableIteration);
    EXPECT_EQ(gd.disableEpisodes, wd.disableEpisodes);
}

TEST(JournalTest, AllRecordTypesRoundTrip)
{
    std::stringstream buf;
    JournalWriter writer(buf);
    std::vector<JournalRecord> records = sampleRecords();
    for (const JournalRecord &r : records)
        writer.append(r);
    EXPECT_EQ(writer.bytesWritten(), buf.str().size());
    EXPECT_FALSE(writer.closed());

    JournalReader reader(buf);
    JournalRecord got;
    for (const JournalRecord &want : records) {
        ASSERT_TRUE(reader.next(got));
        expectEqual(got, want);
    }
    EXPECT_FALSE(reader.next(got));
    EXPECT_FALSE(reader.tornTail());
    EXPECT_EQ(reader.bytesConsumed(), writer.bytesWritten());
}

TEST(JournalTest, EmptyStreamIsCleanEof)
{
    std::stringstream buf;
    JournalReader reader(buf);
    JournalRecord got;
    EXPECT_FALSE(reader.next(got));
    EXPECT_FALSE(reader.tornTail());
    EXPECT_EQ(reader.bytesConsumed(), 0u);
}

TEST(JournalTest, CrcMismatchStopsAtLastValidRecord)
{
    std::stringstream buf;
    JournalWriter writer(buf);
    writer.append(sampleSubmit());
    uint64_t first_end = writer.bytesWritten();
    writer.append(sampleStep());
    writer.append(sampleFinish());

    // Corrupt one payload byte of the second record.
    std::string bytes = buf.str();
    bytes[first_end + 8 + 2] ^= 0xFF;
    std::stringstream damaged(bytes);
    JournalReader reader(damaged);
    JournalRecord got;
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.type, RecordType::Submit);
    EXPECT_FALSE(reader.next(got));
    EXPECT_TRUE(reader.tornTail());
    EXPECT_EQ(reader.bytesConsumed(), first_end);
}

TEST(JournalTest, EveryTruncationPointReadsBackAPrefix)
{
    // The crash model: the stream may be cut at ANY byte. Whatever
    // survives must parse as a record-level prefix with the right
    // torn-tail verdict — no crashes, no partial records.
    std::stringstream buf;
    JournalWriter writer(buf);
    std::vector<uint64_t> boundaries = {0};
    for (const JournalRecord &r : sampleRecords()) {
        writer.append(r);
        boundaries.push_back(writer.bytesWritten());
    }
    std::string bytes = buf.str();
    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
        std::stringstream in(bytes.substr(0, cut));
        JournalReader reader(in);
        JournalRecord got;
        size_t full = 0;
        while (full + 1 < boundaries.size() &&
               boundaries[full + 1] <= cut)
            ++full;
        for (size_t i = 0; i < full; ++i)
            ASSERT_TRUE(reader.next(got)) << "cut " << cut;
        ASSERT_FALSE(reader.next(got)) << "cut " << cut;
        EXPECT_EQ(reader.bytesConsumed(), boundaries[full])
            << "cut " << cut;
        EXPECT_EQ(reader.tornTail(), cut != boundaries[full])
            << "cut " << cut;
    }
}

TEST(JournalTest, TornAppendClosesWriterAndTruncatesCleanly)
{
    std::stringstream buf;
    JournalWriter writer(buf);
    writer.append(sampleSubmit());
    writer.append(sampleStep());
    uint64_t valid = writer.bytesWritten();

    writer.tearNextAppend();
    writer.append(sampleFinish()); // torn mid-payload
    EXPECT_TRUE(writer.closed());
    EXPECT_EQ(writer.bytesWritten(), valid);
    EXPECT_GT(buf.str().size(), valid); // torn bytes are on disk
    writer.append(sampleIteration()); // dropped after close
    EXPECT_EQ(writer.bytesWritten(), valid);

    JournalReader reader(buf);
    JournalRecord got;
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.type, RecordType::Submit);
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.type, RecordType::Step);
    EXPECT_FALSE(reader.next(got));
    EXPECT_TRUE(reader.tornTail());
    EXPECT_EQ(reader.bytesConsumed(), valid);

    // The recovery protocol: truncate to bytesConsumed(), reopen,
    // append — the journal is whole again.
    std::stringstream repaired(
        buf.str().substr(0, reader.bytesConsumed()));
    repaired.seekp(0, std::ios::end);
    JournalWriter resumed(repaired);
    resumed.append(sampleIteration());
    repaired.seekg(0);
    JournalReader reread(repaired);
    size_t count = 0;
    while (reread.next(got))
        ++count;
    EXPECT_EQ(count, 3u);
    EXPECT_FALSE(reread.tornTail());
    EXPECT_EQ(got.type, RecordType::Iteration);
}

TEST(JournalTest, GarbagePayloadWithValidCrcIsRejected)
{
    // A frame can be CRC-consistent yet not parse (e.g. bad type
    // byte): the reader must still stop cleanly.
    std::string payload = "\x63junkjunk"; // type 0x63 is invalid
    uint32_t len = static_cast<uint32_t>(payload.size());
    uint32_t crc = crc32(payload.data(), payload.size());
    std::stringstream buf;
    buf.write(reinterpret_cast<const char *>(&len), 4);
    buf.write(reinterpret_cast<const char *>(&crc), 4);
    buf.write(payload.data(), payload.size());
    JournalReader reader(buf);
    JournalRecord got;
    EXPECT_FALSE(reader.next(got));
    EXPECT_TRUE(reader.tornTail());
    EXPECT_EQ(reader.bytesConsumed(), 0u);
}

TEST(JournalTest, SubmitWithOutOfRangePriorityIsTornTail)
{
    // The priority byte indexes per-class arrays on replay, so a
    // CRC-valid Submit naming a class past the last one is damage,
    // not a request.
    std::stringstream buf;
    JournalWriter writer(buf);
    writer.append(sampleSubmit());
    const uint64_t first_end = writer.bytesWritten();
    JournalRecord bad = sampleSubmit();
    bad.id = 8;
    bad.priority = 3;
    writer.append(bad);
    EXPECT_FALSE(writer.closed());
    JournalReader reader(buf);
    JournalRecord got;
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.id, 7u);
    EXPECT_FALSE(reader.next(got));
    EXPECT_TRUE(reader.tornTail());
    EXPECT_EQ(reader.bytesConsumed(), first_end);
}

TEST(JournalTest, ReaderStartsAtStreamPosition)
{
    // recover() seeks past the snapshot's journal offset and reads
    // from there; the reader honours the initial position.
    std::stringstream buf;
    JournalWriter writer(buf);
    writer.append(sampleSubmit());
    uint64_t skip = writer.bytesWritten();
    writer.append(samplePreempt());
    buf.seekg(static_cast<std::streamoff>(skip));
    JournalReader reader(buf);
    JournalRecord got;
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.type, RecordType::Preempt);
    EXPECT_FALSE(reader.next(got));
    EXPECT_EQ(reader.bytesConsumed(),
              writer.bytesWritten() - skip);
}

TEST(JournalTest, FileAppendsAfterItsValidLengthAtAbsoluteOffsets)
{
    // A recovering start cuts only the torn tail and appends after
    // it: the first generation's records stay byte for byte, and the
    // writer counts from the file's start, as snapshots need.
    const std::string path =
        ::testing::TempDir() + "/specinfer_journal_file_test.wal";
    auto read_all = [&path]() {
        std::ifstream in(path, std::ios::binary);
        std::stringstream bytes;
        bytes << in.rdbuf();
        return bytes.str();
    };
    uint64_t first_end = 0;
    {
        JournalFile file;
        ASSERT_TRUE(file.open(path, 0, false));
        file.writer().append(sampleSubmit());
        first_end = file.writer().bytesWritten();
        file.writer().tearNextAppend();
        file.writer().append(samplePreempt());
    }
    const std::string first = read_all();
    ASSERT_GT(first.size(), first_end) << "no torn tail to cut";
    {
        JournalFile file;
        ASSERT_TRUE(file.open(path, first_end, false));
        EXPECT_EQ(file.writer().bytesWritten(), first_end);
        file.writer().append(samplePreempt());
        EXPECT_EQ(file.writer().bytesWritten(), read_all().size());
    }
    const std::string joined = read_all();
    EXPECT_EQ(joined.substr(0, first_end), first.substr(0, first_end));
    std::stringstream in(joined);
    JournalReader reader(in);
    JournalRecord got;
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.type, RecordType::Submit);
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.type, RecordType::Preempt);
    EXPECT_FALSE(reader.next(got));
    EXPECT_FALSE(reader.tornTail());
    EXPECT_EQ(reader.bytesConsumed(), joined.size());
    std::remove(path.c_str());
}

} // namespace
} // namespace runtime
} // namespace specinfer
