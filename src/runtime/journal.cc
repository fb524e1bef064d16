#include "runtime/journal.h"

#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/obs.h"
#include "runtime/request.h"
#include "util/logging.h"

namespace specinfer {
namespace runtime {

namespace {

/** Table-driven CRC-32 (IEEE 802.3, reflected 0xEDB88320). */
struct Crc32Table
{
    uint32_t entries[256];

    Crc32Table()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            entries[i] = c;
        }
    }
};

const Crc32Table &
crcTable()
{
    static const Crc32Table table;
    return table;
}

/** Little-endian append-only payload buffer. */
class ByteWriter
{
  public:
    template <typename T>
    void pod(T value)
    {
        const char *raw = reinterpret_cast<const char *>(&value);
        buf_.append(raw, sizeof(T));
    }

    template <typename T>
    void podVector(const std::vector<T> &v)
    {
        pod<uint64_t>(v.size());
        buf_.append(reinterpret_cast<const char *>(v.data()),
                    v.size() * sizeof(T));
    }

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Bounds-checked payload cursor. Reads past the end (a torn or
 * corrupt payload) flip ok() to false and return zeros instead of
 * aborting — journal damage is an expected condition, not a bug.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &buf) : buf_(buf) {}

    template <typename T>
    T pod()
    {
        T value{};
        if (pos_ + sizeof(T) > buf_.size()) {
            ok_ = false;
            return value;
        }
        std::memcpy(&value, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    template <typename T>
    std::vector<T> podVector()
    {
        uint64_t len = pod<uint64_t>();
        if (!ok_ || len > (buf_.size() - pos_) / sizeof(T)) {
            ok_ = false;
            return {};
        }
        std::vector<T> v(len);
        // An empty vector's data() may be null, which memcpy forbids
        // even for zero bytes.
        if (len > 0)
            std::memcpy(v.data(), buf_.data() + pos_, len * sizeof(T));
        pos_ += len * sizeof(T);
        return v;
    }

    bool ok() const { return ok_; }
    bool exhausted() const { return pos_ == buf_.size(); }

  private:
    const std::string &buf_;
    size_t pos_ = 0;
    bool ok_ = true;
};

void
writeRng(ByteWriter &w, const util::RngState &state)
{
    for (uint64_t word : state.s)
        w.pod<uint64_t>(word);
    w.pod<uint8_t>(state.hasCachedNormal ? 1 : 0);
    w.pod<double>(state.cachedNormal);
}

util::RngState
readRng(ByteReader &r)
{
    util::RngState state;
    for (uint64_t &word : state.s)
        word = r.pod<uint64_t>();
    state.hasCachedNormal = r.pod<uint8_t>() != 0;
    state.cachedNormal = r.pod<double>();
    return state;
}

std::string
serializePayload(const JournalRecord &rec)
{
    ByteWriter w;
    w.pod<uint8_t>(static_cast<uint8_t>(rec.type));
    switch (rec.type) {
      case RecordType::Submit:
        w.pod<uint64_t>(rec.id);
        w.pod<uint64_t>(rec.arrivalIteration);
        w.pod<uint64_t>(rec.maxNewTokens);
        w.pod<uint64_t>(rec.deadlineIterations);
        w.pod<uint64_t>(rec.deadlineNanos);
        w.pod<uint8_t>(rec.priority);
        w.podVector<int>(rec.prompt);
        break;
      case RecordType::Step:
        w.pod<uint64_t>(rec.id);
        w.podVector<int>(rec.tokens);
        w.podVector<float>(rec.logProbs);
        w.pod<uint64_t>(rec.step.treeSize);
        w.pod<uint64_t>(rec.step.verifiedTokens);
        w.pod<uint64_t>(rec.step.llmChunkTokens);
        w.pod<uint64_t>(rec.step.ssmTokensDecoded);
        w.pod<uint8_t>(rec.step.prefill ? 1 : 0);
        w.pod<uint8_t>(rec.step.fallback ? 1 : 0);
        writeRng(w, rec.rngAfter);
        w.pod<uint8_t>(rec.sessionDone ? 1 : 0);
        w.pod<uint8_t>(rec.stopReason);
        break;
      case RecordType::Preempt:
        w.pod<uint64_t>(rec.id);
        w.pod<uint64_t>(rec.preemptionCount);
        w.pod<uint64_t>(rec.earliestRestart);
        break;
      case RecordType::Finish:
        w.pod<uint64_t>(rec.id);
        w.pod<uint8_t>(rec.stopReason);
        w.pod<uint64_t>(rec.arrivalIteration);
        w.pod<uint64_t>(rec.startIteration);
        w.pod<uint64_t>(rec.finishIteration);
        w.pod<uint64_t>(rec.preemptions);
        break;
      case RecordType::Iteration:
        w.pod<uint64_t>(rec.iteration);
        w.pod<uint8_t>(rec.iterDegraded);
        w.pod<uint8_t>(rec.iterSlow);
        writeDegradation(rec.degradation,
                         [&w](auto v) { w.pod(v); });
        break;
      case RecordType::Begin:
        w.pod<uint64_t>(rec.iteration);
        w.pod<uint64_t>(rec.iterNanos);
        break;
      case RecordType::Admit:
        w.pod<uint64_t>(rec.id);
        w.pod<uint64_t>(rec.adoptedTokens);
        break;
      case RecordType::Reserve:
        w.pod<uint64_t>(rec.id);
        break;
    }
    return w.bytes();
}

bool
parsePayload(const std::string &payload, JournalRecord &rec)
{
    ByteReader r(payload);
    uint8_t raw_type = r.pod<uint8_t>();
    if (!r.ok() || raw_type < 1 ||
        raw_type > static_cast<uint8_t>(RecordType::Reserve))
        return false;
    rec = JournalRecord();
    rec.type = static_cast<RecordType>(raw_type);
    switch (rec.type) {
      case RecordType::Submit:
        rec.id = r.pod<uint64_t>();
        rec.arrivalIteration = r.pod<uint64_t>();
        rec.maxNewTokens = r.pod<uint64_t>();
        rec.deadlineIterations = r.pod<uint64_t>();
        rec.deadlineNanos = r.pod<uint64_t>();
        rec.priority = r.pod<uint8_t>();
        // A class byte past the last Priority would index the
        // per-class bucket and shed arrays out of bounds on replay.
        if (rec.priority >= kPriorityCount)
            return false;
        rec.prompt = r.podVector<int>();
        break;
      case RecordType::Step:
        rec.id = r.pod<uint64_t>();
        rec.tokens = r.podVector<int>();
        rec.logProbs = r.podVector<float>();
        rec.step.treeSize = r.pod<uint64_t>();
        rec.step.verifiedTokens = r.pod<uint64_t>();
        rec.step.llmChunkTokens = r.pod<uint64_t>();
        rec.step.ssmTokensDecoded = r.pod<uint64_t>();
        rec.step.prefill = r.pod<uint8_t>() != 0;
        rec.step.fallback = r.pod<uint8_t>() != 0;
        rec.rngAfter = readRng(r);
        rec.sessionDone = r.pod<uint8_t>() != 0;
        rec.stopReason = r.pod<uint8_t>();
        break;
      case RecordType::Preempt:
        rec.id = r.pod<uint64_t>();
        rec.preemptionCount = r.pod<uint64_t>();
        rec.earliestRestart = r.pod<uint64_t>();
        break;
      case RecordType::Finish:
        rec.id = r.pod<uint64_t>();
        rec.stopReason = r.pod<uint8_t>();
        rec.arrivalIteration = r.pod<uint64_t>();
        rec.startIteration = r.pod<uint64_t>();
        rec.finishIteration = r.pod<uint64_t>();
        rec.preemptions = r.pod<uint64_t>();
        break;
      case RecordType::Iteration:
        rec.iteration = r.pod<uint64_t>();
        rec.iterDegraded = r.pod<uint8_t>();
        rec.iterSlow = r.pod<uint8_t>();
        rec.degradation = readDegradation(
            [&r](auto t) { return r.pod<decltype(t)>(); });
        break;
      case RecordType::Begin:
        rec.iteration = r.pod<uint64_t>();
        rec.iterNanos = r.pod<uint64_t>();
        break;
      case RecordType::Admit:
        rec.id = r.pod<uint64_t>();
        rec.adoptedTokens = r.pod<uint64_t>();
        break;
      case RecordType::Reserve:
        rec.id = r.pod<uint64_t>();
        break;
    }
    // A valid payload is consumed exactly: trailing garbage means a
    // framing bug or corruption that happened to pass the CRC of a
    // different record — reject either way.
    return r.ok() && r.exhausted();
}

} // namespace

uint32_t
crc32(const void *data, size_t size)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    const Crc32Table &table = crcTable();
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i)
        c = table.entries[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

const char *
recordTypeName(RecordType type)
{
    switch (type) {
      case RecordType::Submit:
        return "submit";
      case RecordType::Step:
        return "step";
      case RecordType::Preempt:
        return "preempt";
      case RecordType::Finish:
        return "finish";
      case RecordType::Iteration:
        return "iteration";
      case RecordType::Begin:
        return "begin";
      case RecordType::Admit:
        return "admit";
      case RecordType::Reserve:
        return "reserve";
    }
    return "unknown";
}

JournalWriter::JournalWriter(std::ostream &out, uint64_t offset)
    : out_(&out), bytes_(offset)
{
}

namespace {

void
datasync(int fd)
{
#if defined(__linux__)
    ::fdatasync(fd);
#elif defined(__unix__) || defined(__APPLE__)
    ::fsync(fd);
#else
    (void)fd;
#endif
}

} // namespace

void
syncFile(const std::string &path)
{
#if defined(__unix__) || defined(__APPLE__)
    // Read-only: a directory cannot be opened for writing.
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    datasync(fd);
    ::close(fd);
#else
    (void)path;
#endif
}

JournalFile::~JournalFile()
{
#if defined(__unix__) || defined(__APPLE__)
    if (syncFd_ >= 0)
        ::close(syncFd_);
#endif
}

bool
JournalFile::open(const std::string &path, uint64_t length,
                  bool fsync)
{
    // Appends land at the end whatever the stream's position, so
    // cutting the file after opening it moves them to `length`.
    out_.open(path, std::ios::binary | std::ios::app);
    std::error_code ec;
    std::filesystem::resize_file(path, length, ec);
    if (!out_.good() || ec)
        return false;
    writer_ = std::make_unique<JournalWriter>(out_, length);
#if defined(__unix__) || defined(__APPLE__)
    if (fsync) {
        // Appends flush the stream per record, so this second
        // descriptor sees every framed byte (DESIGN.md §5d).
        syncFd_ = ::open(path.c_str(), O_WRONLY);
        if (syncFd_ >= 0)
            writer_->setSyncFd(syncFd_);
    }
#else
    (void)fsync;
#endif
    return true;
}

void
JournalWriter::sync() const
{
    if (syncFd_ < 0)
        return;
    datasync(syncFd_);
    if (obs::ObsContext *o = obs::globalObs())
        o->metrics().counter("journal_fsyncs")->inc();
}

void
JournalWriter::append(const JournalRecord &record)
{
    if (closed_)
        return;
    const std::string payload = serializePayload(record);
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t crc =
        crc32(payload.data(), payload.size());
    out_->write(reinterpret_cast<const char *>(&len), sizeof(len));
    out_->write(reinterpret_cast<const char *>(&crc), sizeof(crc));
    if (tearNext_) {
        // Simulated crash mid-append: half the payload reaches the
        // stream, then the "process" is gone.
        out_->write(payload.data(),
                    static_cast<std::streamsize>(payload.size() / 2));
        out_->flush();
        closed_ = true;
        return;
    }
    out_->write(payload.data(),
                static_cast<std::streamsize>(payload.size()));
    out_->flush();
    SPECINFER_CHECK(out_->good(), "journal append failed");
    bytes_ += sizeof(len) + sizeof(crc) + payload.size();
    // Journals are created by callers that never see an ObsContext
    // (tools and tests hand the manager a bare stream), so the
    // writer reports through the process-global context when one is
    // installed.
    if (obs::ObsContext *o = obs::globalObs()) {
        o->metrics().counter("journal_appends")->inc();
        o->metrics().gauge("journal_bytes_written")
            ->set(static_cast<int64_t>(bytes_));
    }
}

JournalReader::JournalReader(std::istream &in) : in_(&in)
{
}

bool
JournalReader::next(JournalRecord &record)
{
    if (done_)
        return false;
    // Clean EOF: no more bytes at a record boundary.
    if (in_->peek() == std::char_traits<char>::eof()) {
        done_ = true;
        return false;
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    in_->read(reinterpret_cast<char *>(&len), sizeof(len));
    if (in_->gcount() != sizeof(len)) {
        done_ = tornTail_ = true;
        if (obs::ObsContext *o = obs::globalObs())
            o->metrics().counter("journal_torn_tails")->inc();
        return false;
    }
    in_->read(reinterpret_cast<char *>(&crc), sizeof(crc));
    if (in_->gcount() != sizeof(crc) || len > (1u << 28)) {
        done_ = tornTail_ = true;
        if (obs::ObsContext *o = obs::globalObs())
            o->metrics().counter("journal_torn_tails")->inc();
        return false;
    }
    std::string payload(len, '\0');
    in_->read(payload.data(), static_cast<std::streamsize>(len));
    if (static_cast<uint32_t>(in_->gcount()) != len ||
        crc32(payload.data(), payload.size()) != crc ||
        !parsePayload(payload, record)) {
        done_ = tornTail_ = true;
        if (obs::ObsContext *o = obs::globalObs())
            o->metrics().counter("journal_torn_tails")->inc();
        return false;
    }
    bytes_ += sizeof(len) + sizeof(crc) + len;
    if (obs::ObsContext *o = obs::globalObs())
        o->metrics().counter("journal_records_replayed")->inc();
    return true;
}

} // namespace runtime
} // namespace specinfer
