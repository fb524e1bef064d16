/**
 * @file
 * Write-ahead token journal for crash-safe serving.
 *
 * The RequestManager appends one record per scheduling event —
 * request accepted, one decode step committed (with the verified
 * tokens and the post-step sampler/RNG cursor), request preempted,
 * request finished, iteration committed — so that a crash at any
 * point loses at most the record being written. Recovery loads the
 * most recent snapshot and replays the journal tail on top of it
 * (RequestManager::recover), reconstructing the exact pre-crash
 * scheduling state through the same transition functions the live
 * scheduler runs.
 *
 * On-disk format: a bare stream of records, each framed as
 *
 *   u32 payloadLength | u32 crc32(payload) | payload bytes
 *
 * little-endian, no file header. The reader is truncation-tolerant
 * by design: a torn tail (short header, short payload, or CRC
 * mismatch — what a crash mid-append leaves behind) terminates the
 * stream cleanly at the last fully valid record, and
 * bytesConsumed() reports the valid prefix length so the caller can
 * cut the file there before resuming appends.
 *
 * One file holds the journal for the whole life of its path: a
 * recovering process cuts only the torn tail and appends after it
 * (JournalFile), so offsets — the one a snapshot records included —
 * are absolute file offsets, and the file replayed from byte 0
 * rebuilds every request any generation served.
 *
 * Records deliberately carry *events*, not state: a Step record
 * holds the tokens the verifier committed and the RNG cursor after
 * the step, never model activations or KV rows. This keeps the
 * journal tiny (the snapshot holds the bulky state); replay runs
 * no speculation, only the KV redo of the rows each step left
 * resident.
 */

#ifndef SPECINFER_RUNTIME_JOURNAL_H
#define SPECINFER_RUNTIME_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/spec_engine.h"
#include "util/rng.h"

namespace specinfer {
namespace runtime {

/** CRC-32 (IEEE 802.3 polynomial) over a byte range. */
uint32_t crc32(const void *data, size_t size);

/**
 * Speculation-health state for the degradation ladder: repeated
 * consecutive SSM faults disable speculation for a backoff window
 * (doubling on each repeat); every iteration then decodes
 * incrementally — slower, never wrong. A fault-free stretch of the
 * same length resets the backoff to its initial value.
 */
struct DegradationState
{
    /** Speculation currently disabled (engine steps run with
     *  allow_speculation = false). */
    bool speculationDisabled = false;
    /** Consecutive speculation-enabled iterations with a fault. */
    size_t consecutiveFaults = 0;
    /** Consecutive speculation-enabled iterations without one. */
    size_t cleanIterations = 0;
    /** Current disable window; doubles each repeated degradation. */
    size_t currentBackoff = 0;
    /** Iteration at which speculation re-enables. */
    size_t reenableIteration = 0;
    /** Times the ladder has disabled speculation. */
    size_t disableEpisodes = 0;
};

/**
 * DegradationState's one wire form, shared by snapshots and
 * Iteration records: the disabled flag as a byte, then the five
 * counters as u64. `put(v)` writes one POD; `get(T{})` reads one of
 * type T, so each stream keeps its own error policy.
 */
template <typename Put>
void
writeDegradation(const DegradationState &d, Put &&put)
{
    put(uint8_t{d.speculationDisabled});
    for (size_t v : {d.consecutiveFaults, d.cleanIterations,
                     d.currentBackoff, d.reenableIteration,
                     d.disableEpisodes})
        put(uint64_t{v});
}

template <typename Get>
DegradationState
readDegradation(Get &&get)
{
    DegradationState d;
    d.speculationDisabled = get(uint8_t{}) != 0;
    for (size_t *v : {&d.consecutiveFaults, &d.cleanIterations,
                      &d.currentBackoff, &d.reenableIteration,
                      &d.disableEpisodes})
        *v = get(uint64_t{});
    return d;
}

/** Journal record kinds, in the order the manager emits them. */
enum class RecordType : uint8_t
{
    /** A request was accepted into the pending queue. */
    Submit = 1,
    /** One decode step committed for an active request. */
    Step = 2,
    /** An active request was preempted and requeued. */
    Preempt = 3,
    /** A request finished (normally or aborted). */
    Finish = 4,
    /** One scheduling iteration committed (clock + degradation). */
    Iteration = 5,
    /**
     * An iteration began: the iteration index and the wall-clock
     * reading every deadline decision inside it will use. Written
     * before any step, so a crash anywhere inside the iteration
     * leaves recovery the exact timestamp needed to *resume* the
     * half-journaled iteration (skipping already-replayed steps)
     * instead of re-running it one clock tick out of phase —
     * without this, wall-clock deadline expiries could land one
     * step off after a mid-iteration crash.
     */
    Begin = 6,
    /**
     * A pending request was admitted into a batch slot. Replay
     * re-admits exactly the crashed process's batch, so resuming a
     * half-journaled iteration never admits into slots that only
     * freed up mid-iteration (which would let a request start one
     * clock tick earlier than the uninterrupted run).
     */
    Admit = 7,
    /**
     * An active request's KV holding changed before its step: its
     * on-demand growth, its copy-on-write release, or both. Written
     * in the serial pre-phase of an iteration, between that phase's
     * Preempt and Finish records, because a growth may evict
     * zero-ref prefix blocks: replay must grow and release in the
     * live order to rebuild the same prefix cache.
     */
    Reserve = 8,
};

/** Printable record type name (logs and tests). */
const char *recordTypeName(RecordType type);

/**
 * One journal record. A flat union-of-fields struct: `type` selects
 * which fields are meaningful (listed per type below); the rest stay
 * default-initialized and are not serialized.
 */
struct JournalRecord
{
    RecordType type = RecordType::Submit;

    /** Request id (all types except Iteration and Begin). */
    uint64_t id = 0;

    // --- Submit ---------------------------------------------------
    uint64_t arrivalIteration = 0;
    uint64_t maxNewTokens = 0;
    uint64_t deadlineIterations = 0;
    /** Absolute wall-clock deadline in obs::Clock nanos (0 = none). */
    uint64_t deadlineNanos = 0;
    /** runtime::Priority, flattened. */
    uint8_t priority = 1;
    std::vector<int> prompt;

    // --- Step -----------------------------------------------------
    /** Tokens the verifier committed this step (possibly empty for
     *  a chunked-prefill iteration). */
    std::vector<int> tokens;
    std::vector<float> logProbs;
    core::StepRecord step;
    /** Sampler/RNG cursor *after* the step — replay jumps straight
     *  to it instead of recomputing the step. */
    util::RngState rngAfter;
    bool sessionDone = false;
    /** core::SpecSession::StopReason (Step and Finish). */
    uint8_t stopReason = 0;

    // --- Preempt --------------------------------------------------
    uint64_t preemptionCount = 0;
    uint64_t earliestRestart = 0;

    // --- Finish (tokens/stats are rebuilt from replayed Steps) ----
    uint64_t startIteration = 0;
    uint64_t finishIteration = 0;
    uint64_t preemptions = 0;

    // --- Iteration / Begin ----------------------------------------
    /** Manager iteration clock after the iteration committed
     *  (Iteration) or when it began (Begin). */
    uint64_t iteration = 0;
    /** Wall-clock reading (obs::Clock nanos) the iteration's
     *  deadline checks use (Begin). */
    uint64_t iterNanos = 0;
    /** KV rows resident right after admission — the prefix-store
     *  adoption level (Admit). The crashed process's store was warm
     *  with blocks a cold recovering store cannot adopt; replay
     *  re-hydrates to this level so the recovered session spends
     *  exactly as many prefill iterations as the live one did. */
    uint64_t adoptedTokens = 0;
    /** This iteration ran with speculation disabled. */
    uint8_t iterDegraded = 0;
    /** An injected straggler advanced the clock this iteration. */
    uint8_t iterSlow = 0;
    /** Degradation ladder after the iteration (Iteration). */
    DegradationState degradation;
};

/**
 * Appends CRC-framed records to a stream. Not thread-safe: the
 * RequestManager journals from its single scheduling thread.
 */
class JournalWriter
{
  public:
    /** @param out Destination stream (non-owning; must outlive the
     *         writer). Appends start at the current position.
     *  @param offset Journal bytes already before that position:
     *         the valid length of the file being appended to. */
    explicit JournalWriter(std::ostream &out, uint64_t offset = 0);

    /** Append one record (no-op once closed()). */
    void append(const JournalRecord &record);

    /** Absolute journal offset after the last fully written record
     *  (excludes a torn tail); snapshots record it. */
    uint64_t bytesWritten() const { return bytes_; }

    /**
     * Crash-simulation hook: the next append() writes the frame
     * header but only about half of the payload, then closes the
     * writer — exactly the torn record a process crash mid-append
     * leaves on disk. Subsequent appends are dropped.
     */
    void tearNextAppend() { tearNext_ = true; }

    /** True once a torn append has been simulated. */
    bool closed() const { return closed_; }

    /**
     * Durability hook (opt-in, see ServingConfig::journalFsync):
     * hand the writer a file descriptor open on the same file as
     * the output stream; sync() then issues fdatasync on it. The
     * stream is flushed per append, so the descriptor sees every
     * framed byte; without this the journal survives process
     * crashes (the kernel holds the pages) but not power loss.
     */
    void setSyncFd(int fd) { syncFd_ = fd; }

    /** fdatasync the journal file (no-op without setSyncFd). */
    void sync() const;

  private:
    std::ostream *out_;
    uint64_t bytes_ = 0;
    bool tearNext_ = false;
    bool closed_ = false;
    int syncFd_ = -1;
};

/** fdatasync the file or directory at `path`, as JournalWriter::
 *  sync does the journal (best effort: an unopenable path is
 *  skipped). */
void syncFile(const std::string &path);

/**
 * A journal file open for appends: the stream, its writer, and,
 * with durability on, the descriptor JournalWriter::sync() uses.
 * Fresh and recovering starts open it the same way, at different
 * lengths.
 */
class JournalFile
{
  public:
    JournalFile() = default;
    ~JournalFile();
    JournalFile(const JournalFile &) = delete;
    JournalFile &operator=(const JournalFile &) = delete;

    /**
     * Cut the file at `path` to `length` bytes (creating it when
     * missing) and append from there. Length 0 starts a fresh
     * journal; the valid length recover() returned drops only a
     * torn tail and keeps every record before it.
     * @param fsync Arm JournalWriter::sync() (ServingConfig::
     *        journalFsync).
     * @return false when the file cannot be opened for writing.
     */
    bool open(const std::string &path, uint64_t length, bool fsync);

    JournalWriter &writer() { return *writer_; }

  private:
    std::ofstream out_;
    std::unique_ptr<JournalWriter> writer_;
    int syncFd_ = -1;
};

/**
 * Truncation-tolerant journal reader: yields records until clean
 * EOF or the first damaged frame (short header, short payload, CRC
 * mismatch, or unparseable payload), which it treats as the torn
 * tail of a crash — never an error.
 */
class JournalReader
{
  public:
    /** @param in Source stream (non-owning), positioned at the
     *         first record to read. */
    explicit JournalReader(std::istream &in);

    /** Read the next record into `record`.
     *  @return false at clean EOF or at a damaged tail (check
     *          tornTail() to distinguish). */
    bool next(JournalRecord &record);

    /** True when reading stopped at a damaged frame rather than
     *  clean EOF. */
    bool tornTail() const { return tornTail_; }

    /** Bytes of valid records consumed so far — the length callers
     *  should truncate a torn journal to before appending again. */
    uint64_t bytesConsumed() const { return bytes_; }

  private:
    std::istream *in_;
    uint64_t bytes_ = 0;
    bool tornTail_ = false;
    bool done_ = false;
};

} // namespace runtime
} // namespace specinfer

#endif // SPECINFER_RUNTIME_JOURNAL_H
