/**
 * @file
 * Request manager with Orca-style continuous batching (paper §5.1).
 *
 * Scheduling is at *iteration* granularity: every call to
 * runIteration() admits pending requests into the active batch (up
 * to maxBatchSize), runs one speculate+verify iteration for every
 * active request, and retires requests that finished — so new
 * requests start decoding without waiting for the current batch to
 * drain, and finished requests leave immediately.
 */

#ifndef SPECINFER_RUNTIME_REQUEST_MANAGER_H
#define SPECINFER_RUNTIME_REQUEST_MANAGER_H

#include <cstddef>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spec_engine.h"
#include "model/prefix_store.h"
#include "runtime/journal.h"
#include "runtime/kv_memory.h"
#include "runtime/request.h"

namespace specinfer {
namespace obs {
class HistogramMetric;
class ObsContext;
}
namespace runtime {

/** Batch admission policy. */
enum class SchedulingPolicy
{
    /** Orca-style continuous batching (paper §5.1): requests join
     *  and leave the batch at iteration granularity. */
    Continuous,

    /** Request-level static batching, the pre-Orca baseline: a
     *  batch is formed when the engine is idle and no request joins
     *  until the whole batch drains. */
    Static,
};

/** How KV memory is reserved for admitted requests. */
enum class KvReservationPolicy
{
    /** Reserve the worst-case footprint (prompt + full generation
     *  budget + one token tree) at admission; never preempts but
     *  wastes capacity (internal over-reservation). */
    WorstCase,

    /** Reserve blocks on demand as sequences grow (vLLM-style
     *  paging); admits more requests but may have to preempt and
     *  restart the youngest request on pool exhaustion. */
    OnDemand,
};

/** Request manager configuration. */
struct ServingConfig
{
    /** Maximum number of requests decoded concurrently. */
    size_t maxBatchSize = 8;

    /** Admission policy. */
    SchedulingPolicy policy = SchedulingPolicy::Continuous;

    /** KV memory pool size in blocks; 0 disables memory-based
     *  admission control. */
    size_t kvPoolBlocks = 0;

    /** Tokens per KV block. */
    size_t kvBlockTokens = 16;

    /** Reservation policy when a pool is configured. */
    KvReservationPolicy kvPolicy = KvReservationPolicy::WorstCase;

    /**
     * Prefix sharing: intern full prompt blocks in the KV pool so
     * requests with a common prefix (system prompt, RAG context)
     * hold one physical block many times, and adopt already-computed
     * KV rows at admission instead of re-running prefill. Purely an
     * occupancy/latency optimization — outputs stay bit-identical
     * (chunk-layout invariance). Requires a KV pool.
     */
    bool kvPrefixSharing = false;

    /**
     * Precision the serving engine's SSMs run at (raw
     * model::Precision value). Recorded in snapshots: crash recovery
     * replays the journal through the same engine the crashed
     * process used, and an SSM precision switch mid-recovery would
     * silently replay under different draft numerics. Greedy
     * verification makes final tokens independent of SSM precision,
     * but recover() still refuses the mismatch — recovery is defined
     * as reproducing the crashed process, not a near miss of it.
     */
    uint8_t ssmPrecision = 0;

    /**
     * Tensor-parallel degree the serving models run at (see
     * ModelConfig::tensorParallel), persisted into snapshots for the
     * same reason as ssmPrecision: the sharded forward is proven
     * bit-identical across degrees, but recovery is defined as
     * reproducing the crashed process's exact execution shape, so
     * recover() refuses a snapshot taken under a different degree
     * rather than relying on that proof at recovery time.
     */
    uint8_t tpDegree = 1;

    // --- Robustness / graceful-degradation knobs ------------------

    /** Bounded pending queue: submit() rejects with
     *  RejectReason::QueueFull beyond this depth (0 = unbounded). */
    size_t maxPendingRequests = 0;

    /** Deadline applied to requests submitted without one
     *  (iterations since arrival; 0 = no default deadline). */
    size_t defaultDeadlineIterations = 0;

    /** Preemption/retry budget: a request preempted more than this
     *  many times fails cleanly with StopReason::Preempted instead
     *  of retrying forever (0 = unlimited retries). */
    size_t maxPreemptions = 0;

    /** Cap on the exponential re-admission backoff applied after
     *  each preemption (iterations). */
    size_t preemptBackoffCap = 64;

    /**
     * Seed of the RNG that jitters the preemption re-admission
     * backoff. Deterministic backoff makes every preempted request
     * re-collide in lockstep (they all wait exactly 2^k and storm
     * the pool together); a seeded jitter of up to half the base
     * window de-synchronizes them while keeping every test and
     * journal replay reproducible from the seed.
     */
    uint64_t backoffJitterSeed = 0x6a177e5ULL;

    /** Disable speculation after this many consecutive iterations
     *  with an injected speculator fault (0 = never degrade). */
    size_t degradeAfterConsecutiveFaults = 3;

    /** Initial speculation-disable window (iterations); doubles on
     *  each repeated degradation up to degradeBackoffMax. */
    size_t degradeBackoffIterations = 8;

    /** Upper bound on the degradation backoff window. */
    size_t degradeBackoffMax = 256;

    /** Iteration-clock penalty applied when an injected straggler
     *  (FaultPoint::SlowIteration) fires: the clock advances this
     *  many extra ticks, consuming deadline budget. */
    size_t slowIterationPenalty = 4;

    // --- QoS / overload knobs -------------------------------------

    /**
     * Per-class token-bucket ingress, indexed by runtime::Priority.
     * A submission consumes one token from its class bucket; an
     * empty bucket is a typed RejectReason::Overloaded with a
     * retry-after hint. 0 = class unmetered (the default). Buckets
     * refill on the iteration clock, so bucket state is a pure
     * function of journaled events and recovery replays admissions
     * identically.
     */
    size_t classBucketCapacity[kPriorityCount] = {0, 0, 0};

    /** Refill cadence per class: one token every this many
     *  iterations (>= 1). */
    size_t classRefillEveryIterations[kPriorityCount] = {1, 1, 1};

    /**
     * Wall-clock deadline applied to requests submitted without one,
     * relative to the submit-time clock reading (nanoseconds on the
     * injectable obs::Clock; 0 = none). Requires an ObsContext —
     * without a clock source wall-clock deadlines are inert.
     */
    uint64_t defaultWallDeadlineNanos = 0;

    /**
     * Opt-in durability: fdatasync the journal at iteration commit
     * (and snapshot) boundaries. Without it the write-ahead journal
     * survives process crashes — the kernel page cache holds every
     * flushed byte — but not power loss (DESIGN.md §5d). Requires
     * the journal writer to carry a sync fd (JournalWriter::
     * setSyncFd); a writer without one makes this a no-op.
     */
    bool journalFsync = false;

    /** Record per-iteration batch sizes in
     *  ServingStats::batchSizeTrace. Off by default: the trace
     *  grows linearly with iterations, which long-running soaks
     *  cannot afford. */
    bool captureBatchTrace = false;

    /**
     * Observability context (non-owning). Resolved against the
     * process-global context at construction (obs::resolveObs); when
     * both are null the manager runs fully uninstrumented — no
     * clock reads, no atomics — and its outputs are bit-identical
     * to earlier PRs.
     */
    obs::ObsContext *obs = nullptr;
};

/** Aggregate serving metrics. */
struct ServingStats
{
    size_t iterations = 0;
    size_t requestsSubmitted = 0;
    size_t requestsFinished = 0;
    size_t tokensGenerated = 0;
    /** Sum over iterations of the active batch size. */
    size_t requestIterations = 0;
    /** Requests preempted and restarted due to KV pool pressure. */
    size_t preemptions = 0;
    /** Active batch size of every iteration, in order (0 = idle
     *  tick); lets callers price each iteration through a hardware
     *  model. Only recorded when ServingConfig::captureBatchTrace
     *  is set — the trace grows without bound otherwise. */
    std::vector<size_t> batchSizeTrace;

    // --- Failure / degradation observability ----------------------

    /** submit() rejections: bounded queue at capacity. */
    size_t rejectedQueueFull = 0;
    /** submit() rejections: request can never be served (pool too
     *  small or invalid prompt). */
    size_t rejectedNeverFits = 0;
    /** Accepted-then-dropped pending requests (StopReason::Shed):
     *  a preemption requeue overflowed the bounded queue. */
    size_t shedRequests = 0;
    /** Requests that failed their iteration deadline. */
    size_t deadlineExpiries = 0;
    /** Client cancellations honored. */
    size_t cancellations = 0;
    /** Decode steps degraded to incremental by an injected
     *  speculator/verifier fault. */
    size_t fallbackSteps = 0;
    /** Iterations run with speculation disabled by the degradation
     *  ladder. */
    size_t degradedIterations = 0;
    /** Re-admissions of previously preempted requests. */
    size_t preemptionRetries = 0;
    /** Requests that exhausted their preemption budget and failed
     *  with StopReason::Preempted. */
    size_t preemptionAborts = 0;
    /** Injected straggler iterations (clock jumped forward). */
    size_t slowIterations = 0;
    /** submit() rejections: class token bucket empty (overload). */
    size_t rejectedOverloaded = 0;
    /** Shed requests broken down by QoS class (indexed by
     *  runtime::Priority); sums to shedRequests. */
    size_t shedByClass[kPriorityCount] = {0, 0, 0};

    double avgBatchSize() const
    {
        return iterations == 0
                   ? 0.0
                   : static_cast<double>(requestIterations) /
                         static_cast<double>(iterations);
    }
};

/**
 * Schedules requests onto a SpecEngine with continuous batching.
 * Single-threaded by design: one manager models one serving
 * pipeline, matching the paper's per-pipeline latency experiments.
 */
class RequestManager
{
  public:
    /**
     * @param engine Non-owning engine shared by all requests.
     * @param cfg Scheduling configuration.
     */
    RequestManager(const core::SpecEngine *engine, ServingConfig cfg);

    /**
     * Submit a request.
     *
     * Never aborts on a bad or unserveable request: load shedding
     * and unsatisfiable requests come back as a typed rejection
     * (SubmitResult::reject) so clients can retry elsewhere.
     *
     * @param max_new_tokens Per-request generation budget; 0 uses
     *        the engine default.
     * @param deadline_iterations Iteration-budget deadline; 0 uses
     *        ServingConfig::defaultDeadlineIterations (which may
     *        itself be 0 = no deadline).
     * @param priority QoS class: scheduling, shedding, and
     *        preemption order (Interactive > Standard > Batch).
     * @param deadline_nanos Absolute wall-clock deadline on the
     *        manager's obs::Clock (0 applies
     *        ServingConfig::defaultWallDeadlineNanos relative to
     *        now, when a clock is available).
     */
    SubmitResult submit(std::vector<int> prompt,
                        size_t max_new_tokens = 0,
                        size_t deadline_iterations = 0,
                        Priority priority = Priority::Standard,
                        uint64_t deadline_nanos = 0);

    /**
     * Cancel a pending or active request. The request finishes
     * immediately with StopReason::Cancelled and whatever tokens it
     * had generated (a prefix of its full output).
     * @return false when the id is unknown (already finished).
     */
    bool cancel(uint64_t id);

    /** True while any request is pending or running. */
    bool busy() const;

    /**
     * One iteration-level scheduling step: admit, decode one
     * iteration for each active request, retire finished requests.
     */
    void runIteration();

    /** Drive iterations until no request is pending or running. */
    void runUntilDrained();

    size_t pendingCount() const { return pending_.size(); }
    size_t activeCount() const { return active_.size(); }
    size_t iterationCount() const { return stats_.iterations; }
    const ServingStats &stats() const { return stats_; }

    /** Speculation-health state of the degradation ladder. */
    const DegradationState &degradation() const { return degr_; }

    /**
     * Externally push the degradation ladder: disable speculation
     * for `backoff_iterations` starting now. The daemon's watchdog
     * calls this on an iteration stall — a stall is evidence the
     * speculative path is sick even when no SSM fault fired, and
     * incremental decoding is the safe gear. Extends (never
     * shortens) an active disable window.
     */
    void forceDegrade(size_t backoff_iterations);

    /** Results completed so far, in finish order. */
    const std::vector<RequestResult> &finished() const
    {
        return finished_;
    }

    /** Move out the finished results (clients draining output). */
    std::vector<RequestResult> takeFinished();

    // --- Streaming / daemon integration ---------------------------

    /**
     * Per-step token stream observer: called once per committed
     * decode step that produced tokens, with the request id, the
     * index of the first new generated token, and the new tokens
     * themselves — the hook the serving daemon streams responses
     * from. Fires only for live decode steps, never during journal
     * replay (a recovering daemon re-streams from generatedSoFar()
     * instead, which keeps the stream idempotent). Pass nullptr to
     * detach.
     */
    using StepObserver = std::function<void(
        uint64_t id, size_t start, const std::vector<int> &tokens)>;
    void setStepObserver(StepObserver observer)
    {
        stepObserver_ = std::move(observer);
    }

    /** Where a request currently lives. */
    enum class RequestPhase
    {
        Unknown,  ///< never submitted or already taken out
        Pending,  ///< queued
        Active,   ///< decoding
        Finished, ///< result available in finished()
    };
    RequestPhase phase(uint64_t id) const;

    /** Generated tokens so far for an active or finished request
     *  (empty for pending/unknown) — the resume path for clients
     *  reconnecting after a daemon restart. */
    std::vector<int> generatedSoFar(uint64_t id) const;

    /** Identity of every pending or active request (a restarting
     *  daemon re-records its recovered in-flight stream). */
    struct InflightInfo
    {
        uint64_t id = 0;
        std::vector<int> prompt;
        size_t maxNewTokens = 0;
        Priority priority = Priority::Standard;
    };
    std::vector<InflightInfo> inflight() const;

    /**
     * Sync ServingStats, queue depths, and thread-pool job counts
     * into the serving_* / pool_* gauges. Gauge-sync (rather than
     * event-time increments) keeps metrics idempotent under journal
     * replay: a recovered manager republishes the same values an
     * uninterrupted run would. Called automatically at the end of
     * every runIteration() and recover(); safe to call any time.
     * No-op without an ObsContext.
     */
    void publishMetrics();

    /** KV memory pool, or nullptr when admission is unbounded. */
    const KvBlockAllocator *kvPool() const { return kvPool_.get(); }

    /**
     * Pool-level internal fragmentation right now: the fraction of
     * physical block capacity (each shared block counted once) not
     * backed by materialized tokens. Tokens covered by a request's
     * fully-shared blocks are excluded from its private total —
     * partial-match tokens are not, since their positions live in
     * private blocks. 0 without a pool.
     */
    double kvFragmentation() const;

    /** Prefix-block payload store, or nullptr when sharing is off. */
    const model::PrefixKvStore *prefixStore() const
    {
        return prefixStore_.get();
    }

    // --- Crash safety: write-ahead journal + snapshot/recover -----

    /**
     * Attach a write-ahead journal (non-owning; nullptr detaches).
     * Once attached, every scheduling event — accepted submit,
     * iteration start, admission, committed decode step (verified
     * tokens + post-step RNG cursor), preemption, finish, committed
     * iteration — is appended before the manager moves on, and the
     * Crash fault point becomes live inside runIteration() (see
     * crashed()).
     */
    void attachJournal(JournalWriter *journal) { journal_ = journal; }

    /**
     * Serialize the full scheduling state: iteration clock, stats,
     * degradation ladder, pending queue, active requests with their
     * complete sessions (sequence, RNG, KV caches), per-request KV
     * pool holdings, and finished results. The snapshot records the
     * attached journal's absolute byte offset, so recover() replays
     * exactly the journal tail written after this snapshot.
     */
    void writeSnapshot(std::ostream &out) const;

    /**
     * writeSnapshot() into the file `path` atomically: the bytes go
     * to `path`.tmp, which is renamed over `path`. A crash
     * mid-write leaves a torn .tmp beside the previous snapshot,
     * never a torn snapshot. With ServingConfig::journalFsync the
     * .tmp and the attached journal are synced before the rename
     * and the directory after it, so a durable snapshot never
     * covers journal bytes that are not.
     */
    void saveSnapshot(const std::string &path) const;

    /**
     * Rebuild pre-crash state on a *fresh* manager (same engine and
     * config as the crashed one — the caller's responsibility):
     * load the snapshot (if any), then replay the journal tail on
     * top of it. Replay runs the live transitions (admit, finish,
     * step evidence): journaled steps are re-applied token-for-token
     * with their stored RNG cursors and their KV rows recomputed
     * eagerly, so recovered outputs are bit-identical to an
     * uninterrupted run. FCFS order, verified prefixes,
     * preemption/backoff state, and KV pool holdings are all
     * preserved; a torn tail record (crash mid-append) is
     * discarded, and the lost step simply recomputes
     * deterministically. Replay appends nothing to an attached
     * journal. A journal that breaks the emission order (a Step or
     * Preempt without its Admit, a finished session without its
     * Finish at a committed boundary) is refused.
     *
     * @param snapshot Snapshot stream, or nullptr to replay the
     *        whole journal from an empty manager.
     * @param journal Journal stream positioned at its first record,
     *        or nullptr to restore the snapshot alone. It must hold
     *        at least the bytes the snapshot covers.
     * @return Length in bytes of the valid journal prefix (skip +
     *         replayed records); callers resuming appends into the
     *         same file cut it to this length first (JournalFile).
     */
    uint64_t recover(std::istream *snapshot, std::istream *journal);

    /** True once an injected Crash fault halted runIteration();
     *  the manager must be abandoned and rebuilt via recover(). */
    bool crashed() const { return crashed_; }

  private:
    /** Worst-case cached tokens for a request over its lifetime. */
    size_t worstCaseTokens(const Request &req) const;

    /** Tokens the active reservation policy requires at admission:
     *  the full lifetime footprint under WorstCase, one iteration's
     *  worth (prompt + tree + bonus) under OnDemand. */
    size_t admissionTokens(const Request &req) const;

    static constexpr size_t kNoVictim = static_cast<size_t>(-1);

    struct ActiveRequest
    {
        Request request;
        core::SpecSession session;
        size_t startIteration;
        /** Partial-match block awaiting copy-on-write: released after
         *  the request's first step writes past the divergence
         *  point (0 = none pending). */
        uint64_t cowPending = 0;
        /** Replay bookkeeping: this request already stepped in the
         *  half-journaled iteration being resumed, so the resuming
         *  runIteration must skip it (set by Step replay, cleared at
         *  iteration commit). */
        bool steppedThisIteration = false;
    };

    /** Remove and return pending_[index]. */
    Request takePending(size_t index);

    /**
     * Move a request into a batch slot: build its session, admit its
     * KV holding (shared chain + private blocks, the caller having
     * checked canAdmit), declare the matched prefix blocks, and
     * (live only) adopt their payloads, end its queue span and
     * journal the Admit with the post-admission KV residency. Live admission and Admit replay both come
     * through here.
     */
    ActiveRequest &admit(Request &&req);

    /**
     * Retire a request with its terminal result: tokens and stats
     * from `session` when it ran, the stop-reason counters, the KV
     * release, then the trace instant and Finish record (live only).
     * Every live retirement and Finish replay come through here.
     */
    void finish(Request &&req, const core::SpecSession *session,
                size_t start_iteration, size_t finish_iteration,
                core::SpecSession::StopReason reason);

    /** finish() pending_[index], which never ran. */
    void finishPending(size_t index,
                       core::SpecSession::StopReason reason);

    /** finish() active_[index] now and free its slot. */
    void finishActive(size_t index,
                      core::SpecSession::StopReason reason);

    /** Release the request's KV holding, if it has one. */
    void releaseKv(uint64_t id);

    /** Count one committed step toward the iteration's evidence
     *  (requestIterations, spec-ran/fault-seen, fallbackSteps);
     *  the live loop and Step replay both call it. */
    void noteStep(const core::StepRecord &step);

    /** Release a pending copy-on-write reference after the
     *  request's first step wrote past its divergence point. */
    void settleCow(ActiveRequest &ar);

    /**
     * Preempt an active request to free memory for `requester`.
     * Victim order: lowest QoS class first (Batch before Standard
     * before Interactive), latest arrival within a class. A
     * requester may only steal from a strictly lower class, or from
     * a strictly later arrival in its own class — a total order on
     * (class, id) that keeps preemption livelock-free, exactly as
     * the plain FCFS id order did before classes existed. Releases
     * the victim's memory and requeues it for a fresh start — or,
     * when the victim's preemption budget is exhausted, fails it
     * with StopReason::Preempted.
     * @return the erased index, or kNoVictim if none.
     */
    size_t preemptLowestClass(uint64_t requester_id,
                              Priority requester_priority);

    /** Reserve KV blocks, consulting the KvAlloc fault point; an
     *  injected failure is indistinguishable from pool pressure. */
    bool tryReserve(uint64_t id, size_t tokens);

    /** Jittered exponential re-admission backoff for the given
     *  preemption count: base 2^count capped at preemptBackoffCap,
     *  plus a seeded uniform jitter in [0, base/2]. Consumes one
     *  draw from backoffRng_ (replay consumes the same draw). */
    size_t jitteredBackoff(size_t preemption_count);

    /** Release a preempted request's KV and requeue it with
     *  exponential backoff, or fail it cleanly when its retry budget
     *  is exhausted; sheds the newest pending request if the requeue
     *  overflows a bounded queue. */
    void requeuePreempted(Request &&req,
                          const core::SpecSession *session);

    /** Fail pending requests whose deadline (iteration budget or
     *  wall clock) already expired. */
    void expirePendingDeadlines();

    /** True when the request's iteration-budget or wall-clock
     *  deadline has passed (wall clock read once per iteration
     *  into nowNanos_). */
    bool deadlineExpired(const Request &req) const;

    /** Refill the class bucket up to the current iteration (lazy,
     *  idempotent: advances in whole refill periods only). */
    void refillBucket(size_t cls);

    /** Check the class has an ingress token; on an empty bucket
     *  returns false with the iterations until the next token in
     *  `retry_after`. Unmetered classes always admit. Does not
     *  consume — only accepted (journaled) submits mutate bucket
     *  state, or replay would diverge. */
    bool bucketAdmit(Priority priority, uint64_t &retry_after);

    /** Consume one ingress token (accepted submit, live or
     *  replayed). */
    void consumeBucketToken(Priority priority);

    /** Queue an accepted request: its ingress token, the id
     *  cursor, and (live only) its Submit record. submit() and
     *  Submit replay both come through here. */
    void accept(Request &&req);

    /** Shed victim among pending_: lowest class first, latest
     *  arrival within a class; pending_.size() when none. */
    size_t shedVictimIndex() const;

    /** Feed the iteration's step evidence to the degradation
     *  ladder, consuming it. */
    void updateDegradation();

    /** Journal one committed decode step of active_[index] (the
     *  tokens/log-probs appended beyond the given pre-step sizes). */
    void journalStep(size_t index, size_t seq_before,
                     size_t log_probs_before);

    /** Journal the end-of-iteration commit (clock + degradation). */
    void journalIteration(bool degraded, bool slow);

    /** Journal the start of an iteration (index + wall-clock read;
     *  see RecordType::Begin). */
    void journalBegin();

    /** Apply one replayed journal record (recover() body). */
    void applyRecord(const JournalRecord &rec);

    /** Record an injected crash: serving_crashes counter plus a
     *  scheduler-track instant annotation. */
    void noteCrash();

    const core::SpecEngine *engine_;
    ServingConfig cfg_;
    obs::ObsContext *obs_;             ///< resolved; may be null
    obs::HistogramMetric *hIterMillis_ = nullptr;
    /** Shared-pool job count at construction; pool_jobs_dispatched
     *  publishes the delta (jobs during this serving run). */
    uint64_t poolJobsBaseline_ = 0;
    uint64_t nextId_ = 1;
    std::deque<Request> pending_;
    std::vector<ActiveRequest> active_;
    std::vector<RequestResult> finished_;
    ServingStats stats_;
    DegradationState degr_;
    std::unique_ptr<KvBlockAllocator> kvPool_;
    /** Payload rows for shared prefix blocks (see model/
     *  prefix_store.h); non-null iff pool + kvPrefixSharing. */
    std::unique_ptr<model::PrefixKvStore> prefixStore_;
    JournalWriter *journal_ = nullptr;
    bool crashed_ = false;
    StepObserver stepObserver_;
    /** Preemption-backoff jitter source; state is snapshotted and
     *  replay re-draws, so recovery stays bit-identical. */
    util::Rng backoffRng_;
    /** Per-class ingress token buckets (see classBucketCapacity).
     *  Snapshotted; replayed Submits re-consume, so recovery sees
     *  the same admission decisions. */
    uint64_t bucketLevel_[kPriorityCount] = {0, 0, 0};
    uint64_t bucketRefillIteration_[kPriorityCount] = {0, 0, 0};
    /** Wall-clock reading cached once per iteration (and at
     *  submit); all wall-deadline decisions compare against this,
     *  never a fresh read, so a ManualClock drives them exactly. */
    uint64_t nowNanos_ = 0;
    /**
     * Recovery replayed a Begin record without its matching
     * Iteration commit: the crash landed mid-iteration. The next
     * runIteration *resumes* that iteration — it reuses the
     * journaled nowNanos_ instead of reading the clock, skips
     * admission (Admit replay already rebuilt the batch), and skips
     * sessions whose Step records were replayed — so deadline
     * decisions land at exactly the same session progress as the
     * uninterrupted run.
     */
    bool resumeIteration_ = false;
    /** Step evidence of the current iteration (noteStep), live or
     *  replayed, consumed at its commit — so a resumed iteration
     *  feeds updateDegradation the signals the crashed process saw. */
    bool iterSpecRan_ = false;
    bool iterFaultSeen_ = false;
    /** Inside recover()'s journal replay: accept(), admit() and
     *  finish() neither trace nor journal. */
    bool replaying_ = false;
};

} // namespace runtime
} // namespace specinfer

#endif // SPECINFER_RUNTIME_REQUEST_MANAGER_H
