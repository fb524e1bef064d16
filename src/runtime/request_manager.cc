#include "runtime/request_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "model/serialization.h"
#include "obs/obs.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace specinfer {
namespace runtime {

namespace {

// Serving-snapshot framing (version 1). The snapshot holds the
// sessions' decisions (tokens, RNG cursors, step records, cache
// lengths) plus scheduler bookkeeping; the journal holds only
// per-event records.
constexpr char kSnapMagic[4] = {'S', 'P', 'S', 'N'};
// v2: resident shared-block intern table + per-request shared
// holdings (prefix sharing).
// v4: SSM precision byte, so recovery replays the journal under the
// same draft-model numerics the crashed process ran.
// v5: QoS — per-request priority class + wall-clock deadline,
// per-class ingress bucket state, overload/shed-by-class stats.
// v6: resumable iterations (resume state; removed in v9).
// v7: tensor-parallel degree byte, so recovery replays the journal
// under the same sharded execution shape the crashed process ran
// (logits are bit-identical across TP degrees, but recovery is
// defined as reproducing the crashed process exactly).
// v8: sessions carry cache lengths instead of KV rows (session v2);
// recovery re-derives the rows.
// v9: no resume state and no batch-size trace: recovery replays
// committed iterations only, so a snapshot is always taken between
// iterations.
constexpr uint32_t kSnapVersion = 9;

using model::io::readPod;
using model::io::readPodVector;
using model::io::writePod;
using model::io::writePodVector;

Priority
readPriority(std::istream &in)
{
    const uint8_t raw = readPod<uint8_t>(in);
    SPECINFER_CHECK(raw < kPriorityCount,
                    "snapshot priority class " << unsigned{raw}
                                               << " out of range");
    return static_cast<Priority>(raw);
}

void
writeRequest(std::ostream &out, const Request &req)
{
    writePod<uint64_t>(out, req.id);
    writePodVector<int>(out, req.prompt);
    writePod<uint64_t>(out, req.arrivalIteration);
    writePod<uint64_t>(out, req.maxNewTokens);
    writePod<uint64_t>(out, req.deadlineIterations);
    writePod<uint64_t>(out, req.deadlineNanos);
    writePod<uint8_t>(out, static_cast<uint8_t>(req.priority));
    writePod<uint64_t>(out, req.preemptionCount);
    writePod<uint64_t>(out, req.earliestRestart);
}

Request
readRequest(std::istream &in)
{
    Request req;
    req.id = readPod<uint64_t>(in);
    req.prompt = readPodVector<int>(in);
    req.arrivalIteration = readPod<uint64_t>(in);
    req.maxNewTokens = readPod<uint64_t>(in);
    req.deadlineIterations = readPod<uint64_t>(in);
    req.deadlineNanos = readPod<uint64_t>(in);
    req.priority = readPriority(in);
    req.preemptionCount = readPod<uint64_t>(in);
    req.earliestRestart = readPod<uint64_t>(in);
    return req;
}

void
writeResult(std::ostream &out, const RequestResult &res)
{
    writePod<uint64_t>(out, res.id);
    writePodVector<int>(out, res.tokens);
    writePod<uint64_t>(out, res.stats.steps.size());
    for (const core::StepRecord &s : res.stats.steps)
        core::writeStepRecord(out, s);
    writePod<uint8_t>(out, static_cast<uint8_t>(res.stopReason));
    writePod<uint64_t>(out, res.arrivalIteration);
    writePod<uint64_t>(out, res.startIteration);
    writePod<uint64_t>(out, res.finishIteration);
    writePod<uint64_t>(out, res.preemptions);
    writePod<uint8_t>(out, static_cast<uint8_t>(res.priority));
}

/**
 * Every ServingStats counter with its serving_* gauge name, in
 * snapshot order: the one list that writeSnapshot, recover and
 * publishMetrics walk.
 */
template <typename Stats, typename Fn>
void
forEachStat(Stats &s, Fn &&fn)
{
    fn("serving_iterations", s.iterations);
    fn("serving_requests_submitted", s.requestsSubmitted);
    fn("serving_requests_finished", s.requestsFinished);
    fn("serving_tokens_generated", s.tokensGenerated);
    fn("serving_request_iterations", s.requestIterations);
    fn("serving_preemptions", s.preemptions);
    fn("serving_rejected_queue_full", s.rejectedQueueFull);
    fn("serving_rejected_never_fits", s.rejectedNeverFits);
    fn("serving_shed_requests", s.shedRequests);
    fn("serving_deadline_expiries", s.deadlineExpiries);
    fn("serving_cancellations", s.cancellations);
    fn("serving_fallback_steps", s.fallbackSteps);
    fn("serving_degraded_iterations", s.degradedIterations);
    fn("serving_preemption_retries", s.preemptionRetries);
    fn("serving_preemption_aborts", s.preemptionAborts);
    fn("serving_slow_iterations", s.slowIterations);
    fn("serving_rejected_overloaded", s.rejectedOverloaded);
    fn("serving_shed_by_class_interactive", s.shedByClass[0]);
    fn("serving_shed_by_class_standard", s.shedByClass[1]);
    fn("serving_shed_by_class_batch", s.shedByClass[2]);
}

RequestResult
readResult(std::istream &in)
{
    RequestResult res;
    res.id = readPod<uint64_t>(in);
    res.tokens = readPodVector<int>(in);
    uint64_t n_steps = readPod<uint64_t>(in);
    SPECINFER_CHECK(n_steps < (1ull << 32),
                    "implausible snapshot step count");
    res.stats.steps.reserve(n_steps);
    for (uint64_t i = 0; i < n_steps; ++i)
        res.stats.steps.push_back(core::readStepRecord(in));
    res.stopReason = static_cast<core::SpecSession::StopReason>(
        readPod<uint8_t>(in));
    res.arrivalIteration = readPod<uint64_t>(in);
    res.startIteration = readPod<uint64_t>(in);
    res.finishIteration = readPod<uint64_t>(in);
    res.preemptions = readPod<uint64_t>(in);
    res.priority = readPriority(in);
    return res;
}

/**
 * Re-derive the payload rows of the snapshot's `filled` prefix blocks
 * (already declared in `store`): hydrate a scratch session over each
 * block's chain tokens, whose publish fills every declared block on
 * the chain. That is exact because filled blocks form prefix-closed
 * chains (a session fills every declared block it holds, and a
 * declaration covers a whole matched chain), and a valid snapshot
 * never holds a block without its ancestors (eviction is deepest
 * first and a holder references whole chains). Deepest first, so one
 * forward fills each chain.
 */
void
refillPrefixStore(const core::SpecEngine &engine,
                  const KvBlockAllocator &pool,
                  std::vector<uint64_t> filled,
                  model::PrefixKvStore &store)
{
    auto block = [&pool](uint64_t hash)
        -> const KvBlockAllocator::SharedBlock & {
        auto it = pool.sharedTable().find(hash);
        SPECINFER_CHECK(it != pool.sharedTable().end(),
                        "snapshot prefix chain misses a block");
        return it->second;
    };
    std::sort(filled.begin(), filled.end(),
              [&block](uint64_t a, uint64_t b) {
                  return block(a).depth > block(b).depth;
              });
    for (uint64_t hash : filled) {
        if (store.filled(hash))
            continue;
        std::vector<int> tokens;
        size_t blocks = 0;
        for (uint64_t h = hash; h != util::kHashChainSeed;
             h = block(h).parent) {
            SPECINFER_CHECK(blocks++ <= block(hash).depth,
                            "corrupt snapshot prefix chain");
            tokens.insert(tokens.begin(), block(h).tokens.begin(),
                          block(h).tokens.end());
        }
        core::SpecSession session = engine.makeSession(tokens);
        session.enablePrefixSharing(&store);
        session.hydrateKv(tokens.size(), 0);
        SPECINFER_CHECK(store.filled(hash),
                        "snapshot prefix chain does not hash to its "
                        "block");
    }
}

} // namespace

RequestManager::RequestManager(const core::SpecEngine *engine,
                               ServingConfig cfg)
    : engine_(engine), cfg_(cfg), obs_(obs::resolveObs(cfg.obs)),
      backoffRng_(cfg.backoffJitterSeed)
{
    SPECINFER_CHECK(engine_ != nullptr, "null engine");
    SPECINFER_CHECK(cfg_.maxBatchSize > 0, "batch size must be >= 1");
    if (cfg_.kvPoolBlocks > 0)
        kvPool_ = std::make_unique<KvBlockAllocator>(
            cfg_.kvPoolBlocks, cfg_.kvBlockTokens, obs_);
    if (kvPool_ && cfg_.kvPrefixSharing) {
        const model::ModelConfig &mc = engine_->llm().config();
        prefixStore_ = std::make_unique<model::PrefixKvStore>(
            mc.nLayers, mc.dModel, cfg_.kvBlockTokens);
        // Accounting eviction drops the payload too — residency in
        // the store never outlives residency in the block table.
        kvPool_->setEvictionHook([this](uint64_t hash) {
            prefixStore_->evict(hash);
        });
    }
    if (obs_ != nullptr)
        // Millisecond buckets spanning sub-kernel ticks (ManualClock
        // tests) through multi-second straggler iterations.
        hIterMillis_ = obs_->metrics().histogram(
            "serving_iteration_millis",
            {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
             500.0, 1000.0});
    // Baseline for pool_jobs_dispatched: the shared pool predates
    // the manager (and outlives it), so publish jobs dispatched
    // *during this serving run* rather than process lifetime —
    // keeping the gauge reproducible for identical workloads.
    poolJobsBaseline_ = util::ThreadPool::global().jobsDispatched();
    for (size_t cls = 0; cls < kPriorityCount; ++cls) {
        SPECINFER_CHECK(cfg_.classRefillEveryIterations[cls] > 0,
                        "class refill period must be >= 1");
        bucketLevel_[cls] = cfg_.classBucketCapacity[cls];
    }
}

void
RequestManager::refillBucket(size_t cls)
{
    const uint64_t every = cfg_.classRefillEveryIterations[cls];
    const uint64_t elapsed =
        stats_.iterations - bucketRefillIteration_[cls];
    const uint64_t periods = elapsed / every;
    if (periods == 0)
        return;
    bucketLevel_[cls] =
        std::min<uint64_t>(bucketLevel_[cls] + periods,
                           cfg_.classBucketCapacity[cls]);
    // Advance by whole periods only, so chunked refills compose to
    // exactly the single-shot refill (replay at arbitrary points
    // lands on the same level).
    bucketRefillIteration_[cls] += periods * every;
}

bool
RequestManager::bucketAdmit(Priority priority, uint64_t &retry_after)
{
    const size_t cls = static_cast<size_t>(priority);
    if (cfg_.classBucketCapacity[cls] == 0)
        return true; // unmetered class
    refillBucket(cls);
    if (bucketLevel_[cls] == 0) {
        const uint64_t every = cfg_.classRefillEveryIterations[cls];
        retry_after = bucketRefillIteration_[cls] + every -
                      stats_.iterations;
        return false;
    }
    return true;
}

void
RequestManager::consumeBucketToken(Priority priority)
{
    const size_t cls = static_cast<size_t>(priority);
    if (cfg_.classBucketCapacity[cls] == 0)
        return;
    refillBucket(cls);
    if (bucketLevel_[cls] > 0)
        --bucketLevel_[cls];
}

size_t
RequestManager::shedVictimIndex() const
{
    // Lowest class first (Batch before Standard before
    // Interactive), latest arrival within a class: an Interactive
    // request is never shed while any Batch request remains.
    size_t victim = pending_.size();
    for (size_t j = 0; j < pending_.size(); ++j) {
        if (victim == pending_.size() ||
            pending_[j].priority > pending_[victim].priority ||
            (pending_[j].priority == pending_[victim].priority &&
             pending_[j].id > pending_[victim].id))
            victim = j;
    }
    return victim;
}

SubmitResult
RequestManager::submit(std::vector<int> prompt,
                       size_t max_new_tokens,
                       size_t deadline_iterations,
                       Priority priority,
                       uint64_t deadline_nanos)
{
    SubmitResult out;
    // Unserveable requests are typed rejections, not aborts: an
    // overloaded or misused serving pipeline must shed, never die.
    if (prompt.empty() ||
        prompt.size() + 2 >= engine_->llm().config().maxSeqLen) {
        out.reject = RejectReason::InvalidPrompt;
        ++stats_.rejectedNeverFits;
        return out;
    }
    // Per-class ingress metering: an empty bucket is overload for
    // this class specifically — other classes keep their own
    // budget, so a Batch burst cannot drain Interactive ingress.
    // The token is only *consumed* at acceptance below: rejected
    // submits are not journaled, so they must not mutate bucket
    // state replay cannot reconstruct.
    if (!bucketAdmit(priority, out.retryAfterIterations)) {
        out.reject = RejectReason::Overloaded;
        ++stats_.rejectedOverloaded;
        return out;
    }
    Request req;
    req.prompt = std::move(prompt);
    req.maxNewTokens = max_new_tokens;
    // Consistent with the active policy: OnDemand admits with
    // one iteration's footprint, so judge feasibility by that,
    // not the worst case — under prefix sharing this is what
    // keeps a request with a large shared prefix and a small
    // unique suffix serveable. No resident-prefix credit
    // beyond that: a sequence of T tokens needs ceil(T/block)
    // *distinct* resident blocks no matter how many holders
    // share them, so anything past totalBlocks() can never be
    // admitted and crediting it would strand it in pending.
    const bool never_fits =
        kvPool_ != nullptr &&
        kvPool_->blocksFor(admissionTokens(req)) >
            kvPool_->totalBlocks();
    if (cfg_.maxPendingRequests > 0 &&
        pending_.size() >= cfg_.maxPendingRequests) {
        // Shed-under-pressure: a full queue yields to a
        // higher-class arrival by shedding the lowest-class
        // (latest-arrival) pending request; equal-or-higher-class
        // arrivals (and unserveable ones — no point displacing a
        // viable request for them) are rejected as before.
        const size_t victim = shedVictimIndex();
        if (never_fits || victim == pending_.size() ||
            pending_[victim].priority <= priority) {
            out.reject = RejectReason::QueueFull;
            ++stats_.rejectedQueueFull;
            return out;
        }
        finishPending(victim, core::SpecSession::StopReason::Shed);
    }
    if (never_fits) {
        out.reject = RejectReason::NeverFits;
        ++stats_.rejectedNeverFits;
        return out;
    }
    req.arrivalIteration = stats_.iterations;
    req.priority = priority;
    req.deadlineIterations = deadline_iterations > 0
                                 ? deadline_iterations
                                 : cfg_.defaultDeadlineIterations;
    req.deadlineNanos = deadline_nanos;
    if (req.deadlineNanos == 0 &&
        cfg_.defaultWallDeadlineNanos > 0 && obs_ != nullptr)
        req.deadlineNanos =
            obs_->nowNanos() + cfg_.defaultWallDeadlineNanos;
    req.id = nextId_;
    out.id = req.id;
    if (obs_ != nullptr && obs_->tracer().enabled()) {
        req.submitNanos = obs_->nowNanos();
        obs_->tracer().instant(
            req.id, "serving", "submit", req.submitNanos,
            {{"prompt_tokens",
              static_cast<int64_t>(req.prompt.size())}});
    }
    accept(std::move(req));
    return out;
}

void
RequestManager::accept(Request &&req)
{
    // Journaled Submits are exactly the accepted ones, so replay
    // re-consumes the same ingress token the live submit did (the
    // iteration clock is replay-aligned, so the lazy refill lands
    // on the same level too).
    consumeBucketToken(req.priority);
    nextId_ = std::max(nextId_, req.id + 1);
    if (journal_ && !replaying_) {
        JournalRecord rec;
        rec.type = RecordType::Submit;
        rec.id = req.id;
        rec.arrivalIteration = req.arrivalIteration;
        rec.maxNewTokens = req.maxNewTokens;
        rec.deadlineIterations = req.deadlineIterations;
        rec.deadlineNanos = req.deadlineNanos;
        rec.priority = static_cast<uint8_t>(req.priority);
        rec.prompt = req.prompt;
        journal_->append(rec);
    }
    pending_.push_back(std::move(req));
    ++stats_.requestsSubmitted;
}

bool
RequestManager::busy() const
{
    return !pending_.empty() || !active_.empty();
}

double
RequestManager::kvFragmentation() const
{
    if (kvPool_ == nullptr)
        return 0.0;
    const size_t bt = cfg_.kvBlockTokens;
    size_t actual_private = 0;
    for (const ActiveRequest &ar : active_) {
        const size_t total = ar.session.sequence().size();
        const size_t shared =
            kvPool_->requestSharedHashes(ar.request.id).size() * bt;
        actual_private += total > shared ? total - shared : 0;
    }
    return kvPool_->fragmentation(actual_private);
}

size_t
RequestManager::worstCaseTokens(const Request &req) const
{
    const size_t budget = req.maxNewTokens > 0
                              ? req.maxNewTokens
                              : engine_->config().maxNewTokens;
    return req.prompt.size() + budget + engine_->treeBudget() + 2;
}

size_t
RequestManager::admissionTokens(const Request &req) const
{
    return cfg_.kvPolicy == KvReservationPolicy::WorstCase
               ? worstCaseTokens(req)
               : req.prompt.size() + engine_->treeBudget() + 2;
}

Request
RequestManager::takePending(size_t index)
{
    Request req = std::move(pending_[index]);
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(index));
    return req;
}

RequestManager::ActiveRequest &
RequestManager::admit(Request &&req)
{
    if (!replaying_ && obs_ != nullptr && obs_->tracer().enabled() &&
        req.submitNanos != 0)
        // Queue wait ends at admission; re-admissions after a
        // preemption produce a second queue span.
        obs_->tracer().span(
            req.id, "serving", "queue", req.submitNanos,
            obs_->nowNanos(),
            {{"preemptions",
              static_cast<int64_t>(req.preemptionCount)}});
    if (req.preemptionCount > 0)
        ++stats_.preemptionRetries;
    core::SpecSession session =
        engine_->makeSession(req.prompt, req.id, req.maxNewTokens);
    PrefixMatch match;
    if (kvPool_)
        SPECINFER_CHECK(kvPool_->admit(req.id, req.prompt,
                                       admissionTokens(req),
                                       cfg_.kvPrefixSharing, &match),
                        "KV admission failed after canAdmit for "
                            << req.id);
    if (prefixStore_) {
        // Declare only the blocks this request reuses: a payload
        // pays off once a second request matches the block, so the
        // first matcher prefills and captures it (declare is
        // idempotent) and later ones adopt it. A block nobody else
        // shares never holds rows.
        for (uint64_t hash : match.hashes)
            prefixStore_->declare(hash);
        if (match.partialHash != 0)
            prefixStore_->declare(match.partialHash);
        session.enablePrefixSharing(prefixStore_.get());
        // Replay adopts nothing: Admit replay recomputes exactly the
        // journaled adoption level, which a store warmed by replayed
        // sessions could otherwise overshoot.
        const size_t adopted =
            replaying_ ? 0
                       : session.adoptPrefix(match.hashes,
                                             match.partialHash,
                                             match.partialTokens);
        if (adopted > 0 && obs_ != nullptr &&
            obs_->tracer().enabled())
            obs_->tracer().instant(
                req.id, "serving", "prefix_adopt", obs_->nowNanos(),
                {{"tokens", static_cast<int64_t>(adopted)},
                 {"blocks",
                  static_cast<int64_t>(match.hashes.size())}});
    }
    // The partial-match block stays shared until the first write
    // past its divergence point (settleCow).
    active_.push_back({std::move(req), std::move(session),
                       stats_.iterations,
                       prefixStore_ ? match.partialHash : 0});
    ActiveRequest &ar = active_.back();
    if (journal_ && !replaying_) {
        JournalRecord rec;
        rec.type = RecordType::Admit;
        rec.id = ar.request.id;
        rec.adoptedTokens = ar.session.cachedTokens();
        journal_->append(rec);
    }
    return ar;
}

void
RequestManager::settleCow(ActiveRequest &ar)
{
    if (ar.cowPending == 0 || !kvPool_)
        return;
    kvPool_->cowShared(ar.request.id, ar.cowPending);
    ar.cowPending = 0;
}

size_t
RequestManager::jitteredBackoff(size_t preemption_count)
{
    const size_t shift = std::min<size_t>(preemption_count, 16);
    const size_t base =
        std::min(size_t{1} << shift, cfg_.preemptBackoffCap);
    // One draw per preemption, live or replayed, keeps the RNG
    // cursor aligned across recovery.
    const size_t jitter = static_cast<size_t>(
        backoffRng_.uniformInt(static_cast<uint64_t>(base / 2 + 1)));
    return base + jitter;
}

RequestManager::RequestPhase
RequestManager::phase(uint64_t id) const
{
    for (const ActiveRequest &ar : active_)
        if (ar.request.id == id)
            return RequestPhase::Active;
    for (const Request &req : pending_)
        if (req.id == id)
            return RequestPhase::Pending;
    for (const RequestResult &res : finished_)
        if (res.id == id)
            return RequestPhase::Finished;
    return RequestPhase::Unknown;
}

std::vector<int>
RequestManager::generatedSoFar(uint64_t id) const
{
    for (const ActiveRequest &ar : active_)
        if (ar.request.id == id)
            return ar.session.generated();
    for (const RequestResult &res : finished_)
        if (res.id == id)
            return res.tokens;
    return {};
}

bool
RequestManager::tryReserve(uint64_t id, size_t tokens)
{
    // An injected allocation fault is indistinguishable from real
    // pool pressure, so the same preempt/retry/backoff machinery
    // absorbs both. One decision window per (request, iteration):
    // a recovered process re-running a torn step gets the same
    // answer, and repeats within one iteration deliberately agree
    // (allocation pressure is temporally correlated, not per-call
    // coin flips).
    if (util::faultAtKeyed(util::FaultPoint::KvAlloc,
                           util::faultKey(id, stats_.iterations)))
        return false;
    return kvPool_->reserve(id, tokens);
}

void
RequestManager::releaseKv(uint64_t id)
{
    if (kvPool_ && kvPool_->requestBlocks(id) > 0)
        kvPool_->release(id);
}

void
RequestManager::finish(Request &&req, const core::SpecSession *session,
                       size_t start_iteration, size_t finish_iteration,
                       core::SpecSession::StopReason reason)
{
    using StopReason = core::SpecSession::StopReason;
    switch (reason) {
      case StopReason::Cancelled:
        ++stats_.cancellations;
        break;
      case StopReason::Deadline:
        ++stats_.deadlineExpiries;
        break;
      case StopReason::Shed:
        ++stats_.shedRequests;
        ++stats_.shedByClass[static_cast<size_t>(req.priority)];
        break;
      case StopReason::Preempted:
        // The budget-exhausting preemption has no Preempt record of
        // its own: this Finish is where it is counted.
        ++stats_.preemptions;
        ++stats_.preemptionAborts;
        break;
      default:
        break;
    }
    releaseKv(req.id);
    RequestResult res;
    res.id = req.id;
    if (session != nullptr) {
        // Partial output: with deterministic per-request seeds this
        // is always a prefix of the request's full output.
        res.tokens = session->generated();
        res.stats = session->stats();
    }
    res.stopReason = reason;
    res.arrivalIteration = req.arrivalIteration;
    res.startIteration = start_iteration;
    res.finishIteration = finish_iteration;
    res.preemptions = req.preemptionCount;
    res.priority = req.priority;
    stats_.tokensGenerated += res.tokens.size();
    ++stats_.requestsFinished;
    if (!replaying_) {
        if (obs_ != nullptr && obs_->tracer().enabled())
            obs_->tracer().instant(
                res.id, "serving", "finish", obs_->nowNanos(),
                {{"stop", static_cast<int64_t>(res.stopReason)},
                 {"tokens", static_cast<int64_t>(res.tokens.size())}});
        if (journal_) {
            JournalRecord rec;
            rec.type = RecordType::Finish;
            rec.id = res.id;
            rec.stopReason = static_cast<uint8_t>(res.stopReason);
            rec.arrivalIteration = res.arrivalIteration;
            rec.startIteration = res.startIteration;
            rec.finishIteration = res.finishIteration;
            rec.preemptions = res.preemptions;
            journal_->append(rec);
        }
    }
    finished_.push_back(std::move(res));
}

void
RequestManager::finishPending(size_t index,
                              core::SpecSession::StopReason reason)
{
    finish(takePending(index), nullptr, stats_.iterations,
           stats_.iterations, reason);
}

void
RequestManager::finishActive(size_t index,
                             core::SpecSession::StopReason reason)
{
    ActiveRequest &ar = active_[index];
    finish(std::move(ar.request), &ar.session, ar.startIteration,
           stats_.iterations, reason);
    active_.erase(active_.begin() + static_cast<ptrdiff_t>(index));
}

void
RequestManager::requeuePreempted(Request &&req,
                                 const core::SpecSession *session)
{
    ++req.preemptionCount;
    if (cfg_.maxPreemptions > 0 &&
        req.preemptionCount > cfg_.maxPreemptions) {
        // Retry budget exhausted: fail cleanly instead of cycling
        // through the pool forever.
        finish(std::move(req), session, stats_.iterations,
               stats_.iterations,
               core::SpecSession::StopReason::Preempted);
        return;
    }
    releaseKv(req.id);
    ++stats_.preemptions;
    // Jittered exponential backoff on re-admission: a request that
    // keeps losing its memory waits out the contention instead of
    // immediately re-stealing what it just lost, and the seeded
    // jitter keeps a cohort of preempted requests from re-colliding
    // in lockstep when their identical windows expire together.
    const size_t backoff = jitteredBackoff(req.preemptionCount);
    req.earliestRestart = stats_.iterations + backoff;
    if (obs_ != nullptr && obs_->tracer().enabled()) {
        // Restart the queue-wait clock: the next queue span covers
        // the backoff wait, not the request's whole lifetime.
        req.submitNanos = obs_->nowNanos();
        obs_->tracer().instant(
            req.id, "serving", "preempt", req.submitNanos,
            {{"count", static_cast<int64_t>(req.preemptionCount)},
             {"backoff", static_cast<int64_t>(backoff)}});
    }
    if (journal_) {
        JournalRecord rec;
        rec.type = RecordType::Preempt;
        rec.id = req.id;
        rec.preemptionCount = req.preemptionCount;
        rec.earliestRestart = req.earliestRestart;
        journal_->append(rec);
    }
    pending_.push_front(std::move(req));
    if (cfg_.maxPendingRequests > 0 &&
        pending_.size() > cfg_.maxPendingRequests) {
        // The requeue overflowed the bounded queue; shed the
        // lowest-class latest-arrival request to restore the bound.
        finishPending(shedVictimIndex(),
                      core::SpecSession::StopReason::Shed);
    }
}

size_t
RequestManager::preemptLowestClass(uint64_t requester_id,
                                   Priority requester_priority)
{
    // Request ids increase with submission order, so (class, id) is
    // a total victimization order: a requester may steal from a
    // strictly lower class, or from a strictly later arrival of its
    // own class — never the reverse, so two requests cannot evict
    // each other forever. Among eligible victims the lowest class
    // goes first, then the latest arrival within that class.
    size_t victim = active_.size();
    for (size_t i = 0; i < active_.size(); ++i) {
        const Request &cand = active_[i].request;
        const bool eligible =
            cand.priority > requester_priority ||
            (cand.priority == requester_priority &&
             cand.id > requester_id);
        if (!eligible)
            continue;
        if (victim == active_.size() ||
            cand.priority > active_[victim].request.priority ||
            (cand.priority == active_[victim].request.priority &&
             cand.id > active_[victim].request.id))
            victim = i;
    }
    if (victim == active_.size())
        return kNoVictim;
    // Requeue for a fresh (recomputed) start; seeding by request id
    // keeps the eventual output identical.
    requeuePreempted(std::move(active_[victim].request),
                     &active_[victim].session);
    active_.erase(active_.begin() + static_cast<ptrdiff_t>(victim));
    return victim;
}

bool
RequestManager::deadlineExpired(const Request &req) const
{
    if (req.deadlineIterations > 0 &&
        stats_.iterations >=
            req.arrivalIteration + req.deadlineIterations)
        return true;
    // Wall-clock budget on the injectable clock, checked against
    // the once-per-iteration cached reading: real stalls consume it
    // even while the iteration clock stands still.
    return req.deadlineNanos > 0 && obs_ != nullptr &&
           nowNanos_ >= req.deadlineNanos;
}

void
RequestManager::expirePendingDeadlines()
{
    for (size_t j = 0; j < pending_.size();) {
        if (deadlineExpired(pending_[j]))
            finishPending(j, core::SpecSession::StopReason::Deadline);
        else
            ++j;
    }
}

bool
RequestManager::cancel(uint64_t id)
{
    for (size_t j = 0; j < pending_.size(); ++j) {
        if (pending_[j].id != id)
            continue;
        finishPending(j, core::SpecSession::StopReason::Cancelled);
        return true;
    }
    for (size_t i = 0; i < active_.size(); ++i) {
        if (active_[i].request.id != id)
            continue;
        finishActive(i, core::SpecSession::StopReason::Cancelled);
        return true;
    }
    return false;
}

void
RequestManager::noteStep(const core::StepRecord &step)
{
    ++stats_.requestIterations;
    // Only a step that was allowed to speculate can fall back.
    if (step.fallback)
        ++stats_.fallbackSteps;
}

void
RequestManager::updateDegradation(bool speculation_ran,
                                  bool fault_seen)
{
    if (cfg_.degradeAfterConsecutiveFaults == 0 || !speculation_ran)
        return;
    if (fault_seen) {
        degr_.cleanIterations = 0;
        if (++degr_.consecutiveFaults <
            cfg_.degradeAfterConsecutiveFaults)
            return;
        degr_.currentBackoff =
            degr_.currentBackoff == 0
                ? cfg_.degradeBackoffIterations
                : std::min(degr_.currentBackoff * 2,
                           cfg_.degradeBackoffMax);
        degr_.reenableIteration =
            stats_.iterations + degr_.currentBackoff;
        degr_.speculationDisabled = true;
        ++degr_.disableEpisodes;
        degr_.consecutiveFaults = 0;
        SPECINFER_WARN("degradation: speculation disabled for "
                       << degr_.currentBackoff
                       << " iterations after repeated SSM faults");
    } else {
        degr_.consecutiveFaults = 0;
        // A fault-free stretch as long as the trigger resets the
        // backoff ladder.
        if (++degr_.cleanIterations >=
            cfg_.degradeAfterConsecutiveFaults)
            degr_.currentBackoff = 0;
    }
}

void
RequestManager::forceDegrade(size_t backoff_iterations)
{
    if (backoff_iterations == 0)
        return;
    degr_.speculationDisabled = true;
    degr_.reenableIteration =
        std::max(degr_.reenableIteration,
                 stats_.iterations + backoff_iterations);
    ++degr_.disableEpisodes;
    degr_.consecutiveFaults = 0;
    degr_.cleanIterations = 0;
}

void
RequestManager::runIteration()
{
    if (crashed_)
        return;
    // Crash point: a clean crash at an iteration boundary (all
    // journal records of the previous iteration committed). Only
    // live with a journal attached — a crash without one is
    // unrecoverable and outside the model.
    if (journal_ && util::faultAt(util::FaultPoint::Crash)) {
        noteCrash();
        return;
    }

    const uint64_t iter_start =
        obs_ != nullptr ? obs_->nowNanos() : 0;
    // One wall-clock reading per iteration: every wall-deadline
    // decision this iteration compares against it, keeping the
    // number of clock reads independent of queue contents (a
    // ManualClock schedule stays aligned across recovery).
    nowNanos_ = iter_start;
    if (journal_)
        journalBegin();
    auto obsIterationEnd = [&](size_t batch) {
        if (obs_ == nullptr)
            return;
        const uint64_t end = obs_->nowNanos();
        hIterMillis_->observe(
            static_cast<double>(end - iter_start) / 1.0e6);
        if (obs_->tracer().enabled())
            obs_->tracer().span(
                0, "serving", "iteration", iter_start, end,
                {{"batch", static_cast<int64_t>(batch)},
                 {"iteration",
                  static_cast<int64_t>(stats_.iterations)}});
        publishMetrics();
    };

    // Degradation ladder: re-enable speculation when the backoff
    // window has elapsed.
    if (degr_.speculationDisabled &&
        stats_.iterations >= degr_.reenableIteration) {
        degr_.speculationDisabled = false;
        SPECINFER_INFO("degradation: speculation re-enabled");
    }

    // Requests whose deadline expired while queued fail before
    // consuming a batch slot.
    expirePendingDeadlines();

    // Admit pending requests into the free batch slots. Static
    // batching only admits into an idle engine; continuous batching
    // admits whenever a slot is free. With a KV pool, admission
    // additionally requires a memory reservation. Preempted
    // requests in their backoff window are skipped (later arrivals
    // may overtake them) but keep their FCFS eviction priority.
    const bool may_admit =
        cfg_.policy == SchedulingPolicy::Continuous ||
        active_.empty();
    if (may_admit) {
        while (active_.size() < cfg_.maxBatchSize) {
            // Priority-aware head-of-line: the highest class admits
            // first (queue order within a class), so an Interactive
            // arrival overtakes queued Batch work. Preempted
            // requests in their backoff window are skipped (later
            // arrivals may overtake them) but keep their eviction
            // priority; with every request in the default class
            // this degenerates to the original FCFS scan.
            size_t j = pending_.size();
            for (size_t k = 0; k < pending_.size(); ++k) {
                if (pending_[k].earliestRestart > stats_.iterations)
                    continue;
                if (j == pending_.size() ||
                    pending_[k].priority < pending_[j].priority)
                    j = k;
            }
            if (j == pending_.size())
                break;
            const Request &cand = pending_[j];
            if (kvPool_) {
                // A full pool at the admission probe is routine
                // backpressure, not an allocation failure: gate on
                // the read-only check so kv_alloc_failures counts
                // genuine exhaustion events (see the on-demand
                // growth path), never head-of-line waiting.
                if (!kvPool_->canAdmit(cand.id, cand.prompt,
                                       admissionTokens(cand),
                                       cfg_.kvPrefixSharing))
                    break; // pool full; retry next iteration
                // An injected allocation fault still delays
                // admission exactly like pool pressure would.
                if (util::faultAtKeyed(
                        util::FaultPoint::KvAlloc,
                        util::faultKey(cand.id, stats_.iterations)))
                    break;
            }
            admit(takePending(j));
        }
    }
    if (active_.empty()) {
        // Nothing runnable; still counts as a scheduling tick so
        // arrival bookkeeping stays monotone. Nothing stepped, so the
        // ladder gets no evidence.
        ++stats_.iterations;
        if (journal_)
            journalIteration(false, false);
        obsIterationEnd(0);
        return;
    }
    const size_t batch_size = active_.size();

    // Injected straggler: the iteration clock jumps forward,
    // consuming deadline budget exactly as a slow iteration would.
    bool slow_iteration = false;
    if (util::faultAt(util::FaultPoint::SlowIteration)) {
        slow_iteration = true;
        ++stats_.slowIterations;
        stats_.iterations += cfg_.slowIterationPenalty;
    }

    // One decoding iteration per active request (iteration-level
    // scheduling: requests at different progress advance together),
    // in three phases. (1) Serially, in batch order: deadline expiry,
    // then the request's KV growth under on-demand paging — when the
    // pool cannot grow it, the lowest-class youngest request is
    // preempted and restarted later (vLLM-style recompute), within
    // its retry budget — then its copy-on-write settle. Every
    // allocator call happens here, in the order the steps would make
    // them one after another, and the journal records them in that
    // order (Reserve, Preempt, Finish). (2) One pool job per session
    // advances the batch concurrently; each session owns its caches,
    // RNG and tree, and the weights are read-only. (3) Serially, in
    // batch order: publish spans and prefix payloads, stream, account
    // and journal each step.
    const bool allow_spec = !degr_.speculationDisabled;
    for (size_t i = 0; i < active_.size();) {
        const Request &req = active_[i].request;
        if (deadlineExpired(req)) {
            finishActive(i, core::SpecSession::StopReason::Deadline);
            continue;
        }
        const uint64_t id = req.id;
        const Priority cls = req.priority;
        const size_t held = kvPool_ ? kvPool_->requestBlocks(id) : 0;
        if (kvPool_ &&
            cfg_.kvPolicy == KvReservationPolicy::OnDemand) {
            const size_t need = active_[i].session.sequence().size() +
                                engine_->treeBudget() + 2;
            // canReserve gates the fallible call so backpressure
            // resolved by preemption never counts as an allocation
            // failure; tryReserve still interposes the fault point.
            bool ok = kvPool_->canReserve(id, need) &&
                      tryReserve(id, need);
            while (!ok) {
                size_t erased = preemptLowestClass(id, cls);
                if (erased == kNoVictim)
                    break;
                if (erased < i)
                    --i; // our element shifted left
                ok = kvPool_->canReserve(id, need) &&
                     tryReserve(id, need);
            }
            if (!ok) {
                // Genuine exhaustion: no victim left to preempt and
                // the pool still cannot grow this request. Count the
                // failure exactly once (an injected fault with a
                // non-exhausted pool counts nothing).
                if (!kvPool_->canReserve(id, need))
                    (void)kvPool_->reserve(id, need);
                // Last resort: preempt this request itself (it will
                // restart when memory frees, or fail cleanly once
                // its retry budget runs out).
                requeuePreempted(std::move(active_[i].request),
                                 &active_[i].session);
                active_.erase(active_.begin() +
                              static_cast<ptrdiff_t>(i));
                continue;
            }
        }
        // The step writes past the divergence point of a partially
        // shared block: release the shared reference — the private
        // block charged at admission owns those positions now.
        const bool cow = active_[i].cowPending != 0;
        settleCow(active_[i]);
        if (journal_ &&
            (cow || (kvPool_ && kvPool_->requestBlocks(id) != held))) {
            // A growth may have evicted zero-ref prefix blocks: replay
            // must grow here, between this phase's Preempt and Finish
            // records, not at the Step record, to evict the same ones.
            JournalRecord rec;
            rec.type = RecordType::Reserve;
            rec.id = id;
            journal_->append(rec);
        }
        ++i;
    }

    struct Stepping
    {
        size_t index;     ///< position in active_
        size_t seqBefore; ///< sequence length before the step
        size_t lpBefore;  ///< generated length before the step
    };
    std::vector<Stepping> stepping;
    stepping.reserve(active_.size());
    for (size_t i = 0; i < active_.size(); ++i)
        stepping.push_back({i, active_[i].session.sequence().size(),
                            active_[i].session.logProbs().size()});

    // A one-session region runs inline on this thread, keeping the
    // pool for the session's own kernels; wider regions put one
    // session on each worker, where the nested kernel calls run
    // serially.
    util::ThreadPool::global().parallelFor(
        0, stepping.size(), [&](size_t k) {
            active_[stepping[k].index].session.advance(allow_spec);
        });

    // The iteration's evidence for the degradation ladder.
    bool spec_ran = false, fault_seen = false;
    for (const Stepping &st : stepping) {
        ActiveRequest &ar = active_[st.index];
        ar.session.publishStep();
        if (stepObserver_) {
            // logProbs() is parallel to generated(), so lpBefore is
            // the pre-step generated length: everything past it is
            // this step's freshly committed tokens.
            const std::vector<int> gen = ar.session.generated();
            if (gen.size() > st.lpBefore)
                stepObserver_(ar.request.id, st.lpBefore,
                              std::vector<int>(
                                  gen.begin() +
                                      static_cast<ptrdiff_t>(
                                          st.lpBefore),
                                  gen.end()));
        }
        const core::StepRecord &step = ar.session.stats().steps.back();
        noteStep(step);
        spec_ran |= allow_spec && !step.prefill;
        fault_seen |= step.fallback;
        if (journal_) {
            // Crash points around the write-ahead append. Before:
            // the process dies *during* the append, leaving a torn
            // record. After: the record is durable but the iteration
            // commit is not. Either way recovery drops the whole
            // iteration and re-runs it.
            const bool torn = util::faultAt(util::FaultPoint::Crash);
            if (torn)
                journal_->tearNextAppend();
            journalStep(st.index, st.seqBefore, st.lpBefore);
            if (torn || util::faultAt(util::FaultPoint::Crash)) {
                noteCrash();
                return;
            }
        }
    }

    // Retire finished requests; their slots free up immediately.
    for (size_t i = 0; i < active_.size();) {
        if (active_[i].session.done())
            finishActive(i, active_[i].session.stopReason());
        else
            ++i;
    }
    if (!allow_spec)
        ++stats_.degradedIterations;
    ++stats_.iterations;
    updateDegradation(spec_ran, fault_seen);

    if (journal_) {
        // Crash point: everything this iteration journaled but the
        // iteration commit itself lost — recovery drops the
        // iteration and the recovered process runs it again.
        if (util::faultAt(util::FaultPoint::Crash)) {
            noteCrash();
            return;
        }
        journalIteration(!allow_spec, slow_iteration);
    }
    obsIterationEnd(batch_size);
}

void
RequestManager::runUntilDrained()
{
    while (busy() && !crashed_)
        runIteration();
}

std::vector<RequestResult>
RequestManager::takeFinished()
{
    std::vector<RequestResult> out = std::move(finished_);
    finished_.clear();
    return out;
}

void
RequestManager::noteCrash()
{
    crashed_ = true;
    if (obs_ == nullptr)
        return;
    // Crashes are event-time counters, never gauge-synced: a
    // recovered manager has no memory of dying, so the count must
    // survive in the registry, not in ServingStats.
    obs_->metrics().counter("serving_crashes")->inc();
    if (obs_->tracer().enabled())
        obs_->tracer().instant(0, "serving", "crash",
                               obs_->nowNanos());
    publishMetrics();
}

void
RequestManager::publishMetrics()
{
    if (obs_ == nullptr)
        return;
    obs::MetricsRegistry &reg = obs_->metrics();
    auto set = [&reg](const char *name, size_t value) {
        reg.gauge(name)->set(static_cast<int64_t>(value));
    };
    set("serving_pending_requests", pending_.size());
    set("serving_active_requests", active_.size());
    forEachStat(stats_, set);
    set("serving_speculation_disabled",
        degr_.speculationDisabled ? 1 : 0);
    // The util layer is obs-free by design; the pool self-counts
    // its jobs and the manager publishes the count here.
    util::ThreadPool &pool = util::ThreadPool::global();
    set("pool_threads", pool.threads());
    set("pool_jobs_dispatched",
        static_cast<size_t>(pool.jobsDispatched() -
                            poolJobsBaseline_));
    if (kvPool_)
        kvPool_->publishUsage();
}

void
RequestManager::journalStep(size_t index, size_t seq_before,
                            size_t log_probs_before)
{
    const ActiveRequest &ar = active_[index];
    const std::vector<int> &seq = ar.session.sequence();
    const std::vector<float> &lps = ar.session.logProbs();
    JournalRecord rec;
    rec.type = RecordType::Step;
    rec.id = ar.request.id;
    rec.tokens.assign(seq.begin() +
                          static_cast<ptrdiff_t>(seq_before),
                      seq.end());
    rec.logProbs.assign(lps.begin() +
                            static_cast<ptrdiff_t>(log_probs_before),
                        lps.end());
    rec.step = ar.session.stats().steps.back();
    rec.rngAfter = ar.session.rngCursor();
    rec.sessionDone = ar.session.done();
    rec.stopReason = static_cast<uint8_t>(ar.session.stopReason());
    journal_->append(rec);
}

void
RequestManager::journalIteration(bool degraded, bool slow)
{
    JournalRecord rec;
    rec.type = RecordType::Iteration;
    rec.iteration = stats_.iterations;
    rec.iterDegraded = degraded ? 1 : 0;
    rec.iterSlow = slow ? 1 : 0;
    rec.degradation = degr_;
    journal_->append(rec);
    // Opt-in durability: harden the whole iteration's records at
    // the commit boundary (one fdatasync per iteration, not per
    // record — see ServingConfig::journalFsync).
    if (cfg_.journalFsync)
        journal_->sync();
}

void
RequestManager::journalBegin()
{
    JournalRecord rec;
    rec.type = RecordType::Begin;
    rec.iteration = stats_.iterations;
    rec.iterNanos = nowNanos_;
    journal_->append(rec);
}

void
RequestManager::writeSnapshot(std::ostream &out) const
{
    out.write(kSnapMagic, 4);
    writePod<uint32_t>(out, kSnapVersion);
    writePod<uint64_t>(out,
                       journal_ ? journal_->bytesWritten() : 0);
    writePod<uint64_t>(out, nextId_);
    writePod<uint8_t>(out, cfg_.ssmPrecision);
    writePod<uint8_t>(out, cfg_.tpDegree);

    forEachStat(stats_, [&out](const char *, size_t value) {
        writePod<uint64_t>(out, value);
    });
    // Per-class ingress buckets: levels and refill cursors, so a
    // recovered manager meters exactly where the crashed one left
    // off (replayed Submits then re-consume on top).
    for (size_t cls = 0; cls < kPriorityCount; ++cls) {
        writePod<uint64_t>(out, bucketLevel_[cls]);
        writePod<uint64_t>(out, bucketRefillIteration_[cls]);
    }
    writeDegradation(degr_, [&out](auto v) { writePod(out, v); });

    // Backoff-jitter RNG cursor: recovery must resume with the same
    // draw sequence an uninterrupted run would have used, or
    // post-crash preemption windows (and thus token-identity)
    // diverge.
    const util::RngState rng_state = backoffRng_.state();
    for (uint64_t word : rng_state.s)
        writePod<uint64_t>(out, word);

    writePod<uint64_t>(out, pending_.size());
    for (const Request &req : pending_)
        writeRequest(out, req);

    // Resident shared-block table, in hash order. Chain depth is
    // persisted (not re-derived) so restore order never matters —
    // eviction gaps can leave a child resident without its parent.
    if (kvPool_) {
        const auto &table = kvPool_->sharedTable();
        writePod<uint64_t>(out, table.size());
        for (const auto &entry : table) {
            writePod<uint64_t>(out, entry.first);
            writePod<uint64_t>(out, entry.second.parent);
            writePod<uint64_t>(out, entry.second.depth);
            writePodVector<int>(out, entry.second.tokens);
            // Payload-store state (0 absent, 1 declared, 2 filled):
            // recovery re-derives the filled rows, so adoption after
            // a crash takes exactly what the live store offered.
            writePod<uint8_t>(
                out, !prefixStore_ || !prefixStore_->contains(entry.first)
                         ? 0
                     : prefixStore_->filled(entry.first) ? 2
                                                         : 1);
        }
    } else {
        writePod<uint64_t>(out, 0);
    }

    writePod<uint64_t>(out, active_.size());
    for (const ActiveRequest &ar : active_) {
        writeRequest(out, ar.request);
        writePod<uint64_t>(out, ar.startIteration);
        // Exact pool holding, not a recomputed need: the restore
        // must reproduce live occupancy block-for-block.
        writePod<uint64_t>(out,
                           kvPool_ ? kvPool_->requestBlocks(
                                         ar.request.id)
                                   : 0);
        writePodVector<uint64_t>(
            out, kvPool_ ? kvPool_->requestSharedHashes(
                               ar.request.id)
                         : std::vector<uint64_t>{});
        writePod<uint64_t>(out,
                           kvPool_ ? kvPool_->requestPartial(
                                         ar.request.id)
                                   : 0);
        writePod<uint64_t>(out, ar.cowPending);
        ar.session.save(out);
    }

    writePod<uint64_t>(out, finished_.size());
    for (const RequestResult &res : finished_)
        writeResult(out, res);
    SPECINFER_CHECK(out.good(), "snapshot write failed");
}

void
RequestManager::saveSnapshot(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        SPECINFER_CHECK(out.good(),
                        "cannot write snapshot '" << tmp << "'");
        writeSnapshot(out);
        out.close();
        SPECINFER_CHECK(!out.fail(),
                        "snapshot write to '" << tmp << "' failed");
    }
    // Durable order: the snapshot's bytes and every journal byte
    // it covers reach the disk before the rename publishes it, and
    // the rename itself before the caller moves on.
    if (cfg_.journalFsync) {
        syncFile(tmp);
        if (journal_ != nullptr)
            journal_->sync();
    }
    SPECINFER_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                    "cannot rename snapshot into '" << path << "'");
    if (cfg_.journalFsync) {
        const std::filesystem::path dir =
            std::filesystem::path(path).parent_path();
        syncFile(dir.empty() ? "." : dir.string());
    }
}

void
RequestManager::applyRecord(const JournalRecord &rec)
{
    // The journal is written in one order — Admit before any
    // Reserve, Step or Preempt of a request, Finish before its
    // Iteration commit — and replay refuses a stream that breaks it
    // rather than guess.
    auto findActive = [this](uint64_t id) {
        size_t i = 0;
        while (i < active_.size() && active_[i].request.id != id)
            ++i;
        return i;
    };
    auto findPending = [this](uint64_t id) {
        size_t j = 0;
        while (j < pending_.size() && pending_[j].id != id)
            ++j;
        return j;
    };

    switch (rec.type) {
      case RecordType::Submit: {
        Request req;
        req.id = rec.id;
        req.prompt = rec.prompt;
        req.arrivalIteration = rec.arrivalIteration;
        req.maxNewTokens = rec.maxNewTokens;
        req.deadlineIterations = rec.deadlineIterations;
        req.deadlineNanos = rec.deadlineNanos;
        req.priority = static_cast<Priority>(rec.priority);
        accept(std::move(req));
        break;
      }

      case RecordType::Admit: {
        const size_t j = findPending(rec.id);
        SPECINFER_CHECK(j < pending_.size(),
                        "journal Admit for request "
                            << rec.id << " that is not pending");
        // The crashed process may have adopted shared prefix rows
        // from its warm store; replayed admission adopts none, so
        // recompute up to the journaled adoption level — identical
        // rows, identical remaining prefill iterations.
        admit(takePending(j)).session.hydrateKv(rec.adoptedTokens, 0);
        break;
      }

      case RecordType::Step: {
        const size_t idx = findActive(rec.id);
        SPECINFER_CHECK(idx < active_.size(),
                        "journal Step for request "
                            << rec.id
                            << " without its Admit: admission is "
                               "journaled before any step");
        ActiveRequest &ar = active_[idx];
        ar.session.restoreStep(
            rec.tokens, rec.logProbs, rec.step, rec.rngAfter,
            rec.sessionDone,
            static_cast<core::SpecSession::StopReason>(
                rec.stopReason));
        noteStep(rec.step);
        break;
      }

      case RecordType::Reserve: {
        const size_t idx = findActive(rec.id);
        SPECINFER_CHECK(idx < active_.size(),
                        "journal Reserve for request "
                            << rec.id
                            << " without its Admit: only admitted "
                               "requests grow");
        // The live pre-phase, before the step: the growth it made
        // (the session still holds its pre-step sequence), then the
        // copy-on-write release.
        ActiveRequest &ar = active_[idx];
        if (kvPool_ &&
            cfg_.kvPolicy == KvReservationPolicy::OnDemand) {
            const size_t need = ar.session.sequence().size() +
                                engine_->treeBudget() + 2;
            SPECINFER_CHECK(kvPool_->reserve(ar.request.id, need),
                            "replay KV growth failed for "
                                << ar.request.id);
        }
        settleCow(ar);
        break;
      }

      case RecordType::Preempt: {
        const size_t idx = findActive(rec.id);
        SPECINFER_CHECK(idx < active_.size(),
                        "journal Preempt for request "
                            << rec.id
                            << " without its Admit: only admitted "
                               "requests are preempted");
        Request req = std::move(active_[idx].request);
        active_.erase(active_.begin() + static_cast<ptrdiff_t>(idx));
        releaseKv(rec.id);
        // Consume the jitter draw the live run made so the RNG
        // cursor stays aligned; the journaled restart window is
        // authoritative.
        (void)jitteredBackoff(rec.preemptionCount);
        req.preemptionCount = rec.preemptionCount;
        req.earliestRestart = rec.earliestRestart;
        pending_.push_front(std::move(req));
        ++stats_.preemptions;
        break;
      }

      case RecordType::Finish: {
        const size_t idx = findActive(rec.id);
        const bool ran = idx < active_.size();
        const size_t j = findPending(rec.id);
        SPECINFER_CHECK(ran || j < pending_.size(),
                        "journal Finish for unknown request "
                            << rec.id);
        Request req = ran ? std::move(active_[idx].request)
                          : takePending(j);
        // The journaled count is authoritative: a budget-exhausting
        // preemption bumps it without a Preempt record.
        req.preemptionCount = rec.preemptions;
        finish(std::move(req), ran ? &active_[idx].session : nullptr,
               rec.startIteration, rec.finishIteration,
               static_cast<core::SpecSession::StopReason>(
                   rec.stopReason));
        if (ran)
            active_.erase(active_.begin() +
                          static_cast<ptrdiff_t>(idx));
        break;
      }

      case RecordType::Iteration: {
        stats_.iterations = rec.iteration;
        if (rec.iterDegraded)
            ++stats_.degradedIterations;
        if (rec.iterSlow)
            ++stats_.slowIterations;
        degr_ = rec.degradation;
        break;
      }

      case RecordType::Begin:
        // recover() consumes it to open the iteration.
        break;
    }
}

uint64_t
RequestManager::recover(std::istream *snapshot, std::istream *journal,
                        const std::function<void()> &onCommit)
{
    SPECINFER_CHECK(!crashed_ && stats_.iterations == 0 &&
                    pending_.empty() && active_.empty() &&
                    finished_.empty() && nextId_ == 1,
                    "recover() requires a freshly constructed "
                    "manager");
    uint64_t skip = 0;
    if (snapshot != nullptr) {
        char magic[4];
        snapshot->read(magic, 4);
        SPECINFER_CHECK(snapshot->good() &&
                        std::memcmp(magic, kSnapMagic, 4) == 0,
                        "not a SpecInfer serving snapshot");
        uint32_t version = readPod<uint32_t>(*snapshot);
        SPECINFER_CHECK(version == kSnapVersion,
                        "unsupported snapshot version " << version);
        skip = readPod<uint64_t>(*snapshot);
        nextId_ = readPod<uint64_t>(*snapshot);
        const uint8_t snap_precision = readPod<uint8_t>(*snapshot);
        SPECINFER_CHECK(snap_precision == cfg_.ssmPrecision,
                        "snapshot was taken with SSM precision "
                            << unsigned(snap_precision)
                            << " but this manager is configured for "
                            << unsigned(cfg_.ssmPrecision)
                            << "; recovery must replay under the "
                               "same draft-model numerics");
        const uint8_t snap_tp = readPod<uint8_t>(*snapshot);
        SPECINFER_CHECK(snap_tp == cfg_.tpDegree,
                        "snapshot was taken with tensor-parallel "
                        "degree "
                            << unsigned(snap_tp)
                            << " but this manager is configured for "
                            << unsigned(cfg_.tpDegree)
                            << "; recovery must replay under the "
                               "same sharded execution shape");

        forEachStat(stats_, [snapshot](const char *, size_t &value) {
            value = readPod<uint64_t>(*snapshot);
        });
        for (size_t cls = 0; cls < kPriorityCount; ++cls) {
            bucketLevel_[cls] = readPod<uint64_t>(*snapshot);
            bucketRefillIteration_[cls] =
                readPod<uint64_t>(*snapshot);
        }
        degr_ = readDegradation([snapshot](auto t) {
            return readPod<decltype(t)>(*snapshot);
        });

        util::RngState rng_state;
        for (uint64_t &word : rng_state.s)
            word = readPod<uint64_t>(*snapshot);
        backoffRng_.setState(rng_state);

        uint64_t n_pending = readPod<uint64_t>(*snapshot);
        SPECINFER_CHECK(n_pending < (1ull << 32),
                        "implausible snapshot pending count");
        for (uint64_t i = 0; i < n_pending; ++i)
            pending_.push_back(readRequest(*snapshot));

        uint64_t n_shared = readPod<uint64_t>(*snapshot);
        SPECINFER_CHECK(n_shared < (1ull << 32),
                        "implausible snapshot shared-block count");
        SPECINFER_CHECK(n_shared == 0 || kvPool_ != nullptr,
                        "snapshot has shared blocks but this "
                        "manager has no KV pool");
        std::vector<uint64_t> filled;
        for (uint64_t i = 0; i < n_shared; ++i) {
            uint64_t hash = readPod<uint64_t>(*snapshot);
            uint64_t parent = readPod<uint64_t>(*snapshot);
            uint64_t depth = readPod<uint64_t>(*snapshot);
            std::vector<int> tokens = readPodVector<int>(*snapshot);
            const uint8_t stored = readPod<uint8_t>(*snapshot);
            SPECINFER_CHECK(stored <= 2 &&
                                (stored == 0 || prefixStore_),
                            "corrupt snapshot prefix-store state");
            kvPool_->restoreSharedBlock(hash, parent, depth,
                                        std::move(tokens));
            if (stored > 0)
                prefixStore_->declare(hash);
            if (stored == 2)
                filled.push_back(hash);
        }
        if (!filled.empty())
            refillPrefixStore(*engine_, *kvPool_, filled,
                              *prefixStore_);

        uint64_t n_active = readPod<uint64_t>(*snapshot);
        SPECINFER_CHECK(n_active < (1ull << 20),
                        "implausible snapshot active count");
        for (uint64_t i = 0; i < n_active; ++i) {
            Request req = readRequest(*snapshot);
            uint64_t start_iter = readPod<uint64_t>(*snapshot);
            uint64_t held_blocks = readPod<uint64_t>(*snapshot);
            std::vector<uint64_t> shared_hashes =
                readPodVector<uint64_t>(*snapshot);
            uint64_t partial = readPod<uint64_t>(*snapshot);
            uint64_t cow_pending = readPod<uint64_t>(*snapshot);
            core::SpecSession session =
                engine_->loadSession(*snapshot, req.id);
            if (kvPool_) {
                for (uint64_t hash : shared_hashes)
                    kvPool_->restoreAcquire(req.id, hash, false);
                if (partial != 0)
                    kvPool_->restoreAcquire(req.id, partial, true);
                // reserve() counts the re-acquired shared blocks
                // toward the total, so this grows the holding by
                // exactly the snapshotted private blocks.
                if (held_blocks > 0)
                    SPECINFER_CHECK(
                        kvPool_->reserve(req.id,
                                         held_blocks *
                                             kvPool_->blockTokens()),
                        "snapshot KV restore failed for " << req.id);
            }
            if (prefixStore_)
                session.enablePrefixSharing(prefixStore_.get());
            active_.push_back({std::move(req), std::move(session),
                               start_iter, cow_pending});
        }

        uint64_t n_finished = readPod<uint64_t>(*snapshot);
        SPECINFER_CHECK(n_finished < (1ull << 32),
                        "implausible snapshot finished count");
        for (uint64_t i = 0; i < n_finished; ++i)
            finished_.push_back(readResult(*snapshot));
    }

    uint64_t replayed = 0;
    if (journal != nullptr) {
        if (skip > 0) {
            // A journal shorter than the offset its snapshot covers
            // is not this snapshot's journal: replaying nothing and
            // returning the offset would have an appending caller
            // zero-fill the gap.
            const std::streampos start = journal->tellg();
            journal->seekg(0, std::ios::end);
            const std::streamoff size = journal->tellg() - start;
            SPECINFER_CHECK(size >= static_cast<std::streamoff>(skip),
                            "journal holds "
                                << size << " bytes but its snapshot "
                                << "covers " << skip);
            journal->seekg(start +
                           static_cast<std::streamoff>(skip));
        }
        // The iteration is the unit of recovery: the records after a
        // Begin apply when its Iteration commit arrives, and an
        // iteration the journal ends inside is dropped with the torn
        // tail. Records between iterations apply as read.
        JournalReader reader(*journal);
        JournalRecord rec;
        std::vector<JournalRecord> held; // the open iteration's records
        bool open = false;
        replaying_ = true;
        while (reader.next(rec)) {
            if (rec.type == RecordType::Begin) {
                SPECINFER_CHECK(!open, "journal Begin of iteration "
                                           << rec.iteration
                                           << " inside an open "
                                              "iteration");
                open = true;
            } else if (open && rec.type != RecordType::Iteration) {
                held.push_back(rec);
            } else {
                for (const JournalRecord &r : held)
                    applyRecord(r);
                held.clear();
                applyRecord(rec);
                open = false;
                replayed = reader.bytesConsumed();
                if (onCommit && rec.type == RecordType::Iteration)
                    onCommit();
            }
        }
        replaying_ = false;
    }

    // The retire loop journals every Finish before the Iteration
    // commit, so no committed state holds a finished session.
    for (const ActiveRequest &ar : active_)
        SPECINFER_CHECK(!ar.session.done(),
                        "request "
                            << ar.request.id
                            << " finished at a committed iteration "
                               "without its Finish record");
    if (obs_ != nullptr) {
        obs_->metrics().counter("serving_recoveries")->inc();
        if (obs_->tracer().enabled())
            obs_->tracer().instant(
                0, "serving", "recovered", obs_->nowNanos(),
                {{"snapshot_bytes", static_cast<int64_t>(skip)},
                 {"replayed_bytes",
                  static_cast<int64_t>(replayed)}});
        publishMetrics();
    }
    return skip + replayed;
}

} // namespace runtime
} // namespace specinfer
