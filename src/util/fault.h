/**
 * @file
 * Deterministic fault injection for the serving runtime.
 *
 * Production serving must survive component failures: an SSM worker
 * that dies mid-speculation, a verifier that trips an internal
 * error, KV allocation failing under pressure, a straggler
 * iteration, a whole process crash. This module gives library code
 * *named fault points* that tests can arm with a seeded, fully
 * deterministic schedule, so every degradation path is exercisable
 * and any failure replays from a single 64-bit seed (the `diffcheck`
 * repro style).
 *
 * Design constraints:
 *  - Zero cost when disabled: a fault point is one pointer load and
 *    a branch (`faultAt()` with no injector installed).
 *  - Determinism: firing is a pure function of (seed, sequence of
 *    consultations); the serving pipeline consults points in a
 *    deterministic order, so a schedule replays exactly.
 *  - Thread safety: faultAt() is reachable from ThreadPool workers
 *    (the batched forward path), so counters are atomics and the
 *    armed/probability draw is mutex-guarded. Single-threaded
 *    consultation order (the replay contract) is unchanged.
 *  - Library code never aborts on an injected fault; it degrades
 *    (fall back to incremental decoding, preempt, retry, shed,
 *    recover from the journal).
 */

#ifndef SPECINFER_UTIL_FAULT_H
#define SPECINFER_UTIL_FAULT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.h"

namespace specinfer {
namespace util {

/** Named fault points consulted by library code. */
enum class FaultPoint : int
{
    /** The speculator failed to produce a tree this step (models a
     *  crashed/slow SSM worker); the engine falls back to plain
     *  incremental decoding for the step. */
    SsmStep = 0,

    /** The verifier failed on the speculated tree; the engine
     *  re-verifies a root-only tree (rejecting every speculated
     *  node), which degrades to incremental output. */
    Verify = 1,

    /** A KV block reservation failed (models memory pressure or an
     *  allocator error); the request manager preempts / retries. */
    KvAlloc = 2,

    /** A straggler iteration (models interference, paging, a slow
     *  collective); the manager's iteration clock jumps forward,
     *  pushing requests toward their deadlines. */
    SlowIteration = 3,

    /** A process crash mid-iteration: the RequestManager halts on
     *  the spot (including between a journal append and the
     *  iteration commit, tearing the in-flight journal record) and
     *  all in-memory state is considered lost. Recovery replays the
     *  write-ahead journal on top of the last snapshot. */
    Crash = 4,

    /** A shared-memory ring push failed transiently (models a
     *  paused peer, an overloaded bus, a ring momentarily full);
     *  the sender keeps the frame queued and retries next tick —
     *  never drops or reorders. */
    IpcSend = 5,

    /** A shared-memory ring pop is delayed one poll (models
     *  scheduling jitter on the consumer side); the frame is
     *  delivered intact on a later poll. */
    IpcRecv = 6,

    /** A spurious client-lease expiry: the daemon reaps a live,
     *  heartbeating client exactly as if it had crashed. The client
     *  library must detect the revocation and reconnect. */
    ClientReap = 7,

    /** A hung iteration (models a spinning kernel or a deadlocked
     *  pool worker that eventually returns): the daemon's watchdog
     *  sees the stall budget blown, publishes degraded health, and
     *  disables speculation via the degradation ladder. */
    Hang = 8,

    /** A hard wedge (models a step that never returns): only an
     *  external supervisor can recover by killing the process; the
     *  daemon treats a fired wedge as an abort into the
     *  journal-recovery path. */
    Wedge = 9,
};

/** Number of distinct fault points. */
constexpr size_t kFaultPointCount = 10;

/** Human-readable fault point name (for logs and repro lines). */
const char *faultPointName(FaultPoint point);

/**
 * Seeded deterministic fault source.
 *
 * Each fault point has an independent firing probability plus an
 * optional list of armed occurrence indices that fire exactly once
 * each (1-based: armAt(p, 3) fires the third consultation of p).
 * Probability draws consume one RNG value per consultation of a
 * point with probability > 0; points left at probability 0 consume
 * nothing, so arming one point never perturbs another's schedule.
 *
 * Thread-safe: fire() may be consulted concurrently from ThreadPool
 * workers. Occurrence/fired counters are atomics; the armed lists
 * and the probability RNG are mutex-guarded. Determinism holds
 * whenever consultations of a given point are ordered (the serving
 * pipeline consults serially; concurrent consultations of the same
 * point get an arbitrary but complete occurrence numbering).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(uint64_t seed = 0xfa017ULL);

    uint64_t seed() const { return seed_; }

    /** Set the per-consultation firing probability in [0, 1]. */
    void setProbability(FaultPoint point, double probability);

    double probability(FaultPoint point) const;

    /** Arm the point to fire on its `occurrence`-th consultation
     *  (1-based); may be called repeatedly for multiple shots. */
    void armAt(FaultPoint point, uint64_t occurrence);

    /**
     * Consult the fault point: records the occurrence and returns
     * true when the fault fires (armed occurrence hit, or a
     * probability draw succeeds).
     */
    bool fire(FaultPoint point);

    /**
     * Keyed consultation: like fire(), but the probability decision
     * is a *pure hash* of (seed, point, key) instead of a draw from
     * the shared RNG stream. Callers derive the key from world
     * state (e.g. request id + iteration), which makes the schedule
     * replay-stable: a crashed-and-recovered process re-consulting
     * the same logical event gets the same answer, and consultations
     * that replay skips cannot shift any other point's schedule.
     * Armed occurrences still fire by consultation index, and the
     * occurrence/fired counters advance exactly as with fire().
     * Repeated consultations of one key within one decision window
     * repeat the same answer — deliberately modelling temporally
     * correlated pressure (real allocators do not recover between
     * adjacent calls).
     */
    bool fireKeyed(FaultPoint point, uint64_t key);

    /** Times the point has been consulted. */
    uint64_t occurrences(FaultPoint point) const;

    /** Times the point actually fired. */
    uint64_t fired(FaultPoint point) const;

    /** Total fires across all points. */
    uint64_t totalFired() const;

    /** One-line reproduction recipe: seed + per-point probabilities
     *  (diffcheck style; paste into a test to replay a schedule). */
    std::string reproLine() const;

  private:
    uint64_t seed_;
    Rng rng_;                 // guarded by mu_
    double probability_[kFaultPointCount] = {};
    std::vector<uint64_t> armed_[kFaultPointCount]; // guarded by mu_
    std::atomic<uint64_t> occurrences_[kFaultPointCount] = {};
    std::atomic<uint64_t> fired_[kFaultPointCount] = {};
    mutable std::mutex mu_;
};

namespace detail {
/** Global injector consulted by faultAt(); null = disabled. */
extern FaultInjector *g_fault_injector;
} // namespace detail

/** Install (or clear, with nullptr) the global fault injector.
 *  Returns the previously installed injector. */
FaultInjector *setFaultInjector(FaultInjector *injector);

/** Currently installed injector, or nullptr. */
inline FaultInjector *
faultInjector()
{
    return detail::g_fault_injector;
}

/**
 * The lightweight hook library code calls at a fault point. With no
 * injector installed this is a pointer load and a branch — the
 * production fast path.
 */
inline bool
faultAt(FaultPoint point)
{
    FaultInjector *injector = detail::g_fault_injector;
    return injector != nullptr && injector->fire(point);
}

/**
 * Keyed fault hook (see FaultInjector::fireKeyed): the decision is
 * a pure function of (seed, point, key), so it survives crash-replay
 * re-consultation without perturbing other points' schedules.
 */
inline bool
faultAtKeyed(FaultPoint point, uint64_t key)
{
    FaultInjector *injector = detail::g_fault_injector;
    return injector != nullptr && injector->fireKeyed(point, key);
}

/**
 * Key for faultAtKeyed() naming one decision window of one request:
 * (request id, iteration) for KvAlloc, (request id, step index) for
 * SsmStep and Verify. Keys from world state, never from consultation
 * order, keep a schedule identical however many sessions consult
 * concurrently and whichever consultations crash replay skips.
 */
inline uint64_t
faultKey(uint64_t id, uint64_t index)
{
    return (id + 1) * 0x9e3779b97f4a7c15ULL + index;
}

/**
 * RAII installation of an injector for one scope (typically one
 * test); restores the previous injector on destruction so schedules
 * never leak across tests.
 */
class FaultScope
{
  public:
    explicit FaultScope(FaultInjector *injector)
        : previous_(setFaultInjector(injector))
    {
    }
    ~FaultScope() { setFaultInjector(previous_); }

    FaultScope(const FaultScope &) = delete;
    FaultScope &operator=(const FaultScope &) = delete;

  private:
    FaultInjector *previous_;
};

} // namespace util
} // namespace specinfer

#endif // SPECINFER_UTIL_FAULT_H
