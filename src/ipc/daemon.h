/**
 * @file
 * specinferd core: the daemon side of the shared-memory serving
 * plane, factored out of the binary so in-process tests can drive
 * daemon and clients cooperatively (tick-by-tick, deterministic,
 * sanitizer-friendly) while tools/specinferd.cc just wraps a signal
 * loop around it.
 *
 * One Daemon owns one engine-backed RequestManager (journal +
 * snapshot + metrics wiring included) and serves N client channels:
 *
 *  - tick(): bump the board heartbeat, scan the IPC directory for
 *    new client channels, drain every request ring (Hello /
 *    Heartbeat / Submit / Cancel / Resume / Goodbye), reap expired
 *    leases, run one scheduling iteration when work is pending,
 *    stream fresh tokens + finishes, and flush per-client outboxes.
 *
 *  - Leases are measured in daemon ticks: a client that misses
 *    `leaseTicks` consecutive ticks — crashed, hung, or kill -9'd —
 *    is reaped deterministically: its in-flight requests are
 *    cancelled through RequestManager::cancel, a best-effort
 *    Revoked frame is left in its response ring (valid even after
 *    unlink, POSIX mapping semantics), and its segment is unlinked.
 *    The `client-reap` fault point injects spurious reaps of live
 *    clients, which must survive by reconnecting.
 *
 *  - Crash isolation: destroying a Daemon without drain() is the
 *    crash model — segments and persistence files are left behind,
 *    exactly like kill -9. A new Daemon over the same paths
 *    recovers the manager from snapshot + journal tail, cuts the
 *    journal's torn tail and appends after it, and re-attaches
 *    surviving channels — clients notice the epoch bump and resume
 *    their token streams idempotently. The journal, one file across
 *    every generation, is also the incident log: diffcheck
 *    --replay-journal re-drives it offline.
 */

#ifndef SPECINFER_IPC_DAEMON_H
#define SPECINFER_IPC_DAEMON_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ipc/channel.h"
#include "ipc/wire.h"
#include "runtime/request_manager.h"
#include "util/watchdog.h"

namespace specinfer {
namespace ipc {

/** Daemon configuration. */
struct DaemonConfig
{
    /** IPC directory; empty = defaultIpcDir(). */
    std::string dir;

    /** Lease length: a client missing this many consecutive ticks
     *  without a frame or heartbeat is reaped. */
    uint64_t leaseTicks = 64;

    /** Directory-scan cadence (every N ticks). */
    uint64_t scanEvery = 4;

    /** Write-ahead journal path (empty = no crash safety). The
     *  snapshot lives at `<journalPath>.snap`, spec_infer idiom. */
    std::string journalPath;

    /** Snapshot refresh cadence in manager iterations. */
    size_t snapshotEvery = 64;

    /** Observability context (resolved like ServingConfig::obs). */
    obs::ObsContext *obs = nullptr;

    /** Watchdog budget per scheduling iteration on the obs clock
     *  (0 = watchdog off). An iteration overrunning it is a stall:
     *  the board health goes Degraded and speculation is disabled
     *  via the degradation ladder. */
    uint64_t watchdogBudgetNanos = 0;

    /** Iterations speculation stays disabled after a stall. */
    size_t stallDegradeIterations = 64;

    /** Simulate a crash (immediate _Exit, like kill -9) once this
     *  many scheduling iterations have run *in this process* —
     *  replayed recovery iterations don't count, so each restarted
     *  incarnation makes progress before crashing again. 0 = never.
     *  Supervisor smoke tests drive this via `--crash-after`. */
    uint64_t crashAfterIterations = 0;
};

/** The serving daemon core. Single-threaded; drive with tick(). */
class Daemon
{
  public:
    Daemon(const core::SpecEngine *engine,
           runtime::ServingConfig serving, DaemonConfig cfg);

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Create the board, recover persisted state (journal + snapshot,
     * when configured and present), and append to the journal from
     * its valid length.
     * @return false on any shm/file error (daemon cannot serve).
     */
    bool start();

    /** One scheduling tick (see file header). */
    void tick();

    /**
     * Graceful shutdown (SIGTERM path): stop admitting, finish and
     * stream every in-flight request, say Goodbye, snapshot, and
     * unlink every segment including the board.
     */
    void drain();

    // --- Introspection (tests, tools) -----------------------------

    uint64_t epoch() const { return epoch_; }
    uint64_t ticks() const { return tick_; }
    size_t clientCount() const { return conns_.size(); }
    uint64_t reapCount() const { return reaps_; }
    bool accepting() const { return accepting_; }

    /** True after a Wedge fault froze the daemon: ticks no-op and
     *  the heartbeat stops, exactly what the supervisor watches
     *  for. Tests treat a wedged daemon like a crashed one. */
    bool wedged() const { return wedged_; }

    /** Watchdog stalls observed (late iterations). */
    uint64_t stallCount() const;

    /** Current published health word. */
    BoardHealth health() const { return health_; }
    const std::string &dir() const { return cfg_.dir; }
    runtime::RequestManager &manager() { return *manager_; }
    const runtime::RequestManager &manager() const
    {
        return *manager_;
    }

  private:
    struct Conn
    {
        enum class State
        {
            Live,    ///< serving normally
            Corrupt, ///< poisoned ring; reap next sweep
            Bye,     ///< orderly Goodbye; unlink without Revoked
        };

        Channel channel;
        std::string name;       ///< segment file name (scan key)
        uint64_t lastSeen = 0;  ///< tick of the last inbound frame
        uint64_t pid = 0;
        State state = State::Live;
        std::deque<Message> outbox;
    };

    void scanForClients();
    void pumpConn(Conn &conn);
    void handleMessage(Conn &conn, const Message &msg);
    void reapExpired();
    void reapConn(size_t index, const char *why);
    void streamFinished();
    void flushOutboxes();
    void runGuardedIteration();
    void publishHealth();
    void publishGauges();
    void snapshot();
    void preregisterMetrics();

    Conn *ownerOf(uint64_t id);

    const core::SpecEngine *engine_;
    runtime::ServingConfig serving_;
    DaemonConfig cfg_;
    obs::ObsContext *obs_;

    std::unique_ptr<runtime::RequestManager> manager_;
    Board board_;
    uint64_t epoch_ = 0;
    uint64_t tick_ = 0;
    uint64_t reaps_ = 0;
    bool accepting_ = true;
    bool started_ = false;
    bool wedged_ = false;
    BoardHealth health_ = BoardHealth::Healthy;
    /** Last tick an ingress Overloaded reject fired (health decays
     *  back to Healthy kOverloadStickyTicks later). */
    uint64_t lastOverloadTick_ = 0;
    /** stats().iterations at this process's start; crash-after
     *  counts live iterations only. */
    size_t iterationsAtStart_ = 0;
    std::unique_ptr<util::Watchdog> watchdog_;

    std::vector<std::unique_ptr<Conn>> conns_;
    /** Request id → owning connection (reap/disconnect detaches). */
    std::map<uint64_t, Conn *> owner_;
    /** Finished-result ids already streamed. */
    std::set<uint64_t> streamed_;

    /** Open when journalPath is set. */
    std::unique_ptr<runtime::JournalFile> journal_;
    size_t lastSnapshotIteration_ = 0;
};

} // namespace ipc
} // namespace specinfer

#endif // SPECINFER_IPC_DAEMON_H
