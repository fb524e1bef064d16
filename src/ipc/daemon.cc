#include "ipc/daemon.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>

#include "obs/obs.h"
#include "util/fault.h"
#include "util/logging.h"

namespace specinfer {
namespace ipc {

namespace {

/** Process-unique daemon epoch: pid in the high bits, a start
 *  counter in the low bits so in-process restarts (tests) still
 *  bump it. */
uint64_t
nextEpoch()
{
    static std::atomic<uint64_t> counter{0};
    const uint64_t pid = static_cast<uint64_t>(::getpid());
    return (pid << 16) |
           (counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

WireReject
toWire(runtime::RejectReason reason)
{
    switch (reason) {
      case runtime::RejectReason::None:
        return WireReject::None;
      case runtime::RejectReason::QueueFull:
        return WireReject::QueueFull;
      case runtime::RejectReason::NeverFits:
        return WireReject::NeverFits;
      case runtime::RejectReason::InvalidPrompt:
        return WireReject::InvalidPrompt;
      case runtime::RejectReason::Overloaded:
        return WireReject::Overloaded;
    }
    return WireReject::None;
}

/** Health decays from Overloaded back to Healthy after this many
 *  shed-free ticks. */
constexpr uint64_t kOverloadStickyTicks = 16;

} // namespace

Daemon::Daemon(const core::SpecEngine *engine,
               runtime::ServingConfig serving, DaemonConfig cfg)
    : engine_(engine), serving_(serving), cfg_(std::move(cfg)),
      obs_(obs::resolveObs(cfg_.obs))
{
    if (cfg_.dir.empty())
        cfg_.dir = defaultIpcDir();
    serving_.obs = obs_;
}

void
Daemon::preregisterMetrics()
{
    if (obs_ == nullptr)
        return;
    // Pin the catalog: obs_check asserts these names exist even on
    // runs where the corresponding event never fires.
    for (const char *name :
         {"ipc_frames_sent", "ipc_frames_received", "ipc_bytes_sent",
          "ipc_bytes_received", "ipc_ring_full_retries",
          "ipc_crc_rejects", "daemon_reaps",
          "daemon_requests_admitted", "daemon_requests_rejected",
          "daemon_cancels", "daemon_tokens_streamed",
          "watchdog_stalls", "watchdog_wedges"})
        obs_->metrics().counter(name)->inc(0);
    for (const char *name :
         {"daemon_ticks", "daemon_epoch", "daemon_clients_connected",
          "daemon_requests_inflight", "daemon_health",
          "watchdog_last_overrun_nanos"})
        obs_->metrics().gauge(name)->set(0);
}

bool
Daemon::start()
{
    epoch_ = nextEpoch();
    manager_ = std::make_unique<runtime::RequestManager>(engine_,
                                                         serving_);
    preregisterMetrics();

    // --- Crash recovery: snapshot + journal tail ------------------
    if (!cfg_.journalPath.empty()) {
        uint64_t valid = 0;
        std::ifstream in(cfg_.journalPath, std::ios::binary);
        if (in.good()) {
            std::ifstream snap_in(cfg_.journalPath + ".snap",
                                  std::ios::binary);
            valid = manager_->recover(
                snap_in.good() ? &snap_in : nullptr, &in);
        }
        // Append from the valid length: the old snapshot covers a
        // prefix of what stays, and the one below covers all of it
        // (DESIGN.md §5d).
        journal_ = std::make_unique<runtime::JournalFile>();
        if (!journal_->open(cfg_.journalPath, valid,
                            serving_.journalFsync))
            return false;
        manager_->attachJournal(&journal_->writer());
        snapshot();
    }

    // Everything finished before this start was already streamed
    // (or belongs to a client that will Resume explicitly).
    for (const runtime::RequestResult &res : manager_->finished())
        streamed_.insert(res.id);

    // Live token streaming; never fires during the replay above.
    manager_->setStepObserver(
        [this](uint64_t id, size_t start,
               const std::vector<int> &tokens) {
            Conn *conn = ownerOf(id);
            if (conn == nullptr)
                return;
            Message msg;
            msg.type = MsgType::Tokens;
            msg.id = id;
            msg.start = start;
            msg.tokens = tokens;
            conn->outbox.push_back(std::move(msg));
            if (obs_ != nullptr)
                obs_->metrics()
                    .counter("daemon_tokens_streamed")
                    ->inc(tokens.size());
        });

    // Watchdog over the scheduling iteration, on the daemon's obs
    // clock (tests inject a ManualClock via DaemonConfig::obs).
    watchdog_ = std::make_unique<util::Watchdog>(
        cfg_.watchdogBudgetNanos,
        [this]() { return obs_ != nullptr ? obs_->nowNanos() : 0; });
    iterationsAtStart_ = manager_->stats().iterations;

    if (!board_.create(cfg_.dir, epoch_))
        return false;
    started_ = true;
    return true;
}

uint64_t
Daemon::stallCount() const
{
    return watchdog_ ? watchdog_->stallCount() : 0;
}

Daemon::Conn *
Daemon::ownerOf(uint64_t id)
{
    auto it = owner_.find(id);
    return it == owner_.end() ? nullptr : it->second;
}

void
Daemon::scanForClients()
{
    for (const std::string &name :
         listSegments(cfg_.dir, kClientPrefix)) {
        bool known = false;
        for (const auto &conn : conns_)
            if (conn->name == name) {
                known = true;
                break;
            }
        if (known)
            continue;
        auto conn = std::make_unique<Conn>();
        if (!conn->channel.attach(cfg_.dir + "/" + name))
            continue; // not ready yet; next scan retries
        conn->name = name;
        conn->lastSeen = tick_; // fresh lease grace
        conn->pid = conn->channel.header()->clientPid;
        conns_.push_back(std::move(conn));
    }
}

void
Daemon::handleMessage(Conn &conn, const Message &msg)
{
    switch (msg.type) {
      case MsgType::Hello: {
        conn.pid = msg.epoch; // Hello carries the client pid here
        Message ack;
        ack.type = MsgType::HelloAck;
        ack.epoch = epoch_;
        ack.leaseTicks = cfg_.leaseTicks;
        conn.outbox.push_back(std::move(ack));
        break;
      }

      case MsgType::Heartbeat:
        break; // lastSeen already refreshed by the pump

      case MsgType::Submit: {
        Message reply;
        reply.tag = msg.tag;
        if (!accepting_) {
            reply.type = MsgType::Reject;
            reply.reject = WireReject::Draining;
            if (obs_ != nullptr)
                obs_->metrics()
                    .counter("daemon_requests_rejected")
                    ->inc();
        } else {
            // Unknown class bytes from a newer/hostile client map
            // to Standard instead of poisoning an array index.
            const runtime::Priority cls =
                msg.priority < runtime::kPriorityCount
                    ? static_cast<runtime::Priority>(msg.priority)
                    : runtime::Priority::Standard;
            runtime::SubmitResult res = manager_->submit(
                msg.tokens,
                static_cast<size_t>(msg.maxNewTokens), 0, cls);
            if (res.accepted()) {
                owner_[res.id] = &conn;
                reply.type = MsgType::SubmitAck;
                reply.id = res.id;
                if (obs_ != nullptr)
                    obs_->metrics()
                        .counter("daemon_requests_admitted")
                        ->inc();
            } else {
                reply.type = MsgType::Reject;
                reply.reject = toWire(res.reject);
                if (res.reject ==
                    runtime::RejectReason::Overloaded) {
                    reply.retryAfterPolls =
                        res.retryAfterIterations;
                    lastOverloadTick_ = tick_;
                }
                if (obs_ != nullptr)
                    obs_->metrics()
                        .counter("daemon_requests_rejected")
                        ->inc();
            }
        }
        conn.outbox.push_back(std::move(reply));
        break;
      }

      case MsgType::Cancel:
        if (manager_->cancel(msg.id) && obs_ != nullptr)
            obs_->metrics().counter("daemon_cancels")->inc();
        break;

      case MsgType::Resume: {
        // Re-bind the stream and close the client's token gap
        // idempotently: resend [have, sofar) and, for finished
        // requests, the terminal frame.
        owner_[msg.id] = &conn;
        const std::vector<int> sofar =
            manager_->generatedSoFar(msg.id);
        if (sofar.size() > msg.start) {
            Message gap;
            gap.type = MsgType::Tokens;
            gap.id = msg.id;
            gap.start = msg.start;
            gap.tokens.assign(
                sofar.begin() +
                    static_cast<ptrdiff_t>(msg.start),
                sofar.end());
            conn.outbox.push_back(std::move(gap));
        }
        const runtime::RequestManager::RequestPhase phase =
            manager_->phase(msg.id);
        if (phase ==
            runtime::RequestManager::RequestPhase::Finished) {
            for (const runtime::RequestResult &res :
                 manager_->finished()) {
                if (res.id != msg.id)
                    continue;
                Message fin;
                fin.type = MsgType::Finished;
                fin.id = msg.id;
                fin.start = res.tokens.size();
                fin.stopReason =
                    static_cast<uint8_t>(res.stopReason);
                conn.outbox.push_back(std::move(fin));
                break;
            }
        } else if (phase ==
                   runtime::RequestManager::RequestPhase::Unknown) {
            // Nothing survives for this id (journal disabled or the
            // result was dropped with the crash): terminal frame so
            // the client fails the request instead of hanging.
            Message fin;
            fin.type = MsgType::Finished;
            fin.id = msg.id;
            fin.start = msg.start;
            fin.stopReason = static_cast<uint8_t>(
                core::SpecSession::StopReason::Cancelled);
            conn.outbox.push_back(std::move(fin));
        }
        break;
      }

      case MsgType::Goodbye:
        conn.state = Conn::State::Bye;
        break;

      default:
        break; // daemon→client frame echoed back; ignore
    }
}

void
Daemon::pumpConn(Conn &conn)
{
    // Bounded drain keeps one chatty client from starving the tick.
    for (int i = 0; i < 256; ++i) {
        Message msg;
        switch (
            ipcRecv(conn.channel.requestRing(), &msg, obs_)) {
          case RecvStatus::Empty:
            return;
          case RecvStatus::Corrupt:
            conn.state = Conn::State::Corrupt;
            return;
          case RecvStatus::Ok:
            conn.lastSeen = tick_;
            handleMessage(conn, msg);
            break;
        }
    }
}

void
Daemon::reapConn(size_t index, const char *why)
{
    Conn &conn = *conns_[index];
    // Cancel everything this client still has in flight, then
    // detach the ids; results land in finished() and are journaled,
    // so a reconnecting client can still Resume them.
    std::vector<uint64_t> owned;
    for (const auto &entry : owner_)
        if (entry.second == &conn)
            owned.push_back(entry.first);
    for (uint64_t id : owned) {
        const runtime::RequestManager::RequestPhase phase =
            manager_->phase(id);
        if (phase ==
                runtime::RequestManager::RequestPhase::Pending ||
            phase ==
                runtime::RequestManager::RequestPhase::Active)
            manager_->cancel(id);
        owner_.erase(id);
    }
    if (conn.state != Conn::State::Bye) {
        // Best-effort revocation: the unlinked mapping stays valid
        // on the client side (POSIX), so a merely-hung client can
        // still read this and reconnect.
        Message revoked;
        revoked.type = MsgType::Revoked;
        revoked.epoch = epoch_;
        (void)ipcSend(conn.channel.responseRing(), revoked, obs_);
        ++reaps_;
        if (obs_ != nullptr)
            obs_->metrics().counter("daemon_reaps")->inc();
    }
    (void)why;
    conn.channel.unlink();
    conn.channel.close();
    conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(index));
}

void
Daemon::reapExpired()
{
    for (size_t i = 0; i < conns_.size();) {
        Conn &conn = *conns_[i];
        if (conn.state == Conn::State::Bye) {
            reapConn(i, "goodbye");
            continue;
        }
        if (conn.state == Conn::State::Corrupt) {
            reapConn(i, "corrupt");
            continue;
        }
        if (tick_ - conn.lastSeen > cfg_.leaseTicks) {
            reapConn(i, "lease-expired");
            continue;
        }
        // Injected spurious reap of a live client: the client must
        // survive by reconnecting (Revoked frame tells it why).
        if (util::faultAt(util::FaultPoint::ClientReap)) {
            reapConn(i, "injected");
            continue;
        }
        ++i;
    }
}

void
Daemon::streamFinished()
{
    for (const runtime::RequestResult &res : manager_->finished()) {
        if (!streamed_.insert(res.id).second)
            continue;
        Conn *conn = ownerOf(res.id);
        if (conn != nullptr) {
            Message msg;
            msg.type = MsgType::Finished;
            msg.id = res.id;
            msg.start = res.tokens.size();
            msg.stopReason = static_cast<uint8_t>(res.stopReason);
            conn->outbox.push_back(std::move(msg));
        }
    }
}

void
Daemon::flushOutboxes()
{
    for (const auto &conn : conns_) {
        while (!conn->outbox.empty()) {
            if (!ipcSend(conn->channel.responseRing(),
                         conn->outbox.front(), obs_))
                break; // backpressure/injected: retry next tick
            conn->outbox.pop_front();
        }
    }
}

void
Daemon::runGuardedIteration()
{
    // Wedge: the iteration never returns. In-process we model the
    // never-returns by freezing the daemon — every later tick()
    // no-ops and the board heartbeat stops advancing, which is
    // exactly the signal the external supervisor kills on. Recovery
    // then replays the journal like any other crash.
    if (util::faultAt(util::FaultPoint::Wedge)) {
        wedged_ = true;
        SPECINFER_WARN("daemon: wedge fault injected; heartbeat "
                       "frozen (supervisor will kill)");
        if (obs_ != nullptr)
            obs_->metrics().counter("watchdog_wedges")->inc();
        return;
    }
    watchdog_->arm();
    // Hang: the iteration eventually returns, but far past its
    // budget. Simulated by burning the watchdog window before the
    // real work — under a SteadyClock this spins for the budget,
    // under an auto-stepping ManualClock it is instant and exact.
    if (watchdog_->armed() &&
        util::faultAt(util::FaultPoint::Hang)) {
        while (!watchdog_->expired()) {
        }
    }
    manager_->runIteration();
    if (watchdog_->disarm()) {
        // Stall: publish degraded health (via publishHealth seeing
        // the disabled ladder) and drop to incremental decoding —
        // slower, never wrong, and each iteration stays short
        // enough to keep servicing the rings.
        manager_->forceDegrade(cfg_.stallDegradeIterations);
        SPECINFER_WARN("daemon: iteration stalled "
                       << watchdog_->lastOverrunNanos()
                       << "ns past its "
                       << watchdog_->budgetNanos()
                       << "ns budget; speculation disabled for "
                       << cfg_.stallDegradeIterations
                       << " iterations");
        if (obs_ != nullptr) {
            obs_->metrics().counter("watchdog_stalls")->inc();
            obs_->metrics()
                .gauge("watchdog_last_overrun_nanos")
                ->set(static_cast<int64_t>(
                    watchdog_->lastOverrunNanos()));
        }
    }
}

void
Daemon::publishHealth()
{
    BoardHealth next = BoardHealth::Healthy;
    if (!accepting_)
        next = BoardHealth::Draining;
    else if (manager_->degradation().speculationDisabled)
        next = BoardHealth::Degraded;
    else if (lastOverloadTick_ != 0 &&
             tick_ - lastOverloadTick_ < kOverloadStickyTicks)
        next = BoardHealth::Overloaded;
    health_ = next;
    if (board_.valid())
        board_.shared()->health.store(
            static_cast<uint32_t>(next),
            std::memory_order_release);
    if (obs_ != nullptr)
        obs_->metrics().gauge("daemon_health")->set(
            static_cast<int64_t>(next));
}

void
Daemon::publishGauges()
{
    if (obs_ == nullptr)
        return;
    obs_->metrics().gauge("daemon_ticks")->set(
        static_cast<int64_t>(tick_));
    obs_->metrics().gauge("daemon_epoch")->set(
        static_cast<int64_t>(epoch_));
    obs_->metrics().gauge("daemon_clients_connected")
        ->set(static_cast<int64_t>(conns_.size()));
    obs_->metrics().gauge("daemon_requests_inflight")
        ->set(static_cast<int64_t>(manager_->pendingCount() +
                                   manager_->activeCount()));
}

void
Daemon::snapshot()
{
    if (!journal_)
        return;
    manager_->saveSnapshot(cfg_.journalPath + ".snap");
    lastSnapshotIteration_ = manager_->stats().iterations;
}

void
Daemon::tick()
{
    if (!started_ || wedged_)
        return;
    ++tick_;
    board_.shared()->heartbeat.fetch_add(1,
                                         std::memory_order_release);
    if (tick_ == 1 || cfg_.scanEvery == 0 ||
        tick_ % cfg_.scanEvery == 0)
        scanForClients();
    for (const auto &conn : conns_)
        pumpConn(*conn);
    reapExpired();
    if (manager_->busy())
        runGuardedIteration();
    if (wedged_)
        return; // frozen mid-tick: no streaming, no heartbeat
    // Crash-after: simulate an abrupt death (kill -9 semantics) for
    // supervisor smokes. The journal flushes per append, so _Exit
    // loses at most the torn tail it is built to absorb.
    if (cfg_.crashAfterIterations > 0 &&
        manager_->stats().iterations - iterationsAtStart_ >=
            cfg_.crashAfterIterations) {
        SPECINFER_WARN("daemon: --crash-after "
                       << cfg_.crashAfterIterations
                       << " iterations reached; simulating crash");
        std::_Exit(134);
    }
    streamFinished();
    flushOutboxes();
    if (journal_ && manager_->stats().iterations >=
                        lastSnapshotIteration_ + cfg_.snapshotEvery)
        snapshot();
    publishHealth();
    publishGauges();
}

void
Daemon::drain()
{
    if (!started_)
        return;
    accepting_ = false;
    board_.shared()->accepting.store(0, std::memory_order_release);
    board_.shared()->draining.store(1, std::memory_order_release);
    publishHealth();
    // Finish and stream every in-flight request; new submits come
    // back Rejected(Draining) via the normal tick path.
    while (manager_->busy())
        tick();
    // A few extra ticks to push out what backpressure held back.
    for (int i = 0; i < 64; ++i) {
        bool idle = true;
        for (const auto &conn : conns_)
            if (!conn->outbox.empty())
                idle = false;
        if (idle)
            break;
        tick();
    }
    for (const auto &conn : conns_) {
        Message bye;
        bye.type = MsgType::Goodbye;
        (void)ipcSend(conn->channel.responseRing(), bye, obs_);
        conn->channel.unlink();
        conn->channel.close();
    }
    conns_.clear();
    owner_.clear();
    snapshot();
    board_.unlink();
    started_ = false;
}

} // namespace ipc
} // namespace specinfer
