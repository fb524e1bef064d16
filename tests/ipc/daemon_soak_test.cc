/**
 * @file
 * Chaos soak for the specinferd serving plane (the ISSUE acceptance
 * gate): ≥1000 co-op rounds of random client submits, kill -9
 * abandons, daemon crash + journal recovery, and armed ipc-send /
 * ipc-recv / client-reap fault points — all from one seed.
 *
 * Invariants checked at the end:
 *  - every surviving client's request resolves, token-identical to
 *    the standalone engine (exact for normal finishes, prefix for
 *    reap/cancel aborts);
 *  - zero leaked KV blocks once the daemon is idle;
 *  - zero leaked shared-memory segments after drain;
 *  - restarts append to the journal, leaving the first generation's
 *    bytes untouched, and the cross-generation journal replays
 *    token-identically.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "../model/test_models.h"
#include "ipc/client.h"
#include "ipc/daemon.h"
#include "obs/obs.h"
#include "runtime/kv_memory.h"
#include "util/fault.h"
#include "util/rng.h"
#include "verify/journal_replay.h"

#include "ipc_test_util.h"

namespace specinfer {
namespace ipc {
namespace {

using StopReason = core::SpecSession::StopReason;
using testutil::Fixture;

struct TrackedRequest
{
    uint64_t tag = 0;
    std::vector<int> prompt;
    size_t maxNewTokens = 0;
};

struct LiveClient
{
    std::unique_ptr<Client> client;
    std::vector<TrackedRequest> requests;
};

/**
 * The journal after the settle phase: its first generation (the
 * bytes on disk at the first restart) is a prefix, and the whole
 * file replays token-identically through `engine`.
 */
void
expectJournalAppendedAndReplays(const std::string &path,
                                const std::string &first_generation,
                                const core::SpecEngine &engine,
                                const runtime::ServingConfig &serving)
{
    const std::string journal = testutil::readFile(path);
    ASSERT_FALSE(first_generation.empty()) << "no restart happened";
    ASSERT_GE(journal.size(), first_generation.size());
    EXPECT_TRUE(journal.compare(0, first_generation.size(),
                                first_generation) == 0)
        << "a restart rewrote the first generation's journal";
    std::istringstream journal_in(journal);
    std::ostringstream log;
    verify::JournalReplayResult res =
        verify::replayJournal(journal_in, engine, serving, log);
    EXPECT_TRUE(res.ok) << log.str();
    EXPECT_EQ(res.mismatches, 0u) << log.str();
    EXPECT_EQ(res.validBytes, journal.size());
    EXPECT_GT(res.finishesChecked, 0u);
}

bool
abortedStop(uint8_t stop)
{
    switch (static_cast<StopReason>(stop)) {
      case StopReason::Deadline:
      case StopReason::Cancelled:
      case StopReason::Preempted:
      case StopReason::Shed:
        return true;
      default:
        return false;
    }
}

TEST(DaemonSoakTest, ChaosSoakKeepsEveryInvariant)
{
    constexpr size_t kChaosRounds = 1100;
    constexpr size_t kMaxClients = 4;
    constexpr size_t kMaxCrashes = 5;
    constexpr size_t kMaxKills = 8;

    Fixture f;
    util::Rng chaos(0x50a4ca05ULL);

    // The soak daemon serves SHARDED (tp=2) while every oracle
    // comparison below stays against the fixture's tp=1 engine:
    // §5j bit-identity soaked under chaos, with the degree riding
    // through each crash's snapshot recovery.
    model::ModelConfig sharded_cfg = model::llmPreset("tiny");
    sharded_cfg.tensorParallel = 2;
    model::Transformer sharded_llm = model::makeLlm(sharded_cfg);
    model::Transformer sharded_ssm =
        model::makeEarlyExitSsm(sharded_llm, 2);
    core::SpecEngine sharded_engine(&sharded_llm, {&sharded_ssm},
                                    Fixture::engineConfig());

    runtime::ServingConfig scfg;
    scfg.maxBatchSize = 3;
    scfg.kvPoolBlocks = 64; // exercises the leak assertion
    scfg.kvBlockTokens = 16;
    scfg.tpDegree = 2;

    DaemonConfig dcfg = f.daemonConfig();
    dcfg.journalPath = f.dir + "/soak.wal";
    dcfg.snapshotEvery = 8;
    dcfg.leaseTicks = 16;

    auto daemon =
        std::make_unique<Daemon>(&sharded_engine, scfg, dcfg);
    ASSERT_TRUE(daemon->start());

    // Widely spaced nonces: reconnects bump by one, and in-process
    // clients share a pid, so blocks of 1000 can never collide.
    uint64_t next_nonce = 1000;
    std::vector<LiveClient> clients;
    auto spawn = [&]() {
        LiveClient lc;
        lc.client =
            std::make_unique<Client>(f.clientConfig(next_nonce));
        next_nonce += 1000;
        ASSERT_EQ(lc.client->connect(), ClientStatus::Pending);
        clients.push_back(std::move(lc));
    };
    for (int i = 0; i < 3; ++i)
        spawn();

    size_t crashes = 0, kills = 0, submits = 0, reconnects = 0;
    std::string first_generation;
    {
        util::FaultInjector injector(0xfa177ab1e5ULL);
        injector.setProbability(util::FaultPoint::IpcSend, 0.05);
        injector.setProbability(util::FaultPoint::IpcRecv, 0.05);
        injector.setProbability(util::FaultPoint::ClientReap,
                                0.001);
        util::FaultScope scope(&injector);

        for (size_t round = 0; round < kChaosRounds; ++round) {
            // Replace fallen clients (up to the cap).
            if (clients.size() < kMaxClients &&
                chaos.uniformInt(100) < 4)
                spawn();

            // Random submit on a random client.
            if (!clients.empty() && chaos.uniformInt(100) < 15) {
                LiveClient &lc = clients[static_cast<size_t>(
                    chaos.uniformInt(clients.size()))];
                TrackedRequest req;
                req.prompt = specinfer::testing::randomPrompt(
                    chaos, 2 + static_cast<size_t>(
                                   chaos.uniformInt(5)),
                    64);
                req.maxNewTokens =
                    4 + static_cast<size_t>(chaos.uniformInt(7));
                req.tag = lc.client->submit(req.prompt,
                                            req.maxNewTokens);
                lc.requests.push_back(std::move(req));
                ++submits;
            }

            // kill -9 a random client: no goodbye, no unlink.
            if (kills < kMaxKills && clients.size() > 1 &&
                chaos.uniformInt(1000) < 8) {
                const size_t victim = static_cast<size_t>(
                    chaos.uniformInt(clients.size()));
                clients[victim].client->abandon();
                clients.erase(clients.begin() +
                              static_cast<ptrdiff_t>(victim));
                ++kills;
            }

            // Crash the daemon (destructor, no drain) and restart
            // over the same journal/segments.
            if (crashes < kMaxCrashes &&
                chaos.uniformInt(1000) < 5) {
                daemon.reset();
                if (first_generation.empty())
                    first_generation =
                        testutil::readFile(dcfg.journalPath);
                daemon = std::make_unique<Daemon>(&sharded_engine,
                                                  scfg, dcfg);
                ASSERT_TRUE(daemon->start());
                ++crashes;
            }

            for (LiveClient &lc : clients) {
                const ClientStatus status = lc.client->poll();
                ASSERT_NE(status, ClientStatus::Corrupt)
                    << "round " << round;
                ASSERT_NE(status, ClientStatus::DaemonGone)
                    << "round " << round;
                if (status == ClientStatus::LeaseRevoked) {
                    ASSERT_EQ(lc.client->reconnect(),
                              ClientStatus::Pending);
                    ++reconnects;
                }
            }
            daemon->tick();
        }
    } // faults disarmed; the settle phase runs clean

    // Settle: reap every abandoned segment, then finish all work.
    for (size_t r = 0; r < dcfg.leaseTicks + 8; ++r) {
        for (LiveClient &lc : clients) {
            if (lc.client->poll() == ClientStatus::LeaseRevoked) {
                ASSERT_EQ(lc.client->reconnect(),
                          ClientStatus::Pending);
            }
        }
        daemon->tick();
    }
    for (size_t r = 0; r < 8000; ++r) {
        size_t inflight = 0;
        for (LiveClient &lc : clients) {
            if (lc.client->poll() == ClientStatus::LeaseRevoked) {
                ASSERT_EQ(lc.client->reconnect(),
                          ClientStatus::Pending);
            }
            inflight += lc.client->inflightCount();
        }
        daemon->tick();
        if (inflight == 0 && !daemon->manager().busy())
            break;
    }

    SCOPED_TRACE("submits=" + std::to_string(submits) +
                 " kills=" + std::to_string(kills) +
                 " crashes=" + std::to_string(crashes) +
                 " reconnects=" + std::to_string(reconnects) +
                 " reaps=" + std::to_string(daemon->reapCount()));
    ASSERT_GT(submits, 50u) << "chaos schedule degenerated";

    // Every surviving client's request resolved token-identically:
    // exact for normal finishes, oracle-prefix for aborts (greedy
    // decoding is request-seed-independent, so resubmitted tags
    // match the same oracle).
    for (LiveClient &lc : clients) {
        for (const TrackedRequest &tracked : lc.requests) {
            const ClientRequest *req =
                lc.client->request(tracked.tag);
            ASSERT_NE(req, nullptr);
            ASSERT_TRUE(req->finished ||
                        req->reject != WireReject::None)
                << "tag " << tracked.tag << " never resolved";
            if (!req->finished)
                continue; // typed rejection is a clean outcome
            const std::vector<int> full = f.oracle(
                tracked.prompt, req->id, tracked.maxNewTokens);
            if (abortedStop(req->stopReason)) {
                ASSERT_LE(req->tokens.size(), full.size());
                EXPECT_TRUE(std::equal(req->tokens.begin(),
                                       req->tokens.end(),
                                       full.begin()))
                    << "tag " << tracked.tag;
            } else {
                EXPECT_EQ(req->tokens, full)
                    << "tag " << tracked.tag;
            }
        }
    }

    // Idle daemon holds zero KV blocks — nothing leaked across
    // preemptions, cancels, reaps, or crash recovery.
    ASSERT_FALSE(daemon->manager().busy());
    ASSERT_NE(daemon->manager().kvPool(), nullptr);
    EXPECT_EQ(daemon->manager().kvPool()->usedBlocks(), 0u);

    daemon->drain();
    for (LiveClient &lc : clients)
        lc.client->disconnect();
    EXPECT_TRUE(listSegments(f.dir, "specinferd").empty())
        << "leaked shared-memory segments";

    expectJournalAppendedAndReplays(dcfg.journalPath,
                                    first_generation, sharded_engine,
                                    scfg);
}

/**
 * Watchdog chaos soak: hang faults (iterations that blow their
 * watchdog budget), wedge faults (iterations that never return —
 * the heartbeat freezes and the test plays supervisor: kill and
 * restart over the same journal), and daemon crashes, all under
 * mixed-priority client traffic on an auto-stepping ManualClock
 * (deterministic, no real time). Invariants: every stall is
 * detected and absorbed by the degradation ladder (watchdog_stalls
 * counts it, the daemon keeps serving), every wedge is observable
 * (wedged(), watchdog_wedges) and survivable by a supervisor-style
 * restart, surviving streams stay token-identical to the engine
 * oracle, and nothing leaks.
 */
TEST(DaemonSoakTest, WatchdogHangWedgeChaosSoakRecovers)
{
    constexpr size_t kRounds = 900;
    constexpr size_t kMaxCrashes = 3;

    Fixture f;
    util::Rng chaos(0x9a6d0cULL);

    // Auto-stepping manual clock: every read advances 1us, so a
    // "hang" (spin until the watchdog expires) is instant in real
    // time but exact in modeled time.
    obs::ManualClock clock(0, 1000);
    obs::ObsContext obs_ctx(&clock, /*tracing_enabled=*/false);

    runtime::ServingConfig scfg;
    scfg.maxBatchSize = 3;
    scfg.kvPoolBlocks = 64;
    scfg.kvBlockTokens = 16;

    DaemonConfig dcfg = f.daemonConfig();
    dcfg.journalPath = f.dir + "/wdsoak.wal";
    dcfg.snapshotEvery = 8;
    dcfg.leaseTicks = 16;
    dcfg.obs = &obs_ctx;
    // ~4 clock reads inside a healthy guarded iteration (4us) vs a
    // 20us budget: only injected hangs can stall.
    dcfg.watchdogBudgetNanos = 20000;
    dcfg.stallDegradeIterations = 8;

    auto daemon = std::make_unique<Daemon>(&f.engine, scfg, dcfg);
    ASSERT_TRUE(daemon->start());

    uint64_t next_nonce = 1000;
    std::vector<LiveClient> clients;
    auto spawn = [&]() {
        LiveClient lc;
        lc.client =
            std::make_unique<Client>(f.clientConfig(next_nonce));
        next_nonce += 1000;
        ASSERT_EQ(lc.client->connect(), ClientStatus::Pending);
        clients.push_back(std::move(lc));
    };
    for (int i = 0; i < 3; ++i)
        spawn();

    const runtime::Priority kClasses[] = {
        runtime::Priority::Interactive,
        runtime::Priority::Standard,
        runtime::Priority::Batch,
    };
    size_t crashes = 0, wedge_kills = 0, submits = 0;
    std::string first_generation;
    auto restart = [&]() {
        daemon.reset();
        if (first_generation.empty())
            first_generation = testutil::readFile(dcfg.journalPath);
        daemon = std::make_unique<Daemon>(&f.engine, scfg, dcfg);
        ASSERT_TRUE(daemon->start());
    };
    {
        util::FaultInjector injector(0xd06fa017ULL);
        injector.setProbability(util::FaultPoint::Hang, 0.03);
        injector.setProbability(util::FaultPoint::IpcSend, 0.03);
        injector.setProbability(util::FaultPoint::IpcRecv, 0.03);
        // Wedges by occurrence: three iterations that never return,
        // spread across the run.
        injector.armAt(util::FaultPoint::Wedge, 25);
        injector.armAt(util::FaultPoint::Wedge, 80);
        injector.armAt(util::FaultPoint::Wedge, 160);
        util::FaultScope scope(&injector);

        for (size_t round = 0; round < kRounds; ++round) {
            if (!clients.empty() && chaos.uniformInt(100) < 18) {
                LiveClient &lc = clients[static_cast<size_t>(
                    chaos.uniformInt(clients.size()))];
                TrackedRequest req;
                req.prompt = specinfer::testing::randomPrompt(
                    chaos, 2 + static_cast<size_t>(
                                   chaos.uniformInt(5)),
                    64);
                req.maxNewTokens =
                    4 + static_cast<size_t>(chaos.uniformInt(7));
                req.tag = lc.client->submit(
                    req.prompt, req.maxNewTokens,
                    kClasses[chaos.uniformInt(3)]);
                lc.requests.push_back(std::move(req));
                ++submits;
            }

            if (crashes < kMaxCrashes &&
                chaos.uniformInt(1000) < 4) {
                restart();
                ++crashes;
            }

            for (LiveClient &lc : clients) {
                const ClientStatus status = lc.client->poll();
                ASSERT_NE(status, ClientStatus::Corrupt)
                    << "round " << round;
                if (status == ClientStatus::LeaseRevoked)
                    ASSERT_EQ(lc.client->reconnect(),
                              ClientStatus::Pending);
            }
            daemon->tick();

            // Supervisor model: a wedged daemon stops heartbeating
            // and only an external kill recovers it. Journal
            // recovery then resumes the in-flight work.
            if (daemon->wedged()) {
                restart();
                ++wedge_kills;
            }
        }
    } // faults disarmed; the settle phase runs clean

    for (size_t r = 0; r < dcfg.leaseTicks + 8; ++r) {
        for (LiveClient &lc : clients)
            if (lc.client->poll() == ClientStatus::LeaseRevoked)
                ASSERT_EQ(lc.client->reconnect(),
                          ClientStatus::Pending);
        daemon->tick();
    }
    for (size_t r = 0; r < 8000; ++r) {
        size_t inflight = 0;
        for (LiveClient &lc : clients) {
            if (lc.client->poll() == ClientStatus::LeaseRevoked)
                ASSERT_EQ(lc.client->reconnect(),
                          ClientStatus::Pending);
            inflight += lc.client->inflightCount();
        }
        daemon->tick();
        if (inflight == 0 && !daemon->manager().busy())
            break;
    }

    SCOPED_TRACE("submits=" + std::to_string(submits) +
                 " crashes=" + std::to_string(crashes) +
                 " wedgeKills=" + std::to_string(wedge_kills));
    ASSERT_GT(submits, 50u) << "chaos schedule degenerated";
    EXPECT_EQ(wedge_kills, 3u) << "every armed wedge must fire";

    // Every injected stall was detected (the counters span daemon
    // incarnations — the ObsContext outlives them all).
    obs::MetricsSnapshot snap = obs_ctx.metrics().snapshot();
    const obs::SnapshotCounter *stalls =
        snap.findCounter("watchdog_stalls");
    const obs::SnapshotCounter *wedges =
        snap.findCounter("watchdog_wedges");
    ASSERT_NE(stalls, nullptr);
    ASSERT_NE(wedges, nullptr);
    EXPECT_GT(stalls->value, 0u) << "no hang ever stalled";
    EXPECT_EQ(wedges->value, 3u);

    // Streams that resolved match the engine oracle exactly (or a
    // prefix, for aborted stops) — hangs, wedges, and restarts never
    // corrupt tokens.
    for (LiveClient &lc : clients) {
        for (const TrackedRequest &tracked : lc.requests) {
            const ClientRequest *req =
                lc.client->request(tracked.tag);
            ASSERT_NE(req, nullptr);
            ASSERT_TRUE(req->finished ||
                        req->reject != WireReject::None)
                << "tag " << tracked.tag << " never resolved";
            if (!req->finished)
                continue;
            const std::vector<int> full = f.oracle(
                tracked.prompt, req->id, tracked.maxNewTokens);
            if (abortedStop(req->stopReason)) {
                ASSERT_LE(req->tokens.size(), full.size());
                EXPECT_TRUE(std::equal(req->tokens.begin(),
                                       req->tokens.end(),
                                       full.begin()))
                    << "tag " << tracked.tag;
            } else {
                EXPECT_EQ(req->tokens, full)
                    << "tag " << tracked.tag;
            }
        }
    }

    ASSERT_FALSE(daemon->manager().busy());
    ASSERT_NE(daemon->manager().kvPool(), nullptr);
    EXPECT_EQ(daemon->manager().kvPool()->usedBlocks(), 0u);

    daemon->drain();
    for (LiveClient &lc : clients)
        lc.client->disconnect();
    EXPECT_TRUE(listSegments(f.dir, "specinferd").empty())
        << "leaked shared-memory segments";

    expectJournalAppendedAndReplays(dcfg.journalPath,
                                    first_generation, f.engine, scfg);
}

} // namespace
} // namespace ipc
} // namespace specinfer
