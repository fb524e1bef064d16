/**
 * @file
 * In-process co-op tests for the specinferd serving plane: a Daemon
 * and N Clients over real shared-memory segments in a scratch
 * directory, driven tick-by-tick (client.poll() / daemon.tick())
 * so every schedule is deterministic and sanitizer-friendly.
 *
 * Covered: token streams matching the engine oracle, lease reaping
 * of an abandoned (kill -9'd) client without disturbing survivors,
 * typed admission rejections (invalid prompt, queue-full,
 * draining), daemon crash + restart with journaled recovery and
 * client-side resume, the injected `client-reap` fault survived by
 * reconnecting, journal replay, jittered preemption backoff
 * determinism, and the pinned ipc / daemon metrics catalog.
 */

#include "ipc/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <tuple>

#include "../model/test_models.h"
#include "ipc/client.h"
#include "obs/obs.h"
#include "util/fault.h"
#include "verify/journal_replay.h"

#include "ipc_test_util.h"

namespace specinfer {
namespace ipc {
namespace {

using StopReason = core::SpecSession::StopReason;
using testutil::Fixture;
using testutil::pump;
using testutil::pumpUntilIdle;

TEST(DaemonTest, StreamsTokensMatchingEngineOracle)
{
    Fixture f;
    Daemon daemon(&f.engine, f.servingConfig(), f.daemonConfig());
    ASSERT_TRUE(daemon.start());

    Client client(f.clientConfig(1));
    ASSERT_EQ(client.connect(), ClientStatus::Pending);

    std::vector<uint64_t> tags;
    for (int i = 0; i < 3; ++i)
        tags.push_back(client.submit(f.prompt(i), 8));

    pumpUntilIdle(daemon, client, 600);
    ASSERT_EQ(client.inflightCount(), 0u);
    EXPECT_TRUE(client.connected());

    for (int i = 0; i < 3; ++i) {
        const ClientRequest *req = client.request(tags[i]);
        ASSERT_NE(req, nullptr);
        ASSERT_TRUE(req->finished) << "request " << i;
        EXPECT_EQ(req->reject, WireReject::None);
        EXPECT_EQ(req->tokens, f.oracle(f.prompt(i), req->id, 8))
            << "request " << i;
    }

    // Drain unlinks every segment including the board: the scratch
    // directory must hold no shared-memory leftovers.
    daemon.drain();
    EXPECT_TRUE(listSegments(f.dir, "specinferd").empty());
}

TEST(DaemonTest, ReapsAbandonedClientWithoutDisturbingSurvivor)
{
    Fixture f;
    DaemonConfig dcfg = f.daemonConfig();
    // Short lease so the reap lands while the victim's long request
    // is still mid-stream (speculative decoding commits several
    // tokens per tick, so a lazy lease would let it finish first).
    dcfg.leaseTicks = 6;
    Daemon daemon(&f.engine, f.servingConfig(), dcfg);
    ASSERT_TRUE(daemon.start());

    Client victim(f.clientConfig(1));
    Client survivor(f.clientConfig(2));
    ASSERT_EQ(victim.connect(), ClientStatus::Pending);
    ASSERT_EQ(survivor.connect(), ClientStatus::Pending);

    const uint64_t victim_tag = victim.submit(f.prompt(0), 64);
    const uint64_t surv_tag = survivor.submit(f.prompt(1), 10);

    // Let both get admitted and start streaming, then kill -9 the
    // victim: no goodbye, no unlink, just silence.
    pump(daemon, {&victim, &survivor}, 3);
    ASSERT_TRUE(victim.request(victim_tag)->acked);
    const uint64_t victim_id = victim.request(victim_tag)->id;
    victim.abandon();

    // The lease must expire and the reap must cancel the victim's
    // request while the survivor streams on untouched.
    for (size_t r = 0;
         r < dcfg.leaseTicks + 60 &&
         (survivor.inflightCount() > 0 || daemon.reapCount() == 0);
         ++r) {
        survivor.poll();
        daemon.tick();
    }
    EXPECT_EQ(daemon.reapCount(), 1u);
    EXPECT_EQ(daemon.clientCount(), 1u);
    // Only the survivor's segment (and the board) remain on disk.
    EXPECT_EQ(listSegments(f.dir, kClientPrefix).size(), 1u);

    const ClientRequest *surv = survivor.request(surv_tag);
    ASSERT_TRUE(surv->finished);
    EXPECT_EQ(surv->tokens, f.oracle(f.prompt(1), surv->id, 10));

    // The victim's request was cancelled with a prefix of its full
    // stream — never left dangling in the scheduler.
    using Phase = runtime::RequestManager::RequestPhase;
    ASSERT_EQ(daemon.manager().phase(victim_id), Phase::Finished);
    const std::vector<int> full =
        f.oracle(f.prompt(0), victim_id, 64);
    for (const runtime::RequestResult &res :
         daemon.manager().finished()) {
        if (res.id != victim_id)
            continue;
        EXPECT_EQ(res.stopReason, StopReason::Cancelled);
        ASSERT_LE(res.tokens.size(), full.size());
        EXPECT_TRUE(std::equal(res.tokens.begin(),
                               res.tokens.end(), full.begin()));
    }
    daemon.drain();
    EXPECT_TRUE(listSegments(f.dir, "specinferd").empty());
}

TEST(DaemonTest, TypedRejectionsReachTheClient)
{
    Fixture f;
    runtime::ServingConfig scfg = f.servingConfig();
    scfg.maxBatchSize = 1;
    scfg.maxPendingRequests = 1;
    Daemon daemon(&f.engine, scfg, f.daemonConfig());
    ASSERT_TRUE(daemon.start());

    Client client(f.clientConfig(1));
    ASSERT_EQ(client.connect(), ClientStatus::Pending);

    // An empty prompt can never be served.
    const uint64_t bad = client.submit({}, 4);
    // A burst over the bounded pending queue sheds the excess.
    std::vector<uint64_t> burst;
    for (int i = 0; i < 6; ++i)
        burst.push_back(client.submit(f.prompt(i), 6));

    pumpUntilIdle(daemon, client, 600);
    ASSERT_EQ(client.inflightCount(), 0u);

    EXPECT_EQ(client.request(bad)->reject,
              WireReject::InvalidPrompt);
    size_t queue_full = 0;
    for (uint64_t tag : burst) {
        const ClientRequest *req = client.request(tag);
        if (req->reject == WireReject::QueueFull) {
            ++queue_full;
            continue;
        }
        ASSERT_EQ(req->reject, WireReject::None);
        ASSERT_TRUE(req->finished);
        EXPECT_EQ(req->tokens.size(), 6u);
    }
    EXPECT_GE(queue_full, 1u);
    daemon.drain();
}

TEST(DaemonTest, DrainingRejectsLateSubmitsAndSaysGoodbye)
{
    Fixture f;
    Daemon daemon(&f.engine, f.servingConfig(), f.daemonConfig());
    ASSERT_TRUE(daemon.start());

    Client client(f.clientConfig(1));
    ASSERT_EQ(client.connect(), ClientStatus::Pending);
    const uint64_t early = client.submit(f.prompt(0), 24);
    pump(daemon, {&client}, 2); // admitted, still mid-stream
    ASSERT_TRUE(daemon.manager().busy());

    // This submit reaches the ring before drain() pumps it.
    const uint64_t late = client.submit(f.prompt(1), 24);
    client.poll();
    daemon.drain();
    EXPECT_FALSE(daemon.accepting());

    // The drained daemon has unlinked everything, but our mapping
    // stays valid: the final frames are all still readable.
    ClientStatus last = ClientStatus::Ok;
    for (int i = 0; i < 8 &&
                    last != ClientStatus::Disconnected; ++i)
        last = client.poll();
    EXPECT_EQ(last, ClientStatus::Disconnected);

    const ClientRequest *req_early = client.request(early);
    ASSERT_TRUE(req_early->finished);
    EXPECT_EQ(req_early->tokens,
              f.oracle(f.prompt(0), req_early->id, 24));
    EXPECT_EQ(client.request(late)->reject, WireReject::Draining);
    EXPECT_TRUE(listSegments(f.dir, "specinferd").empty());
}

TEST(DaemonTest, CrashRestartRecoversAndResumesStreams)
{
    Fixture f;
    DaemonConfig dcfg = f.daemonConfig();
    dcfg.journalPath = f.dir + "/serve.wal";
    dcfg.snapshotEvery = 4;

    auto daemon = std::make_unique<Daemon>(
        &f.engine, f.servingConfig(), dcfg);
    ASSERT_TRUE(daemon->start());
    const uint64_t first_epoch = daemon->epoch();

    Client client(f.clientConfig(1));
    ASSERT_EQ(client.connect(), ClientStatus::Pending);
    std::vector<uint64_t> tags;
    for (int i = 0; i < 3; ++i)
        tags.push_back(client.submit(f.prompt(i), 10));

    // Run until every request is acked and tokens are mid-stream.
    for (int r = 0; r < 400; ++r) {
        client.poll();
        daemon->tick();
        size_t streamed = 0;
        bool all_acked = true;
        for (uint64_t tag : tags) {
            const ClientRequest *req = client.request(tag);
            streamed += req->tokens.size();
            all_acked = all_acked && req->acked;
        }
        if (all_acked && streamed >= 4)
            break;
    }
    ASSERT_GT(client.inflightCount(), 0u)
        << "crashed too late: everything already finished";

    // kill -9 the daemon: destructor without drain(). Segments,
    // journal and snapshot survive on disk.
    daemon.reset();
    const std::string first_generation =
        testutil::readFile(dcfg.journalPath);
    ASSERT_FALSE(first_generation.empty());
    daemon = std::make_unique<Daemon>(&f.engine, f.servingConfig(),
                                      dcfg);
    ASSERT_TRUE(daemon->start());
    EXPECT_NE(daemon->epoch(), first_epoch);

    // The client notices the epoch bump, re-Hellos, resumes every
    // stream, and each request completes token-identically.
    bool saw_restart = false;
    for (int r = 0; r < 1200 && client.inflightCount() > 0; ++r) {
        if (client.poll() == ClientStatus::DaemonRestarted)
            saw_restart = true;
        daemon->tick();
    }
    EXPECT_TRUE(saw_restart);
    ASSERT_EQ(client.inflightCount(), 0u);
    for (int i = 0; i < 3; ++i) {
        const ClientRequest *req = client.request(tags[i]);
        ASSERT_TRUE(req->finished) << "request " << i;
        EXPECT_NE(static_cast<StopReason>(req->stopReason),
                  StopReason::Cancelled);
        EXPECT_EQ(req->tokens, f.oracle(f.prompt(i), req->id, 10))
            << "request " << i;
    }
    daemon->drain();
    EXPECT_TRUE(listSegments(f.dir, "specinferd").empty());

    // The restart appended: the first generation's bytes are
    // untouched, and the one journal spans both generations and
    // replays token-identically offline.
    const std::string journal = testutil::readFile(dcfg.journalPath);
    ASSERT_GT(journal.size(), first_generation.size());
    EXPECT_TRUE(journal.compare(0, first_generation.size(),
                                first_generation) == 0);
    std::istringstream journal_in(journal);
    std::ostringstream log;
    verify::JournalReplayResult res = verify::replayJournal(
        journal_in, f.engine, f.servingConfig(), log);
    EXPECT_TRUE(res.ok) << log.str();
    EXPECT_EQ(res.mismatches, 0u);
    EXPECT_EQ(res.validBytes, journal.size());
    EXPECT_GE(res.finishesChecked, 3u);
}

TEST(DaemonTest, ShardedDaemonMatchesUnshardedOracleAndReplays)
{
    // A daemon serving at --tp 2 must stream tokens identical to
    // the tp=1 engine oracle (§5j bit-identity at the serving
    // boundary), and its journal must replay token-identically
    // offline through the engine at that same degree.
    Fixture f;
    model::ModelConfig sharded_cfg = model::llmPreset("tiny");
    sharded_cfg.tensorParallel = 2;
    model::Transformer llm = model::makeLlm(sharded_cfg);
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::SpecEngine engine(&llm, {&ssm}, Fixture::engineConfig());

    runtime::ServingConfig scfg = f.servingConfig();
    scfg.tpDegree = 2;
    DaemonConfig dcfg = f.daemonConfig();
    dcfg.journalPath = f.dir + "/sharded.wal";
    Daemon daemon(&engine, scfg, dcfg);
    ASSERT_TRUE(daemon.start());

    Client client(f.clientConfig(1));
    ASSERT_EQ(client.connect(), ClientStatus::Pending);
    std::vector<uint64_t> tags;
    for (int i = 0; i < 3; ++i)
        tags.push_back(client.submit(f.prompt(i), 8));
    pumpUntilIdle(daemon, client, 600);
    ASSERT_EQ(client.inflightCount(), 0u);
    for (int i = 0; i < 3; ++i) {
        const ClientRequest *req = client.request(tags[i]);
        ASSERT_TRUE(req->finished) << "request " << i;
        // The oracle engine is the fixture's UNSHARDED tp=1 engine.
        EXPECT_EQ(req->tokens, f.oracle(f.prompt(i), req->id, 8))
            << "sharded daemon diverged from tp=1 oracle, request "
            << i;
    }
    daemon.drain();

    std::ifstream journal_in(dcfg.journalPath, std::ios::binary);
    ASSERT_TRUE(journal_in.good());
    std::ostringstream log;
    verify::JournalReplayResult res =
        verify::replayJournal(journal_in, engine, scfg, log);
    EXPECT_TRUE(res.ok) << log.str();
    EXPECT_EQ(res.mismatches, 0u);
    EXPECT_GE(res.finishesChecked, 3u);
}

TEST(DaemonTest, InjectedClientReapIsSurvivedByReconnecting)
{
    Fixture f;
    Daemon daemon(&f.engine, f.servingConfig(), f.daemonConfig());
    ASSERT_TRUE(daemon.start());

    Client client(f.clientConfig(1));
    ASSERT_EQ(client.connect(), ClientStatus::Pending);
    std::vector<uint64_t> tags;
    for (int i = 0; i < 2; ++i)
        tags.push_back(client.submit(f.prompt(i), 40));

    // Spurious reap of a live, heartbeating client on the daemon's
    // 5th lease sweep of it — long streams keep both requests
    // mid-flight at that point.
    util::FaultInjector injector(0xc11e47ULL);
    injector.armAt(util::FaultPoint::ClientReap, 5);
    util::FaultScope scope(&injector);

    bool revoked = false;
    for (int r = 0; r < 1200; ++r) {
        const ClientStatus status = client.poll();
        if (status == ClientStatus::LeaseRevoked) {
            revoked = true;
            ASSERT_EQ(client.reconnect(), ClientStatus::Pending);
        }
        daemon.tick();
        bool all_done = true;
        for (uint64_t tag : tags)
            all_done = all_done && client.done(tag);
        if (all_done && client.connected())
            break;
    }
    EXPECT_TRUE(revoked);
    EXPECT_EQ(daemon.reapCount(), 1u);
    EXPECT_TRUE(client.connected());

    // Every request resolved: completed exactly, or cancelled by
    // the reap with a prefix of its full stream (greedy decoding is
    // id-independent, so re-submitted requests match too).
    for (int i = 0; i < 2; ++i) {
        const ClientRequest *req = client.request(tags[i]);
        ASSERT_TRUE(req->finished) << "request " << i;
        const std::vector<int> full =
            f.oracle(f.prompt(i), req->id, 40);
        if (static_cast<StopReason>(req->stopReason) ==
            StopReason::Cancelled) {
            ASSERT_LE(req->tokens.size(), full.size());
            EXPECT_TRUE(std::equal(req->tokens.begin(),
                                   req->tokens.end(),
                                   full.begin()));
        } else {
            EXPECT_EQ(req->tokens, full) << "request " << i;
        }
    }
    daemon.drain();
    EXPECT_TRUE(listSegments(f.dir, "specinferd").empty());
}

TEST(DaemonTest, MetricsCatalogIsPinnedAndCounts)
{
    Fixture f;
    obs::ObsContext obs_ctx;
    DaemonConfig dcfg = f.daemonConfig();
    dcfg.obs = &obs_ctx;
    Daemon daemon(&f.engine, f.servingConfig(), dcfg);
    ASSERT_TRUE(daemon.start());

    // The full catalog exists before any event fires (obs_check
    // pins these names in CI).
    const size_t preregistered =
        obs_ctx.metrics().instrumentCount();
    EXPECT_GE(preregistered, 15u);

    Client client(f.clientConfig(1));
    ASSERT_EQ(client.connect(), ClientStatus::Pending);
    const uint64_t tag = client.submit(f.prompt(0), 6);
    pumpUntilIdle(daemon, client, 400);
    ASSERT_TRUE(client.done(tag));

    obs::MetricsRegistry &m = obs_ctx.metrics();
    EXPECT_GT(m.counter("ipc_frames_sent")->value(), 0u);
    EXPECT_GT(m.counter("ipc_frames_received")->value(), 0u);
    EXPECT_GT(m.counter("ipc_bytes_sent")->value(), 0u);
    EXPECT_GT(m.counter("daemon_requests_admitted")->value(), 0u);
    EXPECT_GT(m.counter("daemon_tokens_streamed")->value(), 0u);
    EXPECT_EQ(m.counter("ipc_crc_rejects")->value(), 0u);
    EXPECT_EQ(m.gauge("daemon_epoch")->value(),
              static_cast<int64_t>(daemon.epoch()));
    // Serving lazily registers its own serving_*/pool_* instruments
    // on top — the daemon catalog itself never shrinks.
    EXPECT_GE(m.instrumentCount(), preregistered);
    daemon.drain();
}

TEST(DaemonTest, PreemptionBackoffJitterIsSeededAndHarmless)
{
    // Satellite check on ServingConfig::backoffJitterSeed: the same
    // seed reproduces the identical preemption schedule; a
    // different seed changes scheduling only — outputs stay exactly
    // the standalone-engine streams. Needs a memory-starved setup
    // like preemption_fcfs_test: stopAtEos off so requests actually
    // run to their token budget and keep the pool under pressure.
    model::Transformer llm = specinfer::testing::tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::EngineConfig ecfg = core::EngineConfig::greedyDefault();
    ecfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
    ecfg.maxNewTokens = 24;
    ecfg.stopAtEos = false;
    core::SpecEngine engine(&llm, {&ssm}, ecfg);

    std::vector<int> p1 = {5, 9, 2, 11};
    std::vector<int> p2 = {6, 3, 8, 1};

    const size_t per_request = p1.size() + ecfg.maxNewTokens +
                               engine.treeBudget() + 2;
    runtime::ServingConfig base;
    base.maxBatchSize = 2;
    base.kvBlockTokens = 8;
    runtime::KvBlockAllocator probe(1000, 8);
    base.kvPoolBlocks = probe.blocksFor(per_request) * 3 / 2;
    base.kvPolicy = runtime::KvReservationPolicy::OnDemand;

    struct Run
    {
        std::vector<int> tokens1, tokens2;
        size_t iterations = 0, preemptions = 0;
        bool operator==(const Run &o) const
        {
            return tokens1 == o.tokens1 && tokens2 == o.tokens2 &&
                   iterations == o.iterations &&
                   preemptions == o.preemptions;
        }
    };
    uint64_t id1 = 0, id2 = 0;
    auto run = [&](uint64_t jitter_seed) {
        runtime::ServingConfig scfg = base;
        scfg.backoffJitterSeed = jitter_seed;
        runtime::RequestManager manager(&engine, scfg);
        id1 = manager.submit(p1).id;
        id2 = manager.submit(p2).id;
        size_t guard = 0;
        while (manager.busy()) {
            manager.runIteration();
            EXPECT_LT(++guard, 800u);
        }
        Run out;
        out.iterations = manager.stats().iterations;
        out.preemptions = manager.stats().preemptions;
        for (const runtime::RequestResult &res :
             manager.finished()) {
            if (res.id == id1)
                out.tokens1 = res.tokens;
            else if (res.id == id2)
                out.tokens2 = res.tokens;
        }
        return out;
    };

    const Run a = run(0x6a177e5ULL);
    const Run b = run(0x6a177e5ULL);
    const Run c = run(0xd1ffe12e47ULL);

    EXPECT_GT(a.preemptions, 0u) << "pool never under pressure";
    EXPECT_TRUE(a == b) << "same jitter seed must replay exactly";

    // Any seed leaves the outputs bit-identical to the standalone
    // engine (scheduling jitter is invisible in the tokens).
    EXPECT_EQ(a.tokens1, engine.generate(p1, id1).tokens);
    EXPECT_EQ(a.tokens2, engine.generate(p2, id2).tokens);
    EXPECT_EQ(c.tokens1, engine.generate(p1, id1).tokens);
    EXPECT_EQ(c.tokens2, engine.generate(p2, id2).tokens);
}

} // namespace
} // namespace ipc
} // namespace specinfer
