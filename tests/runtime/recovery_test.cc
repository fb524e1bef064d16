/**
 * @file
 * Crash-safe serving tests.
 *
 *  - Session snapshot fidelity: a SpecSession saved mid-generation
 *    and reloaded continues bit-identically to the original.
 *  - Deterministic snapshot+journal recovery at a clean iteration
 *    boundary (with and without a snapshot): the recovered
 *    manager's snapshot equals the live one's, and a snapshot holds
 *    no KV rows (smaller than one copy of the sessions' K rows).
 *  - The randomized recovery-equivalence oracle
 *    (verify::runRecoveryTrial): seeded workloads crashed at a
 *    random point inside runIteration() — including mid-append,
 *    leaving a torn journal record — must recover to outputs
 *    token-for-token identical to an uninterrupted run, with equal
 *    per-step cost records. Override
 *    the count with SPECINFER_RECOVERY_TRIALS=<n> and the base seed
 *    with SPECINFER_RECOVERY_SEED=<n>.
 *  - One stats/degradation codec: a snapshot survives a recover
 *    round trip byte for byte, every serving_* gauge equals its
 *    ServingStats field, and atomic snapshot files survive a torn
 *    temporary beside them.
 *  - Replay refuses journals that break the emission order, and
 *    keeps the live order of the pre-phase's growths and releases.
 *  - A crash-recovery soak: continuous batching under all fault
 *    points *plus* probabilistic crashes, recovering every time and
 *    holding the fault-soak invariants (conservation, exact or
 *    prefix outputs, zero KV leaks) to the end.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "obs/obs.h"
#include "runtime/journal.h"
#include "runtime/request_manager.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"
#include "verify/diff_harness.h"

namespace specinfer {
namespace runtime {
namespace {

using core::SpecSession;
using specinfer::testing::tinyLlm;
using util::FaultInjector;
using util::FaultPoint;
using util::FaultScope;

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::strtoull(value, nullptr, 10)
                            : fallback;
}

// ----------------------------------------------------------------
// Session snapshot fidelity.

struct EngineFixture
{
    EngineFixture(bool stochastic = false)
        : llm(tinyLlm()), ssm(model::makeEarlyExitSsm(llm, 2))
    {
        core::EngineConfig cfg =
            stochastic ? core::EngineConfig::stochasticDefault(0.8f)
                       : core::EngineConfig::greedyDefault();
        cfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
        cfg.maxNewTokens = 14;
        cfg.stopAtEos = false;
        engine.reset(new core::SpecEngine(&llm, {&ssm}, cfg));
    }

    model::Transformer llm;
    model::Transformer ssm;
    std::unique_ptr<core::SpecEngine> engine;
};

void
runSessionRoundTrip(bool stochastic)
{
    EngineFixture f(stochastic);
    std::vector<int> prompt = {5, 41, 3, 77, 12};
    SpecSession original =
        f.engine->makeSession(prompt, /*request_seed=*/9);
    for (int i = 0; i < 3 && !original.done(); ++i)
        original.step();

    std::stringstream buf;
    original.save(buf);
    SpecSession restored =
        f.engine->loadSession(buf, /*track=*/9);

    EXPECT_EQ(restored.sequence(), original.sequence());
    EXPECT_EQ(restored.logProbs(), original.logProbs());
    EXPECT_EQ(restored.done(), original.done());
    EXPECT_EQ(restored.stats().steps.size(),
              original.stats().steps.size());

    // The restored session must continue *bit-identically*: same
    // tokens, same log-probs, same per-step stats — the sampler
    // cursor and KV state survived the round trip exactly.
    while (!original.done()) {
        ASSERT_FALSE(restored.done());
        original.step();
        restored.step();
        ASSERT_EQ(restored.sequence(), original.sequence());
    }
    EXPECT_TRUE(restored.done());
    EXPECT_EQ(restored.stopReason(), original.stopReason());
    EXPECT_EQ(restored.logProbs(), original.logProbs());
    EXPECT_EQ(restored.generated(), original.generated());
}

TEST(SessionSnapshotTest, GreedySessionContinuesBitIdentically)
{
    runSessionRoundTrip(false);
}

TEST(SessionSnapshotTest, StochasticSessionContinuesBitIdentically)
{
    // The stochastic path additionally exercises the RNG cursor
    // (multi-step speculative sampling draws per step).
    runSessionRoundTrip(true);
}

// ----------------------------------------------------------------
// Deterministic recovery at a clean iteration boundary.

std::map<uint64_t, std::vector<int>>
finishedMap(const RequestManager &manager)
{
    std::map<uint64_t, std::vector<int>> out;
    for (const RequestResult &res : manager.finished())
        out[res.id] = res.tokens;
    return out;
}

/**
 * Recovery reproduces the live state exactly, every cache level and
 * prefix-store payload included: the recovered manager's snapshot is
 * the live one byte for byte but for the journal offset (a recovered
 * manager starts a new journal epoch at 0).
 */
void
expectSameSnapshot(const RequestManager &recovered,
                   const std::string &live_snapshot)
{
    std::stringstream out;
    recovered.writeSnapshot(out);
    std::string got = out.str();
    constexpr size_t kJournalOffsetAt = 8; // after magic + version
    ASSERT_EQ(got.size(), live_snapshot.size());
    got.replace(kJournalOffsetAt, sizeof(uint64_t),
                live_snapshot.substr(kJournalOffsetAt,
                                     sizeof(uint64_t)));
    EXPECT_TRUE(got == live_snapshot)
        << "recovered snapshot differs from the live one";
}

void
runBoundaryRecovery(bool with_snapshot)
{
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 3;

    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    std::vector<std::vector<int>> prompts = {
        {3, 9, 27}, {8, 1, 5, 44}, {60, 2}, {7, 7, 7, 7, 7}};
    for (size_t i = 0; i < 2; ++i)
        ASSERT_TRUE(live.submit(prompts[i]).accepted());
    for (int it = 0; it < 4; ++it)
        live.runIteration();

    // Capture the persistent state as of this boundary...
    std::stringstream snapshot;
    live.writeSnapshot(snapshot);
    const std::string live_snapshot = snapshot.str();
    std::string journal_bytes = journal_buf.str();

    // Snapshots hold decisions, not KV rows: smaller than a single
    // copy of the active sessions' LLM K rows. After a decode step a
    // session caches all but its last token.
    size_t cached = 0;
    for (const RequestManager::InflightInfo &info : live.inflight())
        cached += info.prompt.size() +
                  live.generatedSoFar(info.id).size() - 1;
    ASSERT_GT(cached, 0u);
    EXPECT_LT(live_snapshot.size(),
              cached * f.llm.config().nLayers *
                  f.llm.makeCache(1).kvDim() * sizeof(float));

    // ...then let the live manager finish (late arrivals included).
    for (size_t i = 2; i < prompts.size(); ++i)
        ASSERT_TRUE(live.submit(prompts[i]).accepted());
    live.runUntilDrained();

    // Rebuild from the captured bytes and replay the same tail.
    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream journal2_buf;
    JournalWriter journal2(journal2_buf);
    recovered.attachJournal(&journal2);
    std::stringstream journal_in(journal_bytes);
    snapshot.seekg(0);
    uint64_t valid = recovered.recover(
        with_snapshot ? &snapshot : nullptr, &journal_in);
    EXPECT_EQ(valid, journal_bytes.size());
    EXPECT_EQ(recovered.stats().iterations, 4u);
    expectSameSnapshot(recovered, live_snapshot);
    for (size_t i = 2; i < prompts.size(); ++i)
        ASSERT_TRUE(recovered.submit(prompts[i]).accepted());
    recovered.runUntilDrained();

    EXPECT_EQ(finishedMap(recovered), finishedMap(live));
    EXPECT_EQ(recovered.stats().requestsFinished,
              live.stats().requestsFinished);
    EXPECT_EQ(recovered.stats().tokensGenerated,
              live.stats().tokensGenerated);
}

TEST(RecoveryTest, JournalOnlyReplayMatchesLiveRun)
{
    runBoundaryRecovery(false);
}

TEST(RecoveryTest, SnapshotPlusJournalTailMatchesLiveRun)
{
    runBoundaryRecovery(true);
}

TEST(RecoveryTest, RecoveredManagerKeepsJournalingForNextCrash)
{
    // The journal attached before recover() must receive the
    // post-recovery records, so a *second* crash can recover from
    // the fresh epoch (snapshot right after recovery + new journal).
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;

    RequestManager first(f.engine.get(), cfg);
    std::stringstream buf1;
    JournalWriter j1(buf1);
    first.attachJournal(&j1);
    ASSERT_TRUE(first.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(first.submit({16, 23, 42}).accepted());
    for (int it = 0; it < 3; ++it)
        first.runIteration();

    RequestManager second(f.engine.get(), cfg);
    std::stringstream buf2;
    JournalWriter j2(buf2);
    second.attachJournal(&j2);
    std::stringstream in1(buf1.str());
    second.recover(nullptr, &in1);
    std::stringstream snap2;
    second.writeSnapshot(snap2);
    for (int it = 0; it < 2; ++it)
        second.runIteration();
    EXPECT_GT(j2.bytesWritten(), 0u);

    RequestManager third(f.engine.get(), cfg);
    std::stringstream in2(buf2.str());
    // The epoch snapshot recorded offset 0 of the *new* journal.
    snap2.seekg(0);
    third.recover(&snap2, &in2);
    third.runUntilDrained();

    RequestManager reference(f.engine.get(), cfg);
    ASSERT_TRUE(reference.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(reference.submit({16, 23, 42}).accepted());
    reference.runUntilDrained();
    EXPECT_EQ(finishedMap(third), finishedMap(reference));
}

// ----------------------------------------------------------------
// Replay keeps the pre-phase's allocator order.

/**
 * On-demand paging with prefix sharing: request P leaves its prompt
 * blocks in the prefix cache, then A and C share the batch. In one
 * iteration A's growth evicts one of P's cached blocks, and C, later
 * in the batch, then leaves — it expires (c_deadline 1) or cannot
 * grow and is preempted (c_deadline 4). Recovering from the journal
 * must rebuild the live allocator: replay that released C's blocks
 * before growing A would find free blocks and evict nothing.
 */
void
runPrePhaseOrdering(size_t c_deadline, bool expires)
{
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.kvBlockTokens = 4;
    cfg.kvPoolBlocks = 11;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.kvPrefixSharing = true;
    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);

    ASSERT_TRUE(live.submit({10, 11, 12, 13, 14, 15, 16, 17}, 1)
                    .accepted());
    while (live.finished().empty())
        live.runIteration();
    ASSERT_EQ(live.kvPool()->residentSharedBlocks(), 2u);
    ASSERT_TRUE(live.submit({40, 41, 42}).accepted());
    ASSERT_TRUE(live.submit({50, 51, 52}, 0, c_deadline).accepted());
    live.runIteration(); // admits A then C
    const KvMemoryStats &kv = live.kvPool()->stats();
    bool seen = false;
    for (int it = 0; it < 8 && !seen; ++it) {
        const size_t evictions = kv.sharedEvictions;
        const size_t expiries = live.stats().deadlineExpiries;
        const size_t preemptions = live.stats().preemptions;
        live.runIteration();
        seen = kv.sharedEvictions > evictions &&
               (expires ? live.stats().deadlineExpiries > expiries
                        : live.stats().preemptions > preemptions);
    }
    ASSERT_TRUE(seen) << "no iteration both evicted and lost C";

    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream journal_in(journal_buf.str());
    recovered.recover(nullptr, &journal_in);
    std::stringstream live_snapshot;
    live.writeSnapshot(live_snapshot);
    expectSameSnapshot(recovered, live_snapshot.str());
    auto cache = [](const RequestManager &m) {
        std::map<uint64_t, size_t> refs;
        for (const auto &[hash, block] : m.kvPool()->sharedTable())
            refs[hash] = block.refs;
        return refs;
    };
    EXPECT_EQ(cache(recovered), cache(live));
    for (uint64_t id : {2, 3})
        EXPECT_EQ(recovered.kvPool()->requestBlocks(id),
                  live.kvPool()->requestBlocks(id))
            << "request " << id;
    const KvMemoryStats &rkv = recovered.kvPool()->stats();
    EXPECT_EQ(rkv.sharedEvictions, kv.sharedEvictions);
    EXPECT_EQ(rkv.prefixHits, kv.prefixHits);
    EXPECT_EQ(rkv.prefixMisses, kv.prefixMisses);
    EXPECT_EQ(rkv.cowCopies, kv.cowCopies);
    EXPECT_EQ(rkv.totalReservations, kv.totalReservations);
    EXPECT_EQ(rkv.peakUsedBlocks, kv.peakUsedBlocks);
}

TEST(RecoveryTest, PrePhaseGrowthReplaysBeforeLaterExpiry)
{
    runPrePhaseOrdering(/*c_deadline=*/1, /*expires=*/true);
}

TEST(RecoveryTest, PrePhaseGrowthReplaysBeforeLaterPreemption)
{
    runPrePhaseOrdering(/*c_deadline=*/4, /*expires=*/false);
}

// ----------------------------------------------------------------
// Tensor-parallel serving: the degree rides through snapshots.

struct ShardedEngineFixture
{
    explicit ShardedEngineFixture(size_t tp)
        : llm(makeShardedLlm(tp)),
          ssm(model::makeEarlyExitSsm(llm, 2))
    {
        core::EngineConfig cfg = core::EngineConfig::greedyDefault();
        cfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
        cfg.maxNewTokens = 14;
        cfg.stopAtEos = false;
        engine.reset(new core::SpecEngine(&llm, {&ssm}, cfg));
    }

    static model::Transformer makeShardedLlm(size_t tp)
    {
        model::ModelConfig cfg = specinfer::testing::tinyConfig();
        cfg.tensorParallel = tp;
        return model::makeLlm(cfg);
    }

    model::Transformer llm;
    model::Transformer ssm;
    std::unique_ptr<core::SpecEngine> engine;
};

TEST(RecoveryTest, ShardedServingRecoversBitIdentically)
{
    // A tp=2 serving run, crashed at an iteration boundary and
    // recovered under the same degree, must finish with outputs
    // identical to both its own uninterrupted run AND an unsharded
    // tp=1 reference — §5j bit-identity lifted to the serving layer.
    ShardedEngineFixture f(2);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.tpDegree = 2;

    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    ASSERT_TRUE(live.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(live.submit({16, 23, 42}).accepted());
    for (int it = 0; it < 3; ++it)
        live.runIteration();
    std::stringstream snapshot;
    live.writeSnapshot(snapshot);
    std::string journal_bytes = journal_buf.str();
    live.runUntilDrained();

    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream journal_in(journal_bytes);
    recovered.recover(&snapshot, &journal_in);
    recovered.runUntilDrained();
    EXPECT_EQ(finishedMap(recovered), finishedMap(live));

    ShardedEngineFixture unsharded(1);
    ServingConfig ref_cfg;
    ref_cfg.maxBatchSize = 2;
    RequestManager reference(unsharded.engine.get(), ref_cfg);
    ASSERT_TRUE(reference.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(reference.submit({16, 23, 42}).accepted());
    reference.runUntilDrained();
    EXPECT_EQ(finishedMap(recovered), finishedMap(reference));
}

TEST(RecoveryDeathTest, TpDegreeMismatchRefusesRecovery)
{
    // A snapshot taken at tp=1 must not silently resume under a
    // resharded manager: the typed check names both degrees.
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    ASSERT_TRUE(live.submit({4, 8, 15}).accepted());
    live.runIteration();
    std::stringstream snapshot;
    live.writeSnapshot(snapshot);

    ServingConfig sharded_cfg;
    sharded_cfg.maxBatchSize = 2;
    sharded_cfg.tpDegree = 2;
    RequestManager mismatched(f.engine.get(), sharded_cfg);
    std::stringstream journal_in(journal_buf.str());
    EXPECT_DEATH(mismatched.recover(&snapshot, &journal_in),
                 "tensor-parallel degree");
}

TEST(RecoveryDeathTest, OutOfRangeSnapshotPriorityRefusesRecovery)
{
    // The priority byte indexes per-class arrays, so a snapshot naming
    // a class past the last one is corrupt, like any other
    // implausible field. The byte follows a pending request's
    // deadlineNanos, whose value is unique in the stream.
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    RequestManager live(f.engine.get(), cfg);
    const uint64_t marker = 0x0123456789abcdefULL;
    ASSERT_TRUE(
        live.submit({4, 8, 15}, 8, 0, Priority::Batch, marker)
            .accepted());
    std::stringstream snapshot;
    live.writeSnapshot(snapshot);
    std::string bytes = snapshot.str();
    const size_t at = bytes.find(std::string(
        reinterpret_cast<const char *>(&marker), sizeof(marker)));
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(bytes[at + sizeof(marker)],
              static_cast<char>(Priority::Batch));
    bytes[at + sizeof(marker)] = 3;

    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream damaged(bytes), journal_in;
    EXPECT_DEATH(recovered.recover(&damaged, &journal_in),
                 "snapshot priority class 3 out of range");
}

TEST(RecoveryDeathTest, JournalShorterThanItsSnapshotRefusesRecovery)
{
    // A snapshot covering more journal than the stream holds belongs
    // to another journal. Recovery must refuse it, not return an
    // offset past the end for an appending caller to zero-fill up to.
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    ASSERT_TRUE(live.submit({4, 8, 15}).accepted());
    live.runIteration();
    std::stringstream snapshot;
    live.writeSnapshot(snapshot);

    const std::string bytes = journal_buf.str();
    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream short_journal(bytes.substr(0, bytes.size() - 1));
    // The child re-executes the binary instead of forking this
    // process: a forked child of the pooled process blocks here.
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(recovered.recover(&snapshot, &short_journal),
                 "but its snapshot covers");
    ::testing::FLAGS_gtest_death_test_style = style;
}

// ----------------------------------------------------------------
// One codec per fact: stats, degradation, snapshot files.

TEST(RecoveryTest, StatsRoundTripSnapshotsAndMatchGauges)
{
    // Drive every stop-reason and degradation counter, then check
    // the one ServingStats list three ways: snapshot -> recover ->
    // snapshot is byte-identical (bar the journal offset), and each
    // serving_* gauge equals its field.
    EngineFixture f;
    obs::ManualClock clock(0);
    obs::ObsContext obs_ctx(&clock, /*tracing_enabled=*/false);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.kvPoolBlocks = 14;
    cfg.kvBlockTokens = 4;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.kvPrefixSharing = true;
    cfg.maxPendingRequests = 2;
    cfg.maxPreemptions = 2;
    cfg.classBucketCapacity[static_cast<size_t>(Priority::Batch)] = 2;
    cfg.classRefillEveryIterations[static_cast<size_t>(
        Priority::Batch)] = 50;
    cfg.obs = &obs_ctx;
    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);

    FaultInjector fi(7);
    fi.setProbability(FaultPoint::SsmStep, 0.3);
    fi.setProbability(FaultPoint::KvAlloc, 0.2);
    fi.setProbability(FaultPoint::SlowIteration, 0.05);
    FaultScope scope(&fi);
    util::Rng rng(11);
    for (int it = 0; it < 60; ++it) {
        std::vector<int> prompt = {1 + it % 50, 2 + it % 7, 3};
        const Priority cls =
            static_cast<Priority>(rng.uniformInt(kPriorityCount));
        const SubmitResult sr =
            live.submit(prompt, 0, it % 5 == 0 ? 3 : 0, cls);
        if (sr.accepted() && it % 7 == 3)
            live.cancel(sr.id);
        if (it == 30)
            live.forceDegrade(6);
        live.runIteration();
    }
    live.forceDegrade(4);
    live.publishMetrics();

    const ServingStats &st = live.stats();
    EXPECT_GT(st.shedRequests, 0u);
    EXPECT_GT(st.rejectedQueueFull, 0u);
    EXPECT_GT(st.rejectedOverloaded, 0u);
    EXPECT_GT(st.cancellations, 0u);
    EXPECT_GT(st.deadlineExpiries, 0u);
    EXPECT_GT(st.preemptions, 0u);
    EXPECT_GT(st.preemptionRetries, 0u);
    EXPECT_GT(st.fallbackSteps, 0u);
    EXPECT_GT(st.degradedIterations, 0u);
    EXPECT_GT(st.slowIterations, 0u);
    ASSERT_GT(live.activeCount() + live.pendingCount(), 0u);

    std::stringstream first;
    live.writeSnapshot(first);
    RequestManager recovered(f.engine.get(), cfg);
    recovered.recover(&first, nullptr);
    std::stringstream second;
    recovered.writeSnapshot(second);
    std::string a = first.str(), b = second.str();
    ASSERT_EQ(a.size(), b.size());
    // Bytes 8..16 hold the journal offset: only the live manager
    // has a journal attached.
    EXPECT_NE(a.substr(8, 8), b.substr(8, 8));
    a.replace(8, 8, 8, '\0');
    b.replace(8, 8, 8, '\0');
    EXPECT_TRUE(a == b) << "snapshot changed across recover()";

    const obs::MetricsSnapshot m = obs_ctx.metrics().snapshot();
    const std::pair<const char *, size_t> fields[] = {
        {"serving_iterations", st.iterations},
        {"serving_requests_submitted", st.requestsSubmitted},
        {"serving_requests_finished", st.requestsFinished},
        {"serving_tokens_generated", st.tokensGenerated},
        {"serving_request_iterations", st.requestIterations},
        {"serving_preemptions", st.preemptions},
        {"serving_rejected_queue_full", st.rejectedQueueFull},
        {"serving_rejected_never_fits", st.rejectedNeverFits},
        {"serving_shed_requests", st.shedRequests},
        {"serving_deadline_expiries", st.deadlineExpiries},
        {"serving_cancellations", st.cancellations},
        {"serving_fallback_steps", st.fallbackSteps},
        {"serving_degraded_iterations", st.degradedIterations},
        {"serving_preemption_retries", st.preemptionRetries},
        {"serving_preemption_aborts", st.preemptionAborts},
        {"serving_slow_iterations", st.slowIterations},
        {"serving_rejected_overloaded", st.rejectedOverloaded},
        {"serving_shed_by_class_interactive", st.shedByClass[0]},
        {"serving_shed_by_class_standard", st.shedByClass[1]},
        {"serving_shed_by_class_batch", st.shedByClass[2]},
        {"serving_speculation_disabled", 1},
    };
    for (const auto &[name, value] : fields) {
        const obs::SnapshotGauge *g = m.findGauge(name);
        ASSERT_NE(g, nullptr) << name;
        EXPECT_EQ(g->value, static_cast<int64_t>(value)) << name;
    }
}

TEST(RecoveryTest, TornSnapshotTmpBesideIntactSnapshotStillRecovers)
{
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    ASSERT_TRUE(live.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(live.submit({16, 23, 42}).accepted());
    for (int it = 0; it < 3; ++it)
        live.runIteration();
    const std::string path =
        ::testing::TempDir() + "/specinfer_recovery_test.snap";
    const std::string tmp = path + ".tmp";
    live.saveSnapshot(path);
    EXPECT_FALSE(std::ifstream(tmp).good()) << "tmp not renamed";

    // The next save dies mid-write: half a newer snapshot in the
    // temporary file, then the process is gone.
    live.runIteration();
    std::stringstream newer;
    live.writeSnapshot(newer);
    std::ofstream(tmp, std::ios::binary)
        << newer.str().substr(0, newer.str().size() / 2);
    const std::string journal_bytes = journal_buf.str();
    live.runUntilDrained();

    RequestManager recovered(f.engine.get(), cfg);
    std::ifstream snap(path, std::ios::binary);
    std::stringstream journal_in(journal_bytes);
    recovered.recover(&snap, &journal_in);
    // A later save replaces the torn temporary and the snapshot.
    recovered.saveSnapshot(path);
    EXPECT_FALSE(std::ifstream(tmp).good()) << "stale tmp survived";
    std::stringstream expected;
    recovered.writeSnapshot(expected);
    std::ifstream saved(path, std::ios::binary);
    std::stringstream saved_bytes;
    saved_bytes << saved.rdbuf();
    EXPECT_TRUE(saved_bytes.str() == expected.str());
    recovered.runUntilDrained();
    EXPECT_EQ(finishedMap(recovered), finishedMap(live));
    std::remove(path.c_str());
}

// ----------------------------------------------------------------
// Replay refuses journals that break the emission order.

std::string
journalOf(const std::vector<JournalRecord> &records)
{
    std::stringstream buf;
    JournalWriter writer(buf);
    for (const JournalRecord &rec : records)
        writer.append(rec);
    return buf.str();
}

/** Submit of request 1 then the Begin of iteration 0: the prefix
 *  every hand-built journal below continues without an Admit. */
std::vector<JournalRecord>
submittedNotAdmitted()
{
    JournalRecord submit;
    submit.type = RecordType::Submit;
    submit.id = 1;
    submit.prompt = {4, 8, 15};
    JournalRecord begin;
    begin.type = RecordType::Begin;
    return {submit, begin};
}

TEST(RecoveryDeathTest, StepWithoutAdmitRefusesRecovery)
{
    EngineFixture f;
    std::vector<JournalRecord> records = submittedNotAdmitted();
    JournalRecord step;
    step.type = RecordType::Step;
    step.id = 1;
    step.step.prefill = true;
    step.step.llmChunkTokens = 3;
    records.push_back(step);
    std::stringstream journal_in(journalOf(records));
    RequestManager mgr(f.engine.get(), ServingConfig{});
    EXPECT_DEATH(mgr.recover(nullptr, &journal_in),
                 "journal Step for request 1 without its Admit");
}

TEST(RecoveryDeathTest, PreemptWithoutAdmitRefusesRecovery)
{
    EngineFixture f;
    std::vector<JournalRecord> records = submittedNotAdmitted();
    JournalRecord preempt;
    preempt.type = RecordType::Preempt;
    preempt.id = 1;
    preempt.preemptionCount = 1;
    preempt.earliestRestart = 2;
    records.push_back(preempt);
    std::stringstream journal_in(journalOf(records));
    RequestManager mgr(f.engine.get(), ServingConfig{});
    EXPECT_DEATH(mgr.recover(nullptr, &journal_in),
                 "journal Preempt for request 1 without its Admit");
}

// ----------------------------------------------------------------
// The randomized recovery-equivalence oracle.

TEST(RecoveryTest, SeededCrashTrialsRecoverBitIdentically)
{
    const uint64_t base = envOr("SPECINFER_RECOVERY_SEED", 8062026);
    const uint64_t trials = envOr("SPECINFER_RECOVERY_TRIALS", 1000);
    for (uint64_t i = 0; i < trials; ++i) {
        verify::TrialOutcome out =
            verify::runRecoveryTrial(base + i);
        ASSERT_TRUE(out.ok)
            << "seed " << (base + i) << ": " << out.detail << "\n"
            << out.configLine;
    }
}

// ----------------------------------------------------------------
// Crash-recovery soak: crashes layered on the full fault soak.

TEST(RecoverySoakTest, CrashesUnderFaultLoadKeepEveryInvariant)
{
    const uint64_t seed = envOr("SPECINFER_RECOVERY_SEED", 8062026);
    const size_t soak_iterations =
        envOr("SPECINFER_RECOVERY_SOAK_ITERATIONS", 2500);
    const size_t snapshot_every = 16;

    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::EngineConfig ecfg = core::EngineConfig::greedyDefault();
    ecfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
    ecfg.maxNewTokens = 16;
    ecfg.stopAtEos = false;
    core::SpecEngine engine(&llm, {&ssm}, ecfg);

    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.kvBlockTokens = 8;
    size_t per_request =
        6 + ecfg.maxNewTokens + engine.treeBudget() + 2;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(per_request) * 5 / 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.maxPendingRequests = 8;
    cfg.maxPreemptions = 4;
    cfg.defaultDeadlineIterations = 400;
    cfg.degradeAfterConsecutiveFaults = 3;
    cfg.degradeBackoffIterations = 8;

    FaultInjector fi(seed);
    fi.setProbability(FaultPoint::SsmStep, 0.08);
    fi.setProbability(FaultPoint::Verify, 0.04);
    fi.setProbability(FaultPoint::KvAlloc, 0.04);
    fi.setProbability(FaultPoint::SlowIteration, 0.02);
    fi.setProbability(FaultPoint::Crash, 0.004);

    util::Rng workload(seed ^ 0x50a4ULL);

    struct Submitted
    {
        std::vector<int> prompt;
        size_t maxNewTokens;
    };
    std::map<uint64_t, Submitted> accepted;
    std::vector<uint64_t> live;
    size_t rejected = 0, crashes = 0;

    auto manager = std::unique_ptr<RequestManager>(
        new RequestManager(&engine, cfg));
    auto journal_buf =
        std::unique_ptr<std::stringstream>(new std::stringstream);
    auto journal = std::unique_ptr<JournalWriter>(
        new JournalWriter(*journal_buf));
    manager->attachJournal(journal.get());
    std::string snap_bytes; // empty = no snapshot yet

    // Discard the crashed manager and rebuild purely from the
    // persisted bytes; start a fresh journal epoch (new journal +
    // immediate snapshot) so the *next* crash recovers too.
    auto recoverNow = [&]() {
        ++crashes;
        auto buf2 = std::unique_ptr<std::stringstream>(
            new std::stringstream);
        auto journal2 = std::unique_ptr<JournalWriter>(
            new JournalWriter(*buf2));
        auto fresh = std::unique_ptr<RequestManager>(
            new RequestManager(&engine, cfg));
        fresh->attachJournal(journal2.get());
        std::stringstream journal_in(journal_buf->str());
        std::unique_ptr<std::stringstream> snap_in;
        if (!snap_bytes.empty())
            snap_in.reset(new std::stringstream(snap_bytes));
        fresh->recover(snap_in.get(), &journal_in);
        manager = std::move(fresh);
        journal = std::move(journal2);
        journal_buf = std::move(buf2);
        std::stringstream snap_out;
        manager->writeSnapshot(snap_out);
        snap_bytes = snap_out.str();
    };

    {
        FaultScope scope(&fi);
        for (size_t it = 0; it < soak_iterations; ++it) {
            if (workload.uniform() < 0.22) {
                Submitted sub;
                size_t len = 3 + size_t(workload.uniform() * 4);
                for (size_t t = 0; t < len; ++t)
                    sub.prompt.push_back(
                        1 + int(workload.uniform() * 90));
                sub.maxNewTokens =
                    8 + size_t(workload.uniform() * 9);
                size_t deadline = 0;
                if (workload.uniform() < 0.2)
                    deadline = 30 + size_t(workload.uniform() * 31);
                SubmitResult sr = manager->submit(
                    sub.prompt, sub.maxNewTokens, deadline);
                if (sr.accepted()) {
                    accepted.emplace(sr.id, std::move(sub));
                    live.push_back(sr.id);
                } else {
                    ASSERT_EQ(sr.reject, RejectReason::QueueFull)
                        << fi.reproLine();
                    ++rejected;
                }
            }
            if (!live.empty() && workload.uniform() < 0.01) {
                size_t pick =
                    size_t(workload.uniform() * double(live.size()));
                pick = std::min(pick, live.size() - 1);
                manager->cancel(live[pick]);
            }
            manager->runIteration();
            if (manager->crashed()) {
                recoverNow();
                continue; // the iteration was lost; re-run it
            }
            if ((it + 1) % snapshot_every == 0) {
                std::stringstream snap_out;
                manager->writeSnapshot(snap_out);
                snap_bytes = snap_out.str();
            }
            if (live.size() > 64 || it + 1 == soak_iterations) {
                std::map<uint64_t, bool> done;
                for (const RequestResult &res : manager->finished())
                    done[res.id] = true;
                std::vector<uint64_t> still;
                for (uint64_t id : live)
                    if (!done.count(id))
                        still.push_back(id);
                live.swap(still);
            }
        }
        size_t guard = 0;
        while (manager->busy()) {
            manager->runIteration();
            if (manager->crashed())
                recoverNow();
            ASSERT_LT(++guard, 20000u)
                << "soak livelock: " << fi.reproLine();
        }
    }

    // Conservation across every crash: exactly one result per
    // accepted request, none invented, none lost.
    ASSERT_EQ(manager->finished().size(), accepted.size())
        << fi.reproLine();
    std::map<uint64_t, const RequestResult *> results;
    for (const RequestResult &res : manager->finished()) {
        ASSERT_TRUE(accepted.count(res.id)) << fi.reproLine();
        ASSERT_TRUE(results.emplace(res.id, &res).second)
            << "duplicate result for id " << res.id;
    }

    // The differential oracle still holds through crashes: finished
    // requests are token-identical to the fault-free engine output,
    // aborted ones are a prefix of it.
    size_t normal = 0, aborted = 0;
    for (const auto &entry : results) {
        const RequestResult &res = *entry.second;
        const Submitted &sub = accepted.at(res.id);
        std::vector<int> want =
            engine.generate(sub.prompt, res.id, sub.maxNewTokens)
                .tokens;
        switch (res.stopReason) {
        case SpecSession::StopReason::MaxTokens:
        case SpecSession::StopReason::Eos:
        case SpecSession::StopReason::StopSequence:
        case SpecSession::StopReason::CapacityLimit:
            ++normal;
            EXPECT_EQ(res.tokens, want)
                << "id " << res.id << ": " << fi.reproLine();
            break;
        case SpecSession::StopReason::Deadline:
        case SpecSession::StopReason::Cancelled:
        case SpecSession::StopReason::Preempted:
        case SpecSession::StopReason::Shed:
            ++aborted;
            ASSERT_LE(res.tokens.size(), want.size())
                << fi.reproLine();
            EXPECT_TRUE(std::equal(res.tokens.begin(),
                                   res.tokens.end(), want.begin()))
                << "id " << res.id
                << " partial output is not a prefix: "
                << fi.reproLine();
            break;
        case SpecSession::StopReason::None:
            FAIL() << "id " << res.id << " finished without a "
                   << "stop reason: " << fi.reproLine();
        }
    }

    EXPECT_GT(crashes, 0u) << fi.reproLine();
    EXPECT_GT(normal, 0u) << fi.reproLine();
    EXPECT_EQ(manager->kvPool()->usedBlocks(), 0u)
        << fi.reproLine();
    EXPECT_EQ(manager->kvPool()->stats().redundantReleases, 0u)
        << fi.reproLine();

    SPECINFER_INFO("recovery soak: " << crashes << " crashes, "
                                     << normal << " exact, "
                                     << aborted << " aborted-prefix; "
                                     << fi.reproLine());
}

} // namespace
} // namespace runtime
} // namespace specinfer
