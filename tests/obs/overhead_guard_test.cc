/**
 * @file
 * Overhead guard: observability must never change what the system
 * computes.
 *
 *  - Generation and serving outputs are bit-identical across all
 *    three obs modes (no context / metrics-only / full tracing),
 *    preserving the differential-oracle guarantees of earlier PRs.
 *  - The engine decode path makes *zero* clock reads when tracing
 *    is off (metrics-only mode stays off the hot path).
 *  - Crash recovery with tracing enabled reproduces the exact
 *    outputs of an uninstrumented uninterrupted run, and the
 *    recovered run's metrics/trace are byte-reproducible.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../model/test_models.h"
#include "core/spec_engine.h"
#include "model/model_factory.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/journal.h"
#include "runtime/request_manager.h"

namespace specinfer {
namespace obs {
namespace {

using specinfer::testing::tinyLlm;
using specinfer::testing::withoutPoolSize;

core::EngineConfig
engineConfig(ObsContext *ctx)
{
    core::EngineConfig cfg = core::EngineConfig::greedyDefault();
    cfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
    cfg.maxNewTokens = 10;
    cfg.stopAtEos = false;
    cfg.obs = ctx;
    return cfg;
}

std::vector<int>
promptFor(int i)
{
    return {4 + i, 19, 3 + (i % 6), 8};
}

std::map<uint64_t, std::vector<int>>
finishedMap(const runtime::RequestManager &manager)
{
    std::map<uint64_t, std::vector<int>> out;
    for (const runtime::RequestResult &res : manager.finished())
        out[res.id] = res.tokens;
    return out;
}

TEST(OverheadGuardTest, GenerationBitIdenticalAcrossObsModes)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);

    // Mode 1: fully uninstrumented (the pre-obs configuration).
    core::SpecEngine plain(&llm, {&ssm}, engineConfig(nullptr));
    // Mode 2: metrics only, tracing off.
    ManualClock clock_m(0, 1000);
    ObsContext metrics_only(&clock_m, /*tracing_enabled=*/false);
    core::SpecEngine metered(&llm, {&ssm},
                             engineConfig(&metrics_only));
    // Mode 3: metrics + tracing.
    ManualClock clock_t(0, 1000);
    ObsContext traced_ctx(&clock_t, /*tracing_enabled=*/true);
    core::SpecEngine traced(&llm, {&ssm}, engineConfig(&traced_ctx));

    for (int i = 0; i < 4; ++i) {
        core::GenerationResult a =
            plain.generate(promptFor(i), /*request_seed=*/i);
        core::GenerationResult b =
            metered.generate(promptFor(i), i);
        core::GenerationResult c =
            traced.generate(promptFor(i), i);
        EXPECT_EQ(b.tokens, a.tokens) << "metrics-only, prompt " << i;
        EXPECT_EQ(c.tokens, a.tokens) << "traced, prompt " << i;
        EXPECT_EQ(b.logProbs, a.logProbs);
        EXPECT_EQ(c.logProbs, a.logProbs);
    }

    // Metrics-only mode never touches the clock on the decode path;
    // tracing mode timed spans, so it read the clock.
    EXPECT_EQ(clock_m.reads(), 0u);
    EXPECT_GT(clock_t.reads(), 0u);
    EXPECT_GT(traced_ctx.tracer().eventCount(), 0u);
    EXPECT_GT(
        metrics_only.metrics().counter("engine_tokens_verified")
            ->value(),
        0u);
}

TEST(OverheadGuardTest, ServingBitIdenticalAcrossObsModes)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);

    auto runMode = [&](ObsContext *ctx) {
        core::SpecEngine engine(&llm, {&ssm}, engineConfig(ctx));
        runtime::ServingConfig cfg;
        cfg.maxBatchSize = 2;
        cfg.obs = ctx;
        runtime::RequestManager manager(&engine, cfg);
        for (int i = 0; i < 5; ++i)
            manager.submit(promptFor(i));
        manager.runUntilDrained();
        return finishedMap(manager);
    };

    std::map<uint64_t, std::vector<int>> plain = runMode(nullptr);

    ManualClock clock_m(0, 1000);
    ObsContext metrics_only(&clock_m, false);
    EXPECT_EQ(runMode(&metrics_only), plain);

    ManualClock clock_t(0, 1000);
    ObsContext traced(&clock_t, true);
    EXPECT_EQ(runMode(&traced), plain);
    EXPECT_GT(traced.tracer().eventCount(), 0u);
}

TEST(OverheadGuardTest, GlobalContextResolvesWithoutPerturbing)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);

    // Reference: no obs anywhere.
    core::SpecEngine plain(&llm, {&ssm}, engineConfig(nullptr));
    core::GenerationResult ref = plain.generate(promptFor(0), 0);

    // Same workload with a process-global context installed and no
    // explicit pointer: everything resolves through globalObs(),
    // including the transformer's per-phase kernel counters.
    ManualClock clock(0); // frozen: pool workers may read it too
    ObsContext ctx(&clock, true);
    ObsContext *prev = setGlobalObs(&ctx);
    core::SpecEngine global_engine(&llm, {&ssm},
                                   engineConfig(nullptr));
    core::GenerationResult out = global_engine.generate(
        promptFor(0), 0);
    setGlobalObs(prev);

    EXPECT_EQ(out.tokens, ref.tokens);
    EXPECT_EQ(out.logProbs, ref.logProbs);
    EXPECT_GT(
        ctx.metrics().counter("model_kernel_launches")->value(), 0u);
    EXPECT_GT(ctx.tracer().eventCount(), 0u);
}

// ----------------------------------------------------------------
// Crash/recovery with observability enabled.
// ----------------------------------------------------------------

struct RecoveredRun
{
    std::map<uint64_t, std::vector<int>> finished;
    MetricsSnapshot metrics;
    std::string trace;
};

/**
 * Journal a 2-request run for 4 iterations, "crash" (drop the live
 * manager), then rebuild from the journal bytes under a *fresh*
 * fully-traced ObsContext, submit 2 late requests, and drain.
 * `clock_step` is the recovering ManualClock's auto-step per read
 * (0 = frozen clock).
 */
RecoveredRun
runCrashRecoverWorkload(uint64_t clock_step = 1000)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    runtime::ServingConfig cfg;
    cfg.maxBatchSize = 3;

    // Phase 1: the doomed live manager (uninstrumented — it dies).
    std::string journal_bytes;
    {
        core::SpecEngine engine(&llm, {&ssm}, engineConfig(nullptr));
        runtime::RequestManager live(&engine, cfg);
        std::stringstream journal_buf;
        runtime::JournalWriter journal(journal_buf);
        live.attachJournal(&journal);
        for (int i = 0; i < 2; ++i)
            EXPECT_TRUE(live.submit(promptFor(i)).accepted());
        for (int it = 0; it < 4; ++it)
            live.runIteration();
        journal_bytes = journal_buf.str();
    }

    // Phase 2: recover under full instrumentation.
    ManualClock clock(0, clock_step);
    ObsContext ctx(&clock, true);
    core::SpecEngine engine(&llm, {&ssm}, engineConfig(&ctx));
    runtime::ServingConfig rcfg = cfg;
    rcfg.obs = &ctx;
    runtime::RequestManager recovered(&engine, rcfg);
    std::stringstream journal2_buf;
    runtime::JournalWriter journal2(journal2_buf);
    recovered.attachJournal(&journal2);
    std::stringstream journal_in(journal_bytes);
    recovered.recover(nullptr, &journal_in);
    for (int i = 2; i < 4; ++i)
        EXPECT_TRUE(recovered.submit(promptFor(i)).accepted());
    recovered.runUntilDrained();

    RecoveredRun run;
    run.finished = finishedMap(recovered);
    run.metrics = ctx.metrics().snapshot();
    std::ostringstream trace_out;
    ctx.tracer().writeChromeTrace(trace_out);
    run.trace = trace_out.str();
    return run;
}

TEST(OverheadGuardTest, TracedRecoveryMatchesUninterruptedRun)
{
    RecoveredRun run = runCrashRecoverWorkload();

    // Uninstrumented, uninterrupted reference run.
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::SpecEngine engine(&llm, {&ssm}, engineConfig(nullptr));
    runtime::ServingConfig cfg;
    cfg.maxBatchSize = 3;
    runtime::RequestManager reference(&engine, cfg);
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(reference.submit(promptFor(i)).accepted());
    for (int it = 0; it < 4; ++it)
        reference.runIteration();
    for (int i = 2; i < 4; ++i)
        ASSERT_TRUE(reference.submit(promptFor(i)).accepted());
    reference.runUntilDrained();

    // Tracing through recovery changed nothing about the outputs.
    EXPECT_EQ(run.finished, finishedMap(reference));

    // The recovered run's metrics agree with its own outputs and
    // record the recovery itself as an event-time counter.
    const SnapshotGauge *finished =
        run.metrics.findGauge("serving_requests_finished");
    ASSERT_NE(finished, nullptr);
    EXPECT_EQ(static_cast<size_t>(finished->value),
              run.finished.size());
    const SnapshotCounter *recoveries =
        run.metrics.findCounter("serving_recoveries");
    ASSERT_NE(recoveries, nullptr);
    EXPECT_EQ(recoveries->value, 1u);

    std::string error;
    EXPECT_TRUE(validateChromeTrace(run.trace, &error)) << error;
    EXPECT_NE(run.trace.find("\"name\":\"recovered\""),
              std::string::npos);
}

TEST(OverheadGuardTest, RecoveredMetricsAndTraceAreReproducible)
{
    // Two independent crash/recover executions under ManualClock
    // must agree byte-for-byte: same metrics snapshot (gauge sync is
    // idempotent under replay) and same serialized trace. The
    // auto-stepping clock stamps events in clock-read order, which
    // only a serial pool fixes.
    specinfer::testing::PoolThreadsScope serial(1);
    RecoveredRun a = runCrashRecoverWorkload();
    RecoveredRun b = runCrashRecoverWorkload();
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_TRUE(a.metrics == b.metrics);
    EXPECT_EQ(a.trace, b.trace);

    std::ostringstream pa, pb;
    writePrometheus(a.metrics, pa);
    writePrometheus(b.metrics, pb);
    EXPECT_EQ(pa.str(), pb.str());
}

TEST(OverheadGuardTest, ConcurrentRecoveredRunTracesLikeSerialRun)
{
    // With the clock frozen, the recovered run stepped on four
    // workers must reproduce the serial run's outputs, metrics and
    // trace bytes: spans are published in batch order, not in the
    // order sessions finish computing.
    RecoveredRun serial;
    {
        specinfer::testing::PoolThreadsScope pool(1);
        serial = runCrashRecoverWorkload(0);
    }
    specinfer::testing::PoolThreadsScope pool(4);
    RecoveredRun a = runCrashRecoverWorkload(0);
    RecoveredRun b = runCrashRecoverWorkload(0);
    EXPECT_EQ(a.finished, serial.finished);
    EXPECT_TRUE(a.metrics == b.metrics);
    EXPECT_TRUE(withoutPoolSize(a.metrics) ==
                withoutPoolSize(serial.metrics));
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.trace, serial.trace);
}

} // namespace
} // namespace obs
} // namespace specinfer
