/**
 * @file
 * Tracer and exporter tests: byte-exact golden Chrome trace output
 * under a ManualClock, determinism of a seeded 3-request serving
 * workload (two fresh runs must serialize identically, and with a
 * frozen clock the batch stepped concurrently must trace exactly
 * like the batch stepped serially), the
 * trace-JSON schema validator, and a Prometheus text-exposition
 * round trip through writePrometheus -> parsePrometheus.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../model/test_models.h"
#include "core/spec_engine.h"
#include "model/model_factory.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/request_manager.h"

namespace specinfer {
namespace obs {
namespace {

using specinfer::testing::withoutPoolSize;

TEST(ManualClockTest, DeterministicReadsAndSteps)
{
    ManualClock clock(100, 10);
    EXPECT_EQ(clock.nowNanos(), 100u); // auto_step applies *after*
    EXPECT_EQ(clock.nowNanos(), 110u);
    EXPECT_EQ(clock.reads(), 2u);
    clock.advance(5);
    EXPECT_EQ(clock.nowNanos(), 125u);
    clock.set(1000);
    EXPECT_EQ(clock.nowNanos(), 1000u);
    EXPECT_EQ(clock.reads(), 4u);
}

TEST(ManualClockTest, FrozenWithoutAutoStep)
{
    ManualClock clock(42);
    EXPECT_EQ(clock.nowNanos(), 42u);
    EXPECT_EQ(clock.nowNanos(), 42u);
}

TEST(TracerTest, DisabledTracerRecordsNothing)
{
    Tracer tracer(nullptr, false);
    tracer.span(1, "engine", "speculate", 0, 100, {{"tree", 4}});
    tracer.instant(0, "serving", "crash", 50);
    EXPECT_EQ(tracer.eventCount(), 0u);
}

/**
 * Golden byte-stable output: a hand-built event set must serialize
 * to exactly this string, byte for byte. Any change to the Chrome
 * trace writer shows up here first.
 */
TEST(TracerTest, GoldenChromeTraceBytes)
{
    ManualClock clock(0);
    Tracer tracer(&clock, true);
    tracer.span(7, "engine", "speculate", 1500, 4000,
                {{"tree", 16}, {"ssm_tokens", 4}});
    tracer.instant(0, "serving", "crash", 12'345'678);

    std::ostringstream out;
    tracer.writeChromeTrace(out);
    const std::string expected =
        "{\"traceEvents\":[\n"
        "{\"name\":\"speculate\",\"cat\":\"engine\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":7,\"ts\":1.500,\"dur\":2.500,"
        "\"args\":{\"tree\":16,\"ssm_tokens\":4}},\n"
        "{\"name\":\"crash\",\"cat\":\"serving\",\"ph\":\"i\","
        "\"pid\":1,\"tid\":0,\"ts\":12345.678,\"s\":\"t\"}\n"
        ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"args\":{\"name\":\"specinfer\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"args\":{\"name\":\"scheduler\"}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n";
    EXPECT_EQ(out.str(), expected);

    std::string error;
    size_t events = 0;
    EXPECT_TRUE(validateChromeTrace(out.str(), &error, &events))
        << error;
    EXPECT_EQ(events, 4u); // 2 recorded + 2 metadata
}

TEST(TracerTest, EmptyTraceIsStillValid)
{
    ManualClock clock(0);
    Tracer tracer(&clock, true);
    std::ostringstream out;
    tracer.writeChromeTrace(out);
    const std::string expected =
        "{\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"args\":{\"name\":\"specinfer\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"args\":{\"name\":\"scheduler\"}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n";
    EXPECT_EQ(out.str(), expected);
    std::string error;
    EXPECT_TRUE(validateChromeTrace(out.str(), &error)) << error;
}

TEST(TracerTest, EscapesJsonMetacharacters)
{
    ManualClock clock(0);
    Tracer tracer(&clock, true);
    tracer.span(1, "cat", "q\"uote\\back\nline", 0, 1000);
    std::ostringstream out;
    tracer.writeChromeTrace(out);
    EXPECT_NE(
        out.str().find("\"name\":\"q\\\"uote\\\\back\\nline\""),
        std::string::npos)
        << out.str();
    std::string error;
    EXPECT_TRUE(validateJson(out.str(), &error)) << error;
}

TEST(ValidatorTest, RejectsMalformedJson)
{
    std::string error;
    EXPECT_FALSE(validateJson("{", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(validateJson("[1,2,]", &error));
    EXPECT_FALSE(validateJson("{\"a\":1} x", &error));
    EXPECT_TRUE(validateJson("{\"a\":[1,2,{\"b\":null}]}", &error))
        << error;
}

TEST(ValidatorTest, RejectsSchemaViolations)
{
    std::string error;
    EXPECT_FALSE(validateChromeTrace("{\"events\":[]}", &error));
    EXPECT_NE(error.find("traceEvents"), std::string::npos);
    // A span ('X') without a duration is malformed.
    EXPECT_FALSE(validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\","
        "\"ts\":1}]}",
        &error));
    EXPECT_NE(error.find("dur"), std::string::npos);
    // An instant without a timestamp is malformed.
    EXPECT_FALSE(validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\"}]}",
        &error));
    EXPECT_NE(error.find("ts"), std::string::npos);
}

// ---------------------------------------------------------------
// Seeded serving workload under ManualClock: the full serving stack
// (engine + request manager) instrumented through one ObsContext
// must produce a byte-identical trace on every run.
// ---------------------------------------------------------------

struct WorkloadResult
{
    std::string traceJson;
    size_t eventCount = 0;
    MetricsSnapshot metrics;
};

/** @param clock_step ManualClock auto-step per read: 1000 (1us)
 *         makes every timestamp depend on the order of clock reads,
 *         which only a serial pool fixes; 0 freezes the clock, so
 *         the trace shows event order and content alone. */
WorkloadResult
runSeededWorkload(uint64_t clock_step = 1000)
{
    ManualClock clock(0, clock_step);
    ObsContext ctx(&clock, /*tracing_enabled=*/true);

    model::Transformer llm = specinfer::testing::tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::EngineConfig cfg = core::EngineConfig::greedyDefault();
    cfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
    cfg.maxNewTokens = 8;
    cfg.stopAtEos = false;
    cfg.maxPrefillChunk = 2; // force chunked prefill spans
    cfg.obs = &ctx;
    core::SpecEngine engine(&llm, {&ssm}, cfg);

    runtime::ServingConfig scfg;
    scfg.maxBatchSize = 2; // 3 requests on 2 slots: queueing shows
    scfg.obs = &ctx;
    runtime::RequestManager manager(&engine, scfg);
    for (int i = 0; i < 3; ++i)
        manager.submit({3 + i, 7, 2 + (i % 5), 9, 14, 6});
    manager.runUntilDrained();

    WorkloadResult result;
    std::ostringstream out;
    ctx.tracer().writeChromeTrace(out);
    result.traceJson = out.str();
    result.eventCount = ctx.tracer().eventCount();
    result.metrics = ctx.metrics().snapshot();
    return result;
}

TEST(WorkloadTraceTest, SeededWorkloadIsByteStable)
{
    // Concurrent sessions interleave their reads of the auto-stepping
    // clock; a serial pool keeps the read order fixed.
    specinfer::testing::PoolThreadsScope serial(1);
    WorkloadResult a = runSeededWorkload();
    WorkloadResult b = runSeededWorkload();
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.eventCount, b.eventCount);
    EXPECT_TRUE(a.metrics == b.metrics);
    EXPECT_GT(a.eventCount, 0u);

    std::string error;
    size_t events = 0;
    ASSERT_TRUE(validateChromeTrace(a.traceJson, &error, &events))
        << error;
    EXPECT_EQ(events, a.eventCount + 2); // + process/thread metadata

    // The serving pipeline's lifecycle events must all be present.
    for (const char *name :
         {"\"name\":\"submit\"", "\"name\":\"queue\"",
          "\"name\":\"iteration\"", "\"name\":\"finish\"",
          "\"name\":\"speculate\"", "\"name\":\"tree_decode\"",
          "\"name\":\"verify\"", "\"name\":\"prefill\""})
        EXPECT_NE(a.traceJson.find(name), std::string::npos)
            << "missing event " << name;
}

TEST(WorkloadTraceTest, ConcurrentStepsTraceLikeSerialSteps)
{
    // Under a frozen clock the trace is the event sequence itself:
    // sessions stepped on four workers must publish the same events
    // in the same order, with the same metrics, as one thread does.
    WorkloadResult serial;
    {
        specinfer::testing::PoolThreadsScope pool(1);
        serial = runSeededWorkload(0);
    }
    specinfer::testing::PoolThreadsScope pool(4);
    WorkloadResult a = runSeededWorkload(0);
    WorkloadResult b = runSeededWorkload(0);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.traceJson, serial.traceJson);
    EXPECT_EQ(a.eventCount, serial.eventCount);
    EXPECT_TRUE(a.metrics == b.metrics);
    EXPECT_TRUE(withoutPoolSize(a.metrics) ==
                withoutPoolSize(serial.metrics));
    EXPECT_NE(a.traceJson.find("\"name\":\"speculate\""),
              std::string::npos);
}

TEST(WorkloadTraceTest, MetricsDescribeTheWorkload)
{
    WorkloadResult r = runSeededWorkload();
    const SnapshotGauge *finished =
        r.metrics.findGauge("serving_requests_finished");
    ASSERT_NE(finished, nullptr);
    EXPECT_EQ(finished->value, 3);
    const SnapshotGauge *submitted =
        r.metrics.findGauge("serving_requests_submitted");
    ASSERT_NE(submitted, nullptr);
    EXPECT_EQ(submitted->value, 3);
    const SnapshotGauge *iters =
        r.metrics.findGauge("serving_iterations");
    ASSERT_NE(iters, nullptr);
    EXPECT_GT(iters->value, 0);

    const SnapshotHistogram *lat =
        r.metrics.findHistogram("serving_iteration_millis");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, static_cast<uint64_t>(iters->value));

    // Engine-side token accounting agrees with serving-side stats:
    // every verified token the engine counted was generated.
    const SnapshotCounter *verified =
        r.metrics.findCounter("engine_tokens_verified");
    const SnapshotGauge *generated =
        r.metrics.findGauge("serving_tokens_generated");
    ASSERT_NE(verified, nullptr);
    ASSERT_NE(generated, nullptr);
    EXPECT_EQ(verified->value,
              static_cast<uint64_t>(generated->value));
    EXPECT_EQ(generated->value, 24); // 3 requests x 8 new tokens
}

// ---------------------------------------------------------------
// Prometheus text exposition round trip.
// ---------------------------------------------------------------

TEST(PrometheusTest, RoundTripPreservesSamples)
{
    MetricsRegistry reg;
    reg.counter("requests_total")->inc(41);
    reg.gauge("queue_depth")->set(-3);
    HistogramMetric *h = reg.histogram("latency", {0.5, 1.0, 5.0});
    h->observe(0.25);
    h->observe(1.0);
    h->observe(10.0);

    std::ostringstream out;
    writePrometheus(reg.snapshot(), out);

    std::istringstream in(out.str());
    std::string error;
    std::vector<PrometheusSample> samples =
        parsePrometheus(in, &error);
    ASSERT_TRUE(error.empty()) << error;

    auto find = [&](const std::string &name,
                    const std::string &labels) ->
        const PrometheusSample * {
        for (const PrometheusSample &s : samples)
            if (s.name == name && s.labels == labels)
                return &s;
        return nullptr;
    };

    const PrometheusSample *c = find("requests_total", "");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->value, 41.0);
    const PrometheusSample *g = find("queue_depth", "");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->value, -3.0);

    // Histogram buckets are cumulative with a terminal +Inf.
    const PrometheusSample *b0 =
        find("latency_bucket", "le=\"0.5\"");
    const PrometheusSample *b1 = find("latency_bucket", "le=\"1\"");
    const PrometheusSample *b2 = find("latency_bucket", "le=\"5\"");
    const PrometheusSample *binf =
        find("latency_bucket", "le=\"+Inf\"");
    ASSERT_NE(b0, nullptr);
    ASSERT_NE(b1, nullptr);
    ASSERT_NE(b2, nullptr);
    ASSERT_NE(binf, nullptr);
    EXPECT_DOUBLE_EQ(b0->value, 1.0);
    EXPECT_DOUBLE_EQ(b1->value, 2.0);
    EXPECT_DOUBLE_EQ(b2->value, 2.0);
    EXPECT_DOUBLE_EQ(binf->value, 3.0);
    const PrometheusSample *count = find("latency_count", "");
    const PrometheusSample *sum = find("latency_sum", "");
    ASSERT_NE(count, nullptr);
    ASSERT_NE(sum, nullptr);
    EXPECT_DOUBLE_EQ(count->value, 3.0);
    EXPECT_DOUBLE_EQ(sum->value, 11.25);
}

TEST(PrometheusTest, ExpositionIsByteStable)
{
    WorkloadResult r = runSeededWorkload();
    std::ostringstream a, b;
    writePrometheus(r.metrics, a);
    writePrometheus(r.metrics, b);
    EXPECT_EQ(a.str(), b.str());

    std::istringstream in(a.str());
    std::string error;
    std::vector<PrometheusSample> samples =
        parsePrometheus(in, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(samples.empty());
}

TEST(PrometheusTest, ParserRejectsMalformedLines)
{
    std::string error;
    std::istringstream bad("metric_without_value\n");
    parsePrometheus(bad, &error);
    EXPECT_FALSE(error.empty());

    error.clear();
    std::istringstream bad2("name{le=\"0.5\" 1\n"); // unclosed brace
    parsePrometheus(bad2, &error);
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace obs
} // namespace specinfer
