/**
 * @file
 * Shared setup for the command-line tools (mirroring the paper
 * artifact's spec_infer / incr_decoding programs).
 */

#ifndef SPECINFER_TOOLS_CLI_COMMON_H
#define SPECINFER_TOOLS_CLI_COMMON_H

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/spec_engine.h"
#include "model/model_factory.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/request_manager.h"
#include "util/flags.h"
#include "util/logging.h"
#include "workload/datasets.h"

namespace specinfer {
namespace tools {

/** Flags shared by both CLIs. */
inline const std::vector<std::string> &
commonFlagNames()
{
    static const std::vector<std::string> names = {
        "llm",        "ssm-layers", "ssm-precision", "tp",
        "dataset",    "num-prompts",
        "max-tokens", "temperature", "expansion", "seed",
        "verbose",
        // Crash-safe serving (spec_infer --journal mode).
        "batch",      "journal",    "snapshot-every",
        "crash-after", "recover",   "journal-fsync",
        // Observability exporters.
        "metrics-out", "trace-out",
    };
    return names;
}

/**
 * Install a process-global ObsContext when either exporter path is
 * requested (tracing only when a trace path is). Returns the owning
 * pointer (null = observability off, zero overhead).
 */
inline std::unique_ptr<obs::ObsContext>
makeObsFromFlags(const std::string &metrics_path,
                 const std::string &trace_path)
{
    if (metrics_path.empty() && trace_path.empty())
        return nullptr;
    auto ctx = std::make_unique<obs::ObsContext>(
        &obs::SteadyClock::instance(),
        /*tracing_enabled=*/!trace_path.empty());
    obs::setGlobalObs(ctx.get());
    return ctx;
}

/** Write the Prometheus/Chrome-trace exports requested by flags. */
inline void
writeObsOutputs(obs::ObsContext *ctx,
                const std::string &metrics_path,
                const std::string &trace_path)
{
    if (ctx == nullptr)
        return;
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        SPECINFER_CHECK(out.good(), "cannot write metrics '"
                                        << metrics_path << "'");
        obs::writePrometheus(ctx->metrics().snapshot(), out);
        std::printf("metrics: wrote %zu instruments to %s\n",
                    ctx->metrics().instrumentCount(),
                    metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        SPECINFER_CHECK(out.good(), "cannot write trace '"
                                        << trace_path << "'");
        ctx->tracer().writeChromeTrace(out);
        std::printf("trace: wrote %zu events to %s\n",
                    ctx->tracer().eventCount(), trace_path.c_str());
    }
}

/** Flags servingStackFromFlags() reads. */
inline const std::vector<std::string> &
servingFlagNames()
{
    static const std::vector<std::string> names = {
        "llm",       "ssm-layers",  "ssm-precision", "tp",
        "expansion", "seed",        "max-tokens",    "temperature",
        "batch",     "class-buckets", "class-refill",
    };
    return names;
}

/**
 * The serving identity: LLM preset, its SSM, the speculative engine
 * over them, and the serving config. Held on the heap because the
 * engine points at the models.
 */
struct ServingStack
{
    ServingStack(model::Transformer llm_in, model::Transformer ssm_in,
                 const core::EngineConfig &cfg)
        : llm(std::move(llm_in)), ssm(std::move(ssm_in)),
          engine(&llm, {&ssm}, cfg)
    {
    }

    model::Transformer llm;
    model::Transformer ssm;
    core::SpecEngine engine;
    runtime::ServingConfig serving;
};

/** Parse "a,b,c" into one value per priority class; false (values
 *  untouched) unless the text holds exactly three. */
inline bool
parseClassTriple(const std::string &text,
                 size_t (&out)[runtime::kPriorityCount])
{
    unsigned long long a = 0, b = 0, c = 0;
    if (text.empty() ||
        std::sscanf(text.c_str(), "%llu,%llu,%llu", &a, &b, &c) != 3)
        return false;
    out[0] = static_cast<size_t>(a);
    out[1] = static_cast<size_t>(b);
    out[2] = static_cast<size_t>(c);
    return true;
}

/**
 * Build the serving stack from servingFlagNames(), the one builder
 * spec_infer, specinferd and `diffcheck --replay-journal` share, so
 * a journal replays under the identity it was served with:
 * --llm/--tp pick and shard the LLM preset (tokens are bit-identical
 * at every degree, DESIGN.md §5j), --ssm-layers/--ssm-precision its
 * early-exit SSM, --expansion/--seed/--max-tokens/--temperature the
 * engine (temperature 0 = greedy), and --batch/--class-buckets/
 * --class-refill the serving config. SSM precision and degree go
 * into the serving config too: recover() refuses a snapshot taken
 * under others.
 */
inline std::unique_ptr<ServingStack>
servingStackFromFlags(const util::Flags &flags)
{
    model::ModelConfig llm_cfg =
        model::llmPreset(flags.get("llm", "llama-7b-sim"));
    llm_cfg.tensorParallel =
        static_cast<size_t>(flags.getInt("tp", 1));
    model::Transformer llm = model::makeLlm(llm_cfg);
    const size_t ssm_layers =
        static_cast<size_t>(flags.getInt("ssm-layers", 2));
    const model::Precision precision =
        model::parsePrecision(flags.get("ssm-precision", "fp32"));
    model::Transformer ssm =
        precision == model::Precision::Int8
            ? model::makeInt8Ssm(llm, ssm_layers)
            : model::makeEarlyExitSsm(llm, ssm_layers);

    const float temperature =
        static_cast<float>(flags.getDouble("temperature", 0.0));
    core::EngineConfig cfg =
        temperature > 0.0f
            ? core::EngineConfig::stochasticDefault(temperature)
            : core::EngineConfig::greedyDefault();
    cfg.spec.expansion = core::ExpansionConfig::parse(
        flags.get("expansion", "1,1,3,1,1,1,1,1"));
    cfg.maxNewTokens =
        static_cast<size_t>(flags.getInt("max-tokens", 64));
    cfg.seed = static_cast<uint64_t>(flags.getInt("seed", 1));

    auto stack = std::make_unique<ServingStack>(std::move(llm),
                                                std::move(ssm), cfg);
    runtime::ServingConfig &serving = stack->serving;
    serving.maxBatchSize =
        static_cast<size_t>(flags.getInt("batch", 4));
    serving.ssmPrecision = static_cast<uint8_t>(precision);
    serving.tpDegree = static_cast<uint8_t>(llm_cfg.tensorParallel);
    parseClassTriple(flags.get("class-buckets", ""),
                     serving.classBucketCapacity);
    parseClassTriple(flags.get("class-refill", ""),
                     serving.classRefillEveryIterations);
    return stack;
}

// --- Signal-flush handling (SIGINT/SIGTERM) ----------------------
//
// Long-running tools install these so an operator interrupt still
// produces the requested observability artifacts instead of a
// silently truncated run (journals flush per record on their own).
// The process exits with the conventional 128+signo code, which is
// how scripts distinguish an interrupted run from a clean one.

namespace detail {
inline volatile std::sig_atomic_t g_signal_fired = 0;
inline obs::ObsContext *g_signal_obs = nullptr;
inline std::string g_signal_metrics;
inline std::string g_signal_trace;

inline void
onFlushSignal(int signo)
{
    // Re-entrant delivery (second ^C) skips straight to exit.
    if (g_signal_fired != 0)
        std::_Exit(128 + signo);
    g_signal_fired = 1;
    writeObsOutputs(g_signal_obs, g_signal_metrics, g_signal_trace);
    std::_Exit(128 + signo);
}
} // namespace detail

/** Install SIGINT/SIGTERM handlers that write the obs exports and
 *  exit 128+signo. */
inline void
installSignalFlush(obs::ObsContext *ctx,
                   const std::string &metrics_path,
                   const std::string &trace_path)
{
    detail::g_signal_obs = ctx;
    detail::g_signal_metrics = metrics_path;
    detail::g_signal_trace = trace_path;
    std::signal(SIGINT, detail::onFlushSignal);
    std::signal(SIGTERM, detail::onFlushSignal);
}

/** Print one request's outcome. */
inline void
printResult(size_t index, const std::vector<int> &prompt,
            const core::GenerationResult &res, bool verbose)
{
    std::printf("[prompt %zu] %zu prompt tokens -> %zu generated in "
                "%zu LLM steps (%.2f tokens/step)\n",
                index, prompt.size(), res.tokens.size(),
                res.stats.llmSteps(),
                res.stats.avgVerifiedPerStep());
    if (verbose) {
        std::printf("  tokens:");
        for (int tok : res.tokens)
            std::printf(" %d", tok);
        std::printf("\n");
    }
}

} // namespace tools
} // namespace specinfer

#endif // SPECINFER_TOOLS_CLI_COMMON_H
