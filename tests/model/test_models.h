/**
 * @file
 * Shared helpers for model/core tests: tiny model construction,
 * random token-tree chunk generation, and the pool-size helpers of
 * the concurrency tests.
 */

#ifndef SPECINFER_TESTS_MODEL_TEST_MODELS_H
#define SPECINFER_TESTS_MODEL_TEST_MODELS_H

#include <vector>

#include "model/model_factory.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace specinfer {
namespace testing {

/** Small-but-real model for fast tests. */
inline model::ModelConfig
tinyConfig(uint64_t seed = 99)
{
    model::ModelConfig cfg;
    cfg.name = "test-tiny";
    cfg.vocabSize = 96;
    cfg.dModel = 32;
    cfg.nHeads = 4;
    cfg.dFf = 64;
    cfg.nLayers = 3;
    cfg.maxSeqLen = 160;
    cfg.seed = seed;
    return cfg;
}

inline model::Transformer
tinyLlm(uint64_t seed = 99)
{
    return model::makeLlm(tinyConfig(seed));
}

/** Random prompt avoiding the EOS token. */
inline std::vector<int>
randomPrompt(util::Rng &rng, size_t len, size_t vocab)
{
    std::vector<int> prompt;
    prompt.reserve(len);
    for (size_t i = 0; i < len; ++i)
        prompt.push_back(static_cast<int>(
            rng.uniformInt(int64_t{1},
                           static_cast<int64_t>(vocab) - 1)));
    return prompt;
}

/**
 * Random tree-shaped decode chunk: node 0 is the chunk root; each
 * later node picks a random earlier parent.
 */
inline model::DecodeChunk
randomTreeChunk(util::Rng &rng, size_t nodes, size_t vocab)
{
    model::DecodeChunk chunk;
    for (size_t i = 0; i < nodes; ++i) {
        chunk.tokens.push_back(static_cast<int>(
            rng.uniformInt(int64_t{1},
                           static_cast<int64_t>(vocab) - 1)));
        chunk.parents.push_back(
            i == 0 ? -1
                   : static_cast<int32_t>(rng.uniformInt(
                         static_cast<uint64_t>(i))));
    }
    return chunk;
}

/** Resize the global pool for one scope, restoring it on exit. */
class PoolThreadsScope
{
  public:
    explicit PoolThreadsScope(size_t threads)
        : restore_(util::ThreadPool::global().threads())
    {
        util::ThreadPool::global().setThreads(threads);
    }
    ~PoolThreadsScope() { util::ThreadPool::global().setThreads(restore_); }

    PoolThreadsScope(const PoolThreadsScope &) = delete;
    PoolThreadsScope &operator=(const PoolThreadsScope &) = delete;

  private:
    size_t restore_;
};

/** The snapshot minus the pool_threads gauge, which reports the
 *  pool size itself: what runs at different pool sizes compare. */
inline obs::MetricsSnapshot
withoutPoolSize(obs::MetricsSnapshot snapshot)
{
    std::erase_if(snapshot.gauges, [](const obs::SnapshotGauge &g) {
        return g.name == "pool_threads";
    });
    return snapshot;
}

} // namespace testing
} // namespace specinfer

#endif // SPECINFER_TESTS_MODEL_TEST_MODELS_H
