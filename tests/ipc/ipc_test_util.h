/**
 * @file
 * Shared fixture for the in-process specinferd IPC tests: a tiny
 * preset-backed engine plus a scratch IPC directory that is wiped
 * on teardown.
 *
 * In-process clients all share one pid, so channel names collide on
 * the nonce alone — tests must hand every client a distinct nonce
 * (widely spaced when reconnects bump it).
 */

#ifndef SPECINFER_TESTS_IPC_IPC_TEST_UTIL_H
#define SPECINFER_TESTS_IPC_IPC_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/spec_engine.h"
#include "ipc/client.h"
#include "ipc/daemon.h"
#include "model/model_factory.h"

namespace specinfer {
namespace ipc {
namespace testutil {

/** The whole file at `path` ("" when unreadable). */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

inline std::string
makeScratchDir()
{
    char tmpl[] = "/tmp/specinfer-ipc-test-XXXXXX";
    char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return std::string(dir);
}

/**
 * Engine + scratch-dir fixture. The LLM is the `tiny` *preset* (not
 * the ad-hoc test model), the same one `specinferd --llm tiny`
 * serves.
 */
struct Fixture
{
    Fixture()
        : dir(makeScratchDir()),
          llm(model::makeLlm(model::llmPreset("tiny"))),
          ssm(model::makeEarlyExitSsm(llm, 2)),
          engine(&llm, {&ssm}, engineConfig())
    {
    }

    ~Fixture()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    static core::EngineConfig
    engineConfig()
    {
        // greedyDefault plus the fields specinferd takes as flags.
        core::EngineConfig cfg = core::EngineConfig::greedyDefault();
        cfg.spec.expansion = core::ExpansionConfig::parse("1,2,2");
        cfg.maxNewTokens = 12;
        cfg.seed = 7;
        return cfg;
    }

    runtime::ServingConfig
    servingConfig() const
    {
        runtime::ServingConfig scfg;
        scfg.maxBatchSize = 4;
        return scfg;
    }

    DaemonConfig
    daemonConfig() const
    {
        DaemonConfig dcfg;
        dcfg.dir = dir;
        dcfg.scanEvery = 1;   // co-op tests want instant discovery
        dcfg.leaseTicks = 24;
        return dcfg;
    }

    ClientConfig
    clientConfig(uint64_t nonce) const
    {
        ClientConfig ccfg;
        ccfg.dir = dir;
        ccfg.nonce = nonce; // in-process clients share a pid
        ccfg.backoffUnitMicros = 0;
        ccfg.stallPollLimit = 1 << 20;
        // Tight revocation suspicion: a silently reaped client (its
        // best-effort Revoked frame lost to an armed ipc-send
        // fault) must notice and reconnect within the co-op tests'
        // bounded pump budgets.
        ccfg.quietPollLimit = 200;
        return ccfg;
    }

    std::vector<int>
    prompt(int i) const
    {
        return {3 + i, 7, 2 + (i % 5), 9 + (i % 3)};
    }

    std::vector<int>
    oracle(const std::vector<int> &p, uint64_t id,
           size_t max_new) const
    {
        return engine.generate(p, id, max_new).tokens;
    }

    std::string dir;
    model::Transformer llm;
    model::Transformer ssm;
    core::SpecEngine engine;
};

/** One co-op round: every client polls, then the daemon ticks. */
inline void
pump(Daemon &daemon, std::initializer_list<Client *> clients,
     size_t rounds)
{
    for (size_t r = 0; r < rounds; ++r) {
        for (Client *client : clients)
            client->poll();
        daemon.tick();
    }
}

/** Pump until the client has nothing in flight (or the budget is
 *  exhausted, which the caller asserts against). */
inline void
pumpUntilIdle(Daemon &daemon, Client &client, size_t max_rounds)
{
    for (size_t r = 0;
         r < max_rounds && client.inflightCount() > 0; ++r) {
        client.poll();
        daemon.tick();
    }
}

} // namespace testutil
} // namespace ipc
} // namespace specinfer

#endif // SPECINFER_TESTS_IPC_IPC_TEST_UTIL_H
