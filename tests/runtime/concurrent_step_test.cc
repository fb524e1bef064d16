/**
 * @file
 * Stepping the batch's sessions on several pool workers changes
 * nothing a client, the journal or the degradation ladder can see:
 * a batch of 8 served at pool 1 and at pool 4 gives identical token
 * streams, fallback steps and journal bytes — under on-demand KV
 * paging with prefix sharing (preemption and copy-on-write in the
 * serial pre-phase), and under injected speculator and verifier
 * faults at temperature 0.8 (keyed by request and step, so the
 * schedule does not depend on which session consults first).
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "runtime/journal.h"
#include "runtime/request_manager.h"
#include "util/fault.h"
#include "workload/datasets.h"

namespace specinfer {
namespace runtime {
namespace {

using specinfer::testing::PoolThreadsScope;
using specinfer::testing::tinyLlm;

struct Served
{
    std::map<uint64_t, std::vector<int>> tokens;
    size_t fallbackSteps = 0;
    size_t preemptions = 0;
    std::string journal;
};

/** Serve 12 shared-prefix chat prompts, 8 at a time, on a pool of
 *  `threads`, journaling every record. */
Served
serve(size_t threads, const core::EngineConfig &ecfg,
      const ServingConfig &scfg)
{
    PoolThreadsScope pool(threads);
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::SpecEngine engine(&llm, {&ssm}, ecfg);
    RequestManager mgr(&engine, scfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    mgr.attachJournal(&journal);

    workload::SharedPrefixDataset ds =
        workload::SharedPrefixDataset::chat(96, 3, 24);
    for (size_t i = 0; i < 12; ++i)
        EXPECT_TRUE(mgr.submit(ds.prompt(i)).accepted());
    mgr.runUntilDrained();

    Served out;
    for (const RequestResult &res : mgr.finished())
        out.tokens[res.id] = res.tokens;
    out.fallbackSteps = mgr.stats().fallbackSteps;
    out.preemptions = mgr.stats().preemptions;
    out.journal = journal_buf.str();
    return out;
}

core::EngineConfig
engineConfig(core::EngineConfig cfg)
{
    cfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
    cfg.maxNewTokens = 16;
    cfg.stopAtEos = false;
    cfg.maxPrefillChunk = 8;
    return cfg;
}

TEST(ConcurrentStepTest, BatchOfEightIdenticalAtPoolOneAndFour)
{
    const core::EngineConfig ecfg =
        engineConfig(core::EngineConfig::greedyDefault());
    ServingConfig scfg;
    scfg.maxBatchSize = 8;
    scfg.kvBlockTokens = 8;
    scfg.kvPoolBlocks = 40; // tight: on-demand growth preempts
    scfg.kvPolicy = KvReservationPolicy::OnDemand;
    scfg.kvPrefixSharing = true;

    const Served serial = serve(1, ecfg, scfg);
    const Served concurrent = serve(4, ecfg, scfg);
    ASSERT_EQ(serial.tokens.size(), 12u);
    EXPECT_GT(serial.preemptions, 0u);
    EXPECT_EQ(concurrent.tokens, serial.tokens);
    EXPECT_EQ(concurrent.preemptions, serial.preemptions);
    EXPECT_TRUE(concurrent.journal == serial.journal)
        << "journal bytes differ between pool 1 and pool 4";
}

TEST(ConcurrentStepTest, KeyedStepFaultsIdenticalAtPoolOneAndFour)
{
    const core::EngineConfig ecfg =
        engineConfig(core::EngineConfig::stochasticDefault(0.8f));
    ServingConfig scfg;
    scfg.maxBatchSize = 8;

    auto run = [&](size_t threads) {
        util::FaultInjector fi(0x5eed);
        util::FaultScope scope(&fi);
        fi.setProbability(util::FaultPoint::SsmStep, 0.3);
        fi.setProbability(util::FaultPoint::Verify, 0.2);
        return serve(threads, ecfg, scfg);
    };
    const Served serial = run(1);
    const Served concurrent = run(4);
    ASSERT_EQ(serial.tokens.size(), 12u);
    EXPECT_GT(serial.fallbackSteps, 0u);
    EXPECT_EQ(concurrent.tokens, serial.tokens);
    EXPECT_EQ(concurrent.fallbackSteps, serial.fallbackSteps);
    EXPECT_TRUE(concurrent.journal == serial.journal)
        << "journal bytes differ between pool 1 and pool 4";
}

} // namespace
} // namespace runtime
} // namespace specinfer
