/**
 * @file
 * Serving-level prefix sharing: a shared-prefix workload against a
 * no-sharing baseline must be token-identical with strictly lower
 * peak pool occupancy, leak nothing at drain, and survive
 * crash/recovery with copy-on-write state in flight.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "runtime/journal.h"
#include "runtime/request_manager.h"
#include "verify/diff_harness.h"
#include "workload/datasets.h"

namespace specinfer {
namespace runtime {
namespace {

using specinfer::testing::tinyLlm;

struct Fixture
{
    Fixture()
        : llm(tinyLlm()),
          ssm(model::makeEarlyExitSsm(llm, 2)),
          engine(&llm, {&ssm}, makeConfig())
    {
    }

    static core::EngineConfig
    makeConfig()
    {
        core::EngineConfig cfg = core::EngineConfig::greedyDefault();
        cfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
        cfg.maxNewTokens = 12;
        cfg.stopAtEos = false;
        return cfg;
    }

    model::Transformer llm;
    model::Transformer ssm;
    core::SpecEngine engine;
};

/** Multi-tenant prompts: two tenants, 32-token system prompts
 *  (4 full blocks at kvBlockTokens = 8), short unique suffixes. */
std::vector<std::vector<int>>
sharedPrompts(size_t count)
{
    workload::SharedPrefixDataset ds =
        workload::SharedPrefixDataset::chat(96, 2, 32);
    std::vector<std::vector<int>> prompts;
    prompts.reserve(count);
    for (size_t i = 0; i < count; ++i)
        prompts.push_back(ds.prompt(i));
    return prompts;
}

std::map<uint64_t, std::vector<int>>
drain(RequestManager &mgr)
{
    mgr.runUntilDrained();
    std::map<uint64_t, std::vector<int>> out;
    for (const RequestResult &res : mgr.finished())
        out[res.id] = res.tokens;
    return out;
}

TEST(PrefixSharingTest, TokenIdenticalWithLowerPeakOccupancy)
{
    Fixture f;
    const auto prompts = sharedPrompts(8);

    ServingConfig base;
    base.maxBatchSize = 8;
    base.kvBlockTokens = 8;
    base.kvPoolBlocks = 256; // ample: no preemption noise
    RequestManager plain(&f.engine, base);

    ServingConfig shared_cfg = base;
    shared_cfg.kvPrefixSharing = true;
    RequestManager sharing(&f.engine, shared_cfg);

    for (const std::vector<int> &p : prompts) {
        ASSERT_TRUE(plain.submit(p).accepted());
        ASSERT_TRUE(sharing.submit(p).accepted());
    }
    const auto want = drain(plain);
    const auto got = drain(sharing);
    ASSERT_EQ(want.size(), prompts.size());
    // Sharing is an occupancy/latency optimization only: outputs
    // bit-identical to the no-sharing run.
    EXPECT_EQ(got, want);

    const KvMemoryStats &stats = sharing.kvPool()->stats();
    EXPECT_GT(stats.prefixHits, 0u);
    EXPECT_LT(stats.peakUsedBlocks,
              plain.kvPool()->stats().peakUsedBlocks);
    // Prefill actually adopted precomputed rows: the payload store
    // captured blocks as sessions published them.
    ASSERT_NE(sharing.prefixStore(), nullptr);
    EXPECT_GT(sharing.prefixStore()->filledCount(), 0u);
    EXPECT_EQ(plain.prefixStore(), nullptr);

    // Drain hygiene: only zero-ref resident prefix blocks remain,
    // and nothing was double-released.
    EXPECT_EQ(sharing.kvPool()->usedBlocks(),
              sharing.kvPool()->residentSharedBlocks());
    EXPECT_EQ(stats.redundantReleases, 0u);
    EXPECT_EQ(plain.kvPool()->usedBlocks(), 0u);
}

TEST(PrefixSharingTest, PayloadsOnlyForMatchedBlocks)
{
    // Four requests share a 2-block prefix and end with one full
    // block of their own. Only the prefix is ever matched, so only
    // its two blocks hold rows; a distinct suffix block gets a
    // payload once a later request matches it.
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 8;
    cfg.kvBlockTokens = 8;
    cfg.kvPoolBlocks = 256; // ample: nothing is evicted
    cfg.kvPrefixSharing = true;
    RequestManager mgr(&f.engine, cfg);

    auto promptFor = [](int suffix) {
        std::vector<int> prompt;
        for (int t = 0; t < 16; ++t)
            prompt.push_back(10 + t);
        for (int t = 0; t < 8; ++t)
            prompt.push_back(t == 0 ? 50 + suffix : 30 + t);
        return prompt;
    };
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(mgr.submit(promptFor(i)).accepted());
    mgr.runUntilDrained();
    const model::PrefixKvStore *store = mgr.prefixStore();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->filledCount(), 2u);
    EXPECT_EQ(mgr.kvPool()->stats().redundantReleases, 0u);

    // Snapshots carry no rows: recovery re-derives both payloads
    // from the shared blocks' tokens.
    std::stringstream snapshot;
    mgr.writeSnapshot(snapshot);
    RequestManager restored(&f.engine, cfg);
    restored.recover(&snapshot, nullptr);
    EXPECT_EQ(restored.prefixStore()->filledCount(), 2u);
    std::stringstream again;
    restored.writeSnapshot(again);
    EXPECT_TRUE(again.str() == snapshot.str());

    // A repeat of the first prompt matches its suffix block too.
    ASSERT_TRUE(mgr.submit(promptFor(0)).accepted());
    mgr.runUntilDrained();
    EXPECT_EQ(store->filledCount(), 3u);
}

TEST(PrefixSharingTest, TightPoolStillTokenIdentical)
{
    // Under real memory pressure (OnDemand paging + evictions of
    // resident prefix blocks) outputs must still match the
    // unconstrained no-sharing run.
    Fixture f;
    const auto prompts = sharedPrompts(6);

    ServingConfig loose;
    loose.maxBatchSize = 4;
    RequestManager unconstrained(&f.engine, loose);

    ServingConfig tight;
    tight.maxBatchSize = 4;
    tight.kvBlockTokens = 8;
    tight.kvPoolBlocks = 24; // ~1.5 requests' worst case
    tight.kvPolicy = KvReservationPolicy::OnDemand;
    tight.kvPrefixSharing = true;
    RequestManager constrained(&f.engine, tight);

    for (const std::vector<int> &p : prompts) {
        ASSERT_TRUE(unconstrained.submit(p).accepted());
        ASSERT_TRUE(constrained.submit(p).accepted());
    }
    const auto want = drain(unconstrained);
    const auto got = drain(constrained);
    ASSERT_EQ(got.size(), prompts.size());
    EXPECT_EQ(got, want);
    EXPECT_EQ(constrained.kvPool()->usedBlocks(),
              constrained.kvPool()->residentSharedBlocks());
    EXPECT_EQ(constrained.kvPool()->stats().redundantReleases, 0u);
}

TEST(PrefixSharingRecoveryTest, RecoverMidCowFromJournal)
{
    // Crash-equivalent recovery cut exactly after the iteration
    // that admitted a partially-matching request and settled its
    // copy-on-write: journal replay must rebuild the intern table,
    // re-run the COW, and finish with identical tokens.
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.kvBlockTokens = 8;
    cfg.kvPoolBlocks = 64;
    cfg.kvPrefixSharing = true;

    std::vector<int> a;
    for (int i = 0; i < 16; ++i)
        a.push_back(2 + i);
    std::vector<int> b(a.begin(), a.begin() + 11); // partial block 1
    b.push_back(90);
    b.push_back(91);

    std::stringstream buf;
    JournalWriter writer(buf);
    RequestManager mgr(&f.engine, cfg);
    mgr.attachJournal(&writer);
    ASSERT_TRUE(mgr.submit(a).accepted());
    mgr.runIteration(); // A admitted, interns blocks 0 and 1
    ASSERT_TRUE(mgr.submit(b).accepted());
    mgr.runIteration(); // B admitted with a partial match; its
                        // first step settles the COW
    ASSERT_EQ(mgr.kvPool()->stats().cowCopies, 1u);
    const std::string mid = buf.str();
    const auto want = drain(mgr);
    ASSERT_EQ(want.size(), 2u);

    RequestManager recovered(&f.engine, cfg);
    std::stringstream tail(mid);
    recovered.recover(nullptr, &tail);
    EXPECT_EQ(recovered.kvPool()->stats().cowCopies, 1u);
    const auto got = drain(recovered);
    EXPECT_EQ(got, want);
    EXPECT_EQ(recovered.kvPool()->usedBlocks(),
              recovered.kvPool()->residentSharedBlocks());
    EXPECT_EQ(recovered.kvPool()->stats().redundantReleases, 0u);
}

TEST(PrefixSharingRecoveryTest, RandomizedTrialsWithSharing)
{
    // The full randomized oracle (crashes torn anywhere, KV faults,
    // snapshots) now draws prefix-sharing configs and prompts that
    // ride earlier prompts' prefixes; a slice runs here, the wider
    // sweep in tests/runtime/recovery_test.cc.
    for (uint64_t seed = 9000; seed < 9012; ++seed) {
        verify::TrialOutcome out = verify::runRecoveryTrial(seed);
        EXPECT_TRUE(out.ok)
            << out.configLine << " : " << out.detail;
    }
}

} // namespace
} // namespace runtime
} // namespace specinfer
