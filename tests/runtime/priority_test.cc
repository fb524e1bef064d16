/**
 * @file
 * QoS priority classes and overload control:
 *
 *  - PriorityTest: class-aware admission order, preemption that
 *    victimizes the lowest class first (overriding FCFS), the
 *    shed-under-pressure policy (an Interactive request is never
 *    shed while any Batch request remains), and wall-clock deadline
 *    expiry for pending and active requests.
 *  - OverloadTest: per-class token-bucket ingress (typed Overloaded
 *    rejections with retry-after hints, iteration-clock refill,
 *    class independence) and journal-replay equivalence of bucket
 *    state.
 *
 * All timing runs on an injected obs::ManualClock — schedules are
 * exact and deterministic, no sleeps.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "obs/obs.h"
#include "runtime/journal.h"
#include "runtime/request_manager.h"
#include "util/rng.h"

namespace specinfer {
namespace runtime {
namespace {

using core::SpecSession;
using specinfer::testing::tinyLlm;

/** Engine + manager scaffold shared by the suites. */
struct Rig
{
    explicit Rig(size_t max_new = 12)
        : llm(tinyLlm()), ssm(model::makeEarlyExitSsm(llm, 2))
    {
        core::EngineConfig ecfg = core::EngineConfig::greedyDefault();
        ecfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
        ecfg.maxNewTokens = max_new;
        ecfg.stopAtEos = false;
        engine = std::make_unique<core::SpecEngine>(
            &llm, std::vector<const model::Transformer *>{&ssm},
            ecfg);
    }

    std::vector<int> oracle(const std::vector<int> &prompt,
                            uint64_t id) const
    {
        return engine->generate(prompt, id).tokens;
    }

    model::Transformer llm;
    model::Transformer ssm;
    std::unique_ptr<core::SpecEngine> engine;
};

const RequestResult *
resultOf(const RequestManager &mgr, uint64_t id)
{
    for (const RequestResult &res : mgr.finished())
        if (res.id == id)
            return &res;
    return nullptr;
}

TEST(PriorityTest, InteractiveAdmittedAheadOfEarlierBatch)
{
    Rig rig;
    ServingConfig cfg;
    cfg.maxBatchSize = 1; // one slot: admission order is visible
    RequestManager mgr(rig.engine.get(), cfg);

    // The Batch request arrives first; the single slot must still
    // go to the Interactive request (priority beats FCFS), with the
    // Standard request between them.
    uint64_t batch = mgr.submit({6, 3, 8, 1}, 0, 0, Priority::Batch);
    uint64_t standard =
        mgr.submit({4, 9, 1, 7}, 0, 0, Priority::Standard);
    uint64_t inter =
        mgr.submit({5, 9, 2, 11}, 0, 0, Priority::Interactive);
    mgr.runUntilDrained();

    const RequestResult *ri = resultOf(mgr, inter);
    const RequestResult *rs = resultOf(mgr, standard);
    const RequestResult *rb = resultOf(mgr, batch);
    ASSERT_NE(ri, nullptr);
    ASSERT_NE(rs, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ri->startIteration, 0u);
    EXPECT_LT(ri->finishIteration, rs->startIteration);
    EXPECT_LT(rs->finishIteration, rb->startIteration);
    EXPECT_EQ(ri->priority, Priority::Interactive);
    // Being reordered never changes any request's tokens.
    EXPECT_EQ(ri->tokens, rig.oracle({5, 9, 2, 11}, inter));
    EXPECT_EQ(rb->tokens, rig.oracle({6, 3, 8, 1}, batch));
}

TEST(PriorityTest, PreemptionVictimizesLowestClassFirst)
{
    Rig rig(24);
    std::vector<int> pb = {6, 3, 8, 1};
    std::vector<int> pi = {5, 9, 2, 11};

    // Pool sized for ~1.5 worst cases, on-demand paging: the two
    // requests cannot both hold a full footprint, so someone must
    // be preempted — and it must always be the Batch request, even
    // though it arrived first (class order overrides FCFS).
    size_t per_request = pb.size() + 24 + rig.engine->treeBudget() + 2;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(per_request) * 3 / 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    RequestManager mgr(rig.engine.get(), cfg);

    uint64_t batch = mgr.submit(pb, 0, 0, Priority::Batch);
    uint64_t inter = mgr.submit(pi, 0, 0, Priority::Interactive);

    size_t iterations = 0;
    while (mgr.busy()) {
        mgr.runIteration();
        ASSERT_LT(++iterations, 400u) << "preemption livelock";
    }

    const RequestResult *ri = resultOf(mgr, inter);
    const RequestResult *rb = resultOf(mgr, batch);
    ASSERT_NE(ri, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ri->stopReason, SpecSession::StopReason::MaxTokens);
    EXPECT_EQ(rb->stopReason, SpecSession::StopReason::MaxTokens);
    // The Interactive request never lost its memory; the Batch one
    // paid every eviction. Recompute restarts keep tokens exact.
    EXPECT_EQ(ri->preemptions, 0u);
    EXPECT_GE(rb->preemptions, 1u);
    EXPECT_EQ(ri->tokens, rig.oracle(pi, inter));
    EXPECT_EQ(rb->tokens, rig.oracle(pb, batch));
    EXPECT_EQ(mgr.kvPool()->usedBlocks(), 0u);
}

TEST(PriorityTest, NoInteractiveShedWhileBatchRemains)
{
    Rig rig;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    cfg.maxPendingRequests = 4;
    RequestManager mgr(rig.engine.get(), cfg);

    // Fill the bounded queue without running any iteration (the
    // shed policy is pure queue management).
    uint64_t b1 = mgr.submit({6, 3, 8, 1}, 0, 0, Priority::Batch);
    uint64_t b2 = mgr.submit({6, 3, 8, 2}, 0, 0, Priority::Batch);
    uint64_t i1 =
        mgr.submit({5, 9, 2, 11}, 0, 0, Priority::Interactive);
    uint64_t i2 =
        mgr.submit({5, 9, 2, 12}, 0, 0, Priority::Interactive);
    ASSERT_EQ(mgr.pendingCount(), 4u);

    // A Standard arrival sheds the *latest Batch* request — never
    // an Interactive one — and takes the freed slot.
    SubmitResult s1 =
        mgr.submit({4, 9, 1, 7}, 0, 0, Priority::Standard);
    ASSERT_TRUE(s1.accepted());
    EXPECT_EQ(mgr.stats().shedRequests, 1u);
    EXPECT_EQ(mgr.stats().shedByClass[static_cast<size_t>(
                  Priority::Batch)],
              1u);
    EXPECT_EQ(mgr.stats().shedByClass[static_cast<size_t>(
                  Priority::Interactive)],
              0u);
    const RequestResult *shed1 = resultOf(mgr, b2);
    ASSERT_NE(shed1, nullptr); // latest arrival within Batch
    EXPECT_EQ(shed1->stopReason, SpecSession::StopReason::Shed);
    EXPECT_TRUE(shed1->tokens.empty());

    // An Interactive arrival sheds the remaining Batch request.
    SubmitResult s2 =
        mgr.submit({5, 9, 2, 13}, 0, 0, Priority::Interactive);
    ASSERT_TRUE(s2.accepted());
    ASSERT_NE(resultOf(mgr, b1), nullptr);
    EXPECT_EQ(mgr.stats().shedByClass[static_cast<size_t>(
                  Priority::Batch)],
              2u);

    // No Batch request remains; a Batch arrival cannot displace a
    // higher class and is rejected instead of shedding one.
    SubmitResult s3 =
        mgr.submit({6, 3, 8, 3}, 0, 0, Priority::Batch);
    EXPECT_EQ(s3.reject, RejectReason::QueueFull);
    EXPECT_EQ(mgr.stats().shedByClass[static_cast<size_t>(
                  Priority::Interactive)],
              0u);
    EXPECT_EQ(mgr.stats().shedByClass[static_cast<size_t>(
                  Priority::Standard)],
              0u);
    // The queue still holds every Interactive request.
    EXPECT_EQ(resultOf(mgr, i1), nullptr);
    EXPECT_EQ(resultOf(mgr, i2), nullptr);

    mgr.runUntilDrained();
    EXPECT_EQ(mgr.stats().requestsFinished, 6u); // 4 served + 2 shed
}

TEST(PriorityTest, RandomizedShedSoakProtectsHigherClasses)
{
    // Seeded storm of mixed-class arrivals against a small bounded
    // queue, interleaved with iterations. At *every* arrival the
    // shed ladder is checked against the pre-submit queue census:
    // a Standard request is only ever shed when no Batch request
    // was pending, an Interactive request is never shed at all, and
    // a Batch arrival never displaces anyone (it gets QueueFull).
    Rig rig(6);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.maxPendingRequests = 5;
    RequestManager mgr(rig.engine.get(), cfg);
    util::Rng rng(0x5eedf00dULL);

    const Priority kClasses[] = {Priority::Interactive,
                                 Priority::Standard,
                                 Priority::Batch};
    constexpr size_t kInter =
        static_cast<size_t>(Priority::Interactive);
    constexpr size_t kStd = static_cast<size_t>(Priority::Standard);
    constexpr size_t kBatch = static_cast<size_t>(Priority::Batch);

    size_t accepted = 0, queue_full = 0;
    std::map<uint64_t, Priority> unfinished; // accepted id -> class
    for (size_t round = 0; round < 1500; ++round) {
        if (rng.uniformInt(100) < 55) {
            // Pre-arrival census of the sheddable (pending) set.
            size_t census[3] = {0, 0, 0};
            for (auto it = unfinished.begin(); it != unfinished.end();) {
                const RequestManager::RequestPhase ph =
                    mgr.phase(it->first);
                if (ph == RequestManager::RequestPhase::Finished) {
                    it = unfinished.erase(it);
                    continue;
                }
                if (ph == RequestManager::RequestPhase::Pending)
                    ++census[static_cast<size_t>(it->second)];
                ++it;
            }
            uint64_t before[3];
            for (size_t c = 0; c < 3; ++c)
                before[c] = mgr.stats().shedByClass[c];

            const Priority cls = kClasses[rng.uniformInt(3)];
            std::vector<int> prompt;
            for (int k = 0; k < 2 + rng.uniformInt(4); ++k)
                prompt.push_back(2 + rng.uniformInt(12));
            SubmitResult s = mgr.submit(prompt, 0, 0, cls);
            if (s.accepted()) {
                ++accepted;
                unfinished[s.id] = cls;
            } else if (s.reject == RejectReason::QueueFull)
                ++queue_full;

            const ServingStats &st = mgr.stats();
            ASSERT_EQ(st.shedByClass[kInter], 0u)
                << "round " << round;
            if (st.shedByClass[kStd] != before[kStd]) {
                ASSERT_EQ(cls, Priority::Interactive)
                    << "round " << round;
                ASSERT_EQ(census[kBatch], 0u)
                    << "round " << round
                    << ": shed Standard while Batch was pending";
            }
            if (st.shedByClass[kBatch] != before[kBatch])
                ASSERT_NE(cls, Priority::Batch) << "round " << round;
            if (s.reject == RejectReason::QueueFull)
                // Rejected instead of shedding: nobody pending was
                // strictly lower-class than the arrival.
                for (size_t c = static_cast<size_t>(cls) + 1; c < 3;
                     ++c)
                    ASSERT_EQ(census[c], 0u) << "round " << round;
        }
        if (rng.uniformInt(100) < 40)
            mgr.runIteration();
    }
    mgr.runUntilDrained();

    const ServingStats &st = mgr.stats();
    EXPECT_EQ(st.requestsFinished, accepted); // served + shed
    EXPECT_EQ(st.shedByClass[kInter], 0u);
    EXPECT_GT(st.shedRequests, 0u) << "storm never overflowed";
    EXPECT_GT(queue_full, 0u) << "storm never hit QueueFull";
    if (mgr.kvPool() != nullptr)
        EXPECT_EQ(mgr.kvPool()->usedBlocks(), 0u);
}

TEST(PriorityTest, WallClockDeadlineExpiresPendingRequest)
{
    Rig rig(24);
    ServingConfig cfg;
    cfg.maxBatchSize = 1; // the long request blocks the only slot
    obs::ManualClock clock(0);
    obs::ObsContext obs_ctx(&clock, /*tracing_enabled=*/false);
    cfg.obs = &obs_ctx;
    RequestManager mgr(rig.engine.get(), cfg);

    uint64_t longId = mgr.submit({6, 3, 8, 1});
    // Absolute wall deadline at t=3500ns: with the driver ticking
    // 1000ns per iteration the request must expire on the iteration
    // that reads t=4000 — still queued, zero tokens. Batch class, so
    // priority head-of-line admission cannot let it overtake the
    // Standard blocker into the single slot.
    uint64_t dead =
        mgr.submit({5, 9, 2, 11}, 0, 0, Priority::Batch, 3500);

    uint64_t t = 0;
    size_t guard = 0;
    while (mgr.busy()) {
        t += 1000;
        clock.set(t);
        mgr.runIteration();
        ASSERT_LT(++guard, 400u);
    }

    const RequestResult *rd = resultOf(mgr, dead);
    ASSERT_NE(rd, nullptr);
    EXPECT_EQ(rd->stopReason, SpecSession::StopReason::Deadline);
    EXPECT_TRUE(rd->tokens.empty());
    EXPECT_EQ(rd->priority, Priority::Batch);
    EXPECT_EQ(mgr.stats().deadlineExpiries, 1u);
    // Expiry lands on the exact tick the deadline passed: 4
    // iterations of 1000ns each (reads at 1000..4000).
    EXPECT_EQ(rd->finishIteration, 3u);
    // The long request was untouched by its neighbor's deadline.
    const RequestResult *rl = resultOf(mgr, longId);
    ASSERT_NE(rl, nullptr);
    EXPECT_EQ(rl->stopReason, SpecSession::StopReason::MaxTokens);
    EXPECT_EQ(rl->tokens, rig.oracle({6, 3, 8, 1}, longId));
}

TEST(PriorityTest, WallClockDeadlineExpiresActiveRequest)
{
    Rig rig(24);
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    obs::ManualClock clock(0);
    obs::ObsContext obs_ctx(&clock, /*tracing_enabled=*/false);
    cfg.obs = &obs_ctx;
    RequestManager mgr(rig.engine.get(), cfg);

    std::vector<int> prompt = {5, 9, 2, 11};
    uint64_t id = mgr.submit(prompt, 0, 0, Priority::Standard, 4500);

    uint64_t t = 0;
    size_t guard = 0;
    while (mgr.busy()) {
        t += 1000;
        clock.set(t);
        mgr.runIteration();
        ASSERT_LT(++guard, 400u);
    }

    const RequestResult *res = resultOf(mgr, id);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->stopReason, SpecSession::StopReason::Deadline);
    // Mid-generation expiry: the request decoded for a few
    // iterations, then aborted with a proper prefix of its full
    // output.
    const std::vector<int> full = rig.oracle(prompt, id);
    ASSERT_FALSE(res->tokens.empty());
    ASSERT_LT(res->tokens.size(), full.size());
    EXPECT_TRUE(std::equal(res->tokens.begin(), res->tokens.end(),
                           full.begin()));
    EXPECT_EQ(mgr.stats().deadlineExpiries, 1u);
}

TEST(OverloadTest, EmptyBucketRejectsWithRetryAfter)
{
    Rig rig;
    ServingConfig cfg;
    constexpr size_t kInter =
        static_cast<size_t>(Priority::Interactive);
    cfg.classBucketCapacity[kInter] = 2;
    cfg.classRefillEveryIterations[kInter] = 4;
    RequestManager mgr(rig.engine.get(), cfg);

    EXPECT_TRUE(mgr.submit({5, 9, 2, 11}, 0, 0,
                           Priority::Interactive)
                    .accepted());
    EXPECT_TRUE(mgr.submit({5, 9, 2, 12}, 0, 0,
                           Priority::Interactive)
                    .accepted());
    SubmitResult rej =
        mgr.submit({5, 9, 2, 13}, 0, 0, Priority::Interactive);
    EXPECT_EQ(rej.reject, RejectReason::Overloaded);
    EXPECT_EQ(rej.id, 0u);
    EXPECT_EQ(rej.retryAfterIterations, 4u); // next refill period
    EXPECT_EQ(mgr.stats().rejectedOverloaded, 1u);

    // Unmetered classes are untouched by the Interactive bucket.
    EXPECT_TRUE(
        mgr.submit({6, 3, 8, 1}, 0, 0, Priority::Batch).accepted());
    EXPECT_TRUE(mgr.submit({4, 9, 1, 7}, 0, 0, Priority::Standard)
                    .accepted());
}

TEST(OverloadTest, BucketRefillsOnTheIterationClock)
{
    Rig rig;
    ServingConfig cfg;
    constexpr size_t kInter =
        static_cast<size_t>(Priority::Interactive);
    cfg.classBucketCapacity[kInter] = 1;
    cfg.classRefillEveryIterations[kInter] = 3;
    RequestManager mgr(rig.engine.get(), cfg);

    EXPECT_TRUE(mgr.submit({5, 9, 2, 11}, 0, 0,
                           Priority::Interactive)
                    .accepted());
    SubmitResult rej =
        mgr.submit({5, 9, 2, 12}, 0, 0, Priority::Interactive);
    ASSERT_EQ(rej.reject, RejectReason::Overloaded);
    EXPECT_EQ(rej.retryAfterIterations, 3u);

    // The retry-after hint is exact: one iteration early still
    // rejects (with an updated hint), on time it admits.
    mgr.runIteration();
    mgr.runIteration();
    SubmitResult early =
        mgr.submit({5, 9, 2, 13}, 0, 0, Priority::Interactive);
    ASSERT_EQ(early.reject, RejectReason::Overloaded);
    EXPECT_EQ(early.retryAfterIterations, 1u);
    mgr.runIteration();
    EXPECT_TRUE(mgr.submit({5, 9, 2, 14}, 0, 0,
                           Priority::Interactive)
                    .accepted());
    mgr.runUntilDrained();
}

TEST(OverloadTest, ClassBucketsMeterIndependently)
{
    Rig rig;
    ServingConfig cfg;
    constexpr size_t kInter =
        static_cast<size_t>(Priority::Interactive);
    constexpr size_t kBatch = static_cast<size_t>(Priority::Batch);
    cfg.classBucketCapacity[kInter] = 4;
    cfg.classRefillEveryIterations[kInter] = 2;
    cfg.classBucketCapacity[kBatch] = 1;
    cfg.classRefillEveryIterations[kBatch] = 8;
    RequestManager mgr(rig.engine.get(), cfg);

    // Drain the Batch bucket; the Interactive bucket is unaffected.
    EXPECT_TRUE(
        mgr.submit({6, 3, 8, 1}, 0, 0, Priority::Batch).accepted());
    SubmitResult rej =
        mgr.submit({6, 3, 8, 2}, 0, 0, Priority::Batch);
    EXPECT_EQ(rej.reject, RejectReason::Overloaded);
    EXPECT_EQ(rej.retryAfterIterations, 8u);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(mgr.submit({5, 9, 2, 11 + i}, 0, 0,
                               Priority::Interactive)
                        .accepted());
    EXPECT_EQ(mgr.stats().rejectedOverloaded, 1u);
}

TEST(OverloadTest, RecoveryReplaysBucketStateExactly)
{
    Rig rig;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    constexpr size_t kInter =
        static_cast<size_t>(Priority::Interactive);
    cfg.classBucketCapacity[kInter] = 3;
    cfg.classRefillEveryIterations[kInter] = 5;

    // Live manager: consume ingress tokens across a few
    // iterations, journaling as it goes.
    std::stringstream journal_buf;
    JournalWriter writer(journal_buf);
    RequestManager live(rig.engine.get(), cfg);
    live.attachJournal(&writer);
    ASSERT_TRUE(live.submit({5, 9, 2, 11}, 4, 0,
                            Priority::Interactive)
                    .accepted());
    ASSERT_TRUE(live.submit({5, 9, 2, 12}, 4, 0,
                            Priority::Interactive)
                    .accepted());
    for (int i = 0; i < 3; ++i)
        live.runIteration();
    ASSERT_TRUE(live.submit({5, 9, 2, 13}, 4, 0,
                            Priority::Interactive)
                    .accepted());

    // Process crash: rebuild purely from the journal.
    RequestManager recovered(rig.engine.get(), cfg);
    std::stringstream journal_in(journal_buf.str());
    recovered.recover(nullptr, &journal_in);

    // The recovered bucket must meter exactly like the live one:
    // identical accept/reject decisions and retry-after hints for
    // an identical probe burst.
    for (int i = 0; i < 4; ++i) {
        SubmitResult a = live.submit({5, 9, 2, 20 + i}, 4, 0,
                                     Priority::Interactive);
        SubmitResult b = recovered.submit({5, 9, 2, 20 + i}, 4, 0,
                                          Priority::Interactive);
        EXPECT_EQ(a.accepted(), b.accepted()) << "probe " << i;
        EXPECT_EQ(a.retryAfterIterations, b.retryAfterIterations)
            << "probe " << i;
    }
    live.runUntilDrained();
    recovered.runUntilDrained();
    ASSERT_EQ(live.finished().size(), recovered.finished().size());
}

} // namespace
} // namespace runtime
} // namespace specinfer
