/**
 * @file
 * Random-fault soak: thousands of scheduling iterations under a
 * seeded random fault schedule (speculator, verifier, KV allocator,
 * straggler faults) with random arrivals, deadlines, and client
 * cancellations. Invariants checked throughout:
 *
 *  - liveness: the manager always drains (no scheduler livelock);
 *  - conservation: every accepted request gets exactly one result;
 *  - the differential oracle: every normally finished request's
 *    tokens are token-identical to the fault-free engine output,
 *    and every aborted request's partial output is a prefix of it.
 *
 * Any failure prints the injector's one-line seed repro. Override
 * the schedule with SPECINFER_SOAK_SEED=<n> and the length with
 * SPECINFER_SOAK_ITERATIONS=<n> to widen the search locally or
 * replay a CI failure.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "runtime/request_manager.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"

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

TEST(FaultSoakTest, RandomFaultScheduleKeepsEveryInvariant)
{
    const uint64_t seed = envOr("SPECINFER_SOAK_SEED", 20260806);
    const size_t soak_iterations =
        envOr("SPECINFER_SOAK_ITERATIONS", 10000);

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
    // ~2.5 worst-case footprints: real memory pressure on top of
    // the injected allocation faults.
    size_t per_request =
        6 + ecfg.maxNewTokens + engine.treeBudget() + 2;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(per_request) * 5 / 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.maxPendingRequests = 8;
    cfg.maxPreemptions = 4;
    cfg.defaultDeadlineIterations = 400; // backstop, rarely binding
    cfg.degradeAfterConsecutiveFaults = 3;
    cfg.degradeBackoffIterations = 8;
    RequestManager manager(&engine, cfg);

    FaultInjector fi(seed);
    fi.setProbability(FaultPoint::SsmStep, 0.10);
    fi.setProbability(FaultPoint::Verify, 0.05);
    fi.setProbability(FaultPoint::KvAlloc, 0.05);
    fi.setProbability(FaultPoint::SlowIteration, 0.02);

    // Workload randomness is a separate stream so the fault
    // schedule replays regardless of arrival pattern tweaks.
    util::Rng workload(seed ^ 0x50a4ULL);

    struct Submitted
    {
        std::vector<int> prompt;
        size_t maxNewTokens;
        bool hadDeadline = false;
    };
    std::map<uint64_t, Submitted> accepted;
    std::vector<uint64_t> live; // accepted, not yet seen finished
    size_t rejected = 0, cancel_hits = 0;

    {
        FaultScope scope(&fi);
        for (size_t it = 0; it < soak_iterations; ++it) {
            // Random arrivals, ~0.22 per iteration.
            if (workload.uniform() < 0.22) {
                Submitted sub;
                size_t len = 3 + size_t(workload.uniform() * 4);
                for (size_t t = 0; t < len; ++t)
                    sub.prompt.push_back(
                        1 + int(workload.uniform() * 90));
                sub.maxNewTokens =
                    8 + size_t(workload.uniform() * 9);
                size_t deadline = 0;
                if (workload.uniform() < 0.25) {
                    deadline = 20 + size_t(workload.uniform() * 31);
                    sub.hadDeadline = true;
                }
                SubmitResult sr = manager.submit(
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
            // Occasional client cancellation of a random live id
            // (it may have finished already; cancel then says no).
            if (!live.empty() && workload.uniform() < 0.01) {
                size_t pick =
                    size_t(workload.uniform() * double(live.size()));
                pick = std::min(pick, live.size() - 1);
                if (manager.cancel(live[pick]))
                    ++cancel_hits;
            }
            manager.runIteration();
            // Drop finished ids from the live list (bounded work).
            if (live.size() > 64 || it + 1 == soak_iterations) {
                std::map<uint64_t, bool> done;
                for (const RequestResult &res : manager.finished())
                    done[res.id] = true;
                std::vector<uint64_t> still;
                for (uint64_t id : live)
                    if (!done.count(id))
                        still.push_back(id);
                live.swap(still);
            }
        }
        // Drain with a liveness guard: no fault schedule may wedge
        // the scheduler.
        size_t guard = 0;
        while (manager.busy()) {
            manager.runIteration();
            ASSERT_LT(++guard, 5000u)
                << "soak livelock: " << fi.reproLine();
        }
    }

    // Conservation: exactly one result per accepted request, none
    // invented, none lost.
    ASSERT_EQ(manager.finished().size(), accepted.size())
        << fi.reproLine();
    std::map<uint64_t, const RequestResult *> results;
    for (const RequestResult &res : manager.finished()) {
        ASSERT_TRUE(accepted.count(res.id)) << fi.reproLine();
        ASSERT_TRUE(results.emplace(res.id, &res).second)
            << "duplicate result for id " << res.id;
    }

    // Differential oracle (outside the fault scope: the baseline
    // must be fault-free). Finished == token-identical; aborted ==
    // strict bookkeeping + prefix of the full output.
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

    // The schedule must actually have exercised the machinery.
    const ServingStats &stats = manager.stats();
    EXPECT_GT(normal, 0u) << fi.reproLine();
    EXPECT_GT(stats.fallbackSteps, 0u) << fi.reproLine();
    EXPECT_GT(stats.preemptions, 0u) << fi.reproLine();
    EXPECT_GT(stats.slowIterations, 0u) << fi.reproLine();
    EXPECT_EQ(stats.cancellations, cancel_hits);
    EXPECT_EQ(stats.requestsSubmitted, accepted.size());
    EXPECT_EQ(stats.rejectedQueueFull, rejected);
    // All KV memory returned: nothing leaks across thousands of
    // preemptions, cancellations, and deadline expiries.
    EXPECT_EQ(manager.kvPool()->usedBlocks(), 0u) << fi.reproLine();

    SPECINFER_INFO("soak: " << normal << " exact, " << aborted
                            << " aborted-prefix, " << rejected
                            << " shed at submit; "
                            << fi.reproLine());
}

} // namespace
} // namespace runtime
} // namespace specinfer
