/**
 * @file
 * Differential correctness checker: runs the spec-vs-incremental
 * oracle (src/verify) over many seeded trials and reports a one-line
 * repro for any failure.
 *
 * Usage:
 *   diffcheck [--trials N] [--fuzz-trials N] [--kv-trials N]
 *             [--recovery-trials N] [--mss-samples N] [--seed S]
 *             [--alpha A]
 *             [--replay SEED --kind greedy|fuzz|kv|recovery]
 *             [--replay-journal FILE [--verbose] [specinferd's
 *              --llm --ssm-layers --ssm-precision --tp --expansion
 *              --seed --max-tokens --temperature --batch
 *              --class-buckets --class-refill]]
 *
 * Exit status is 0 iff every check passes. On failure the tool
 * prints `diffcheck --replay <seed> --kind <kind>`, which re-runs
 * exactly the failing trial with verbose detail.
 *
 * --replay-journal re-drives a specinferd (or spec_infer --journal)
 * journal through a fresh engine built from the engine and serving
 * flags the journal was served with, and checks token-identical
 * reproduction (exact for finished requests, prefix for aborted
 * ones): the offline oracle for live daemon incidents. In this mode
 * --seed is the engine seed, as for specinferd.
 */

#include "cli_common.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "util/flags.h"
#include "verify/diff_harness.h"
#include "verify/journal_replay.h"

namespace {

using specinfer::verify::TrialOutcome;

/** Run one family of seeded trials; returns the failure count. */
size_t
runFamily(const char *kind, TrialOutcome (*trial)(uint64_t),
          uint64_t seed0, size_t trials)
{
    size_t failures = 0;
    for (size_t i = 0; i < trials; ++i) {
        const uint64_t seed = seed0 + i;
        TrialOutcome out = trial(seed);
        if (out.ok)
            continue;
        ++failures;
        std::printf("FAIL [%s] %s\n  %s\n  repro: diffcheck "
                    "--replay %llu --kind %s\n",
                    kind, out.configLine.c_str(), out.detail.c_str(),
                    static_cast<unsigned long long>(seed), kind);
    }
    std::printf("%-6s : %zu/%zu trials passed\n", kind,
                trials - failures, trials);
    return failures;
}

specinfer::verify::TrialOutcome
greedyTrialThunk(uint64_t seed)
{
    return specinfer::verify::runGreedyTrial(seed);
}

specinfer::verify::TrialOutcome
recoveryTrialThunk(uint64_t seed)
{
    return specinfer::verify::runRecoveryTrial(seed);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace specinfer;
    util::Flags flags(argc, argv);
    std::vector<std::string> allowed = tools::servingFlagNames();
    allowed.insert(allowed.end(),
                   {"trials", "fuzz-trials", "kv-trials",
                    "recovery-trials", "mss-samples", "mss-ssms",
                    "alpha", "replay", "kind", "replay-journal",
                    "verbose"});
    flags.allowOnly(allowed);

    const uint64_t seed0 =
        static_cast<uint64_t>(flags.getInt("seed", 1));

    if (flags.has("replay-journal")) {
        const std::string path = flags.get("replay-journal", "");
        std::ifstream in(path, std::ios::binary);
        if (!in.good()) {
            std::printf("cannot read journal '%s'\n", path.c_str());
            return 2;
        }
        std::unique_ptr<tools::ServingStack> stack =
            tools::servingStackFromFlags(flags);
        verify::JournalReplayResult res = verify::replayJournal(
            in, stack->engine, stack->serving, std::cout,
            flags.getBool("verbose"));
        return res.ok ? 0 : 1;
    }

    if (flags.has("replay")) {
        const uint64_t seed =
            static_cast<uint64_t>(flags.getInt("replay", 0));
        const std::string kind = flags.get("kind", "greedy");
        verify::TrialOutcome out;
        if (kind == "greedy")
            out = verify::runGreedyTrial(seed, /*verbose=*/true);
        else if (kind == "fuzz")
            out = verify::runTreeFuzzTrial(seed);
        else if (kind == "kv")
            out = verify::runKvRoundTripTrial(seed);
        else if (kind == "recovery")
            out = verify::runRecoveryTrial(seed, /*verbose=*/true);
        else {
            std::printf("unknown --kind '%s' "
                        "(greedy|fuzz|kv|recovery)\n",
                        kind.c_str());
            return 2;
        }
        std::printf("%s\n%s: %s\n", out.configLine.c_str(),
                    out.ok ? "PASS" : "FAIL",
                    out.ok ? "trial reproduces cleanly"
                           : out.detail.c_str());
        return out.ok ? 0 : 1;
    }

    const size_t trials =
        static_cast<size_t>(flags.getInt("trials", 200));
    const size_t fuzz_trials =
        static_cast<size_t>(flags.getInt("fuzz-trials", 200));
    const size_t kv_trials =
        static_cast<size_t>(flags.getInt("kv-trials", 50));
    const size_t recovery_trials =
        static_cast<size_t>(flags.getInt("recovery-trials", 100));

    size_t failures = 0;
    failures += runFamily("greedy", greedyTrialThunk, seed0, trials);
    failures += runFamily("fuzz", verify::runTreeFuzzTrial,
                          seed0, fuzz_trials);
    failures += runFamily("kv", verify::runKvRoundTripTrial,
                          seed0, kv_trials);
    failures += runFamily("recovery", recoveryTrialThunk, seed0,
                          recovery_trials);

    verify::MssCheckConfig mss;
    mss.seed = seed0 + 0x515151ULL;
    mss.samples =
        static_cast<size_t>(flags.getInt("mss-samples", 4000));
    mss.alpha = flags.getDouble("alpha", 1.0e-3);
    mss.ssmCount =
        static_cast<size_t>(flags.getInt("mss-ssms", 2));
    if (mss.samples > 0) {
        verify::MssCheckResult res =
            verify::runMssDistributionCheck(mss);
        std::printf("mss    : chi2=%.2f (crit %.2f, df %zu) "
                    "two-sample=%.2f (crit %.2f, df %zu) tvd=%.4f "
                    "-> %s\n",
                    res.chiSquare, res.critical, res.df,
                    res.chiSquareTwoSample, res.criticalTwoSample,
                    res.dfTwoSample, res.tvd,
                    res.ok ? "PASS" : "FAIL");
        if (!res.ok) {
            ++failures;
            std::printf("FAIL [mss] %s\n", res.detail.c_str());
        }
    }

    if (failures > 0) {
        std::printf("diffcheck: %zu check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("diffcheck: all checks passed\n");
    return 0;
}
