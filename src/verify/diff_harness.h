/**
 * @file
 * Differential correctness harness: the spec-vs-incremental oracle.
 *
 * SpecInfer's central guarantee (paper §4.3) is that tree-based
 * speculative inference is *exactly* equivalent to incremental
 * decoding — token-for-token under greedy verification, and
 * distribution-identical under multi-step speculative sampling
 * (Theorem 4.2). This library turns that claim into an executable
 * oracle over randomized configurations:
 *
 *  - greedy trials: a random tiny transformer, SSM pool, expansion
 *    config <k_1..k_m>, prompt, stop sequences and prefill chunking
 *    are derived from one seed; SpecEngine::generate must match
 *    incrementalGenerate token-for-token (log-probs close, stats
 *    consistent);
 *  - MSS distribution checks: with a fixed prefix, the empirical
 *    next-token distribution over thousands of seeded generations
 *    must pass a chi-square test against the exact LLM decoding
 *    distribution and a two-sample test against the incremental
 *    path;
 *  - token-tree fuzzing: merge union and idempotence (Def. 3.2),
 *    proposal-multiset preservation, topological node/chunk
 *    ordering;
 *  - KV round trips: keepRows() after verification leaves the cache
 *    byte-identical to a fresh prefill of the accepted prefix.
 *
 * Every trial is a pure function of its 64-bit seed, so any failure
 * reported by tools/diffcheck prints a one-line repro that replays
 * the exact case (`diffcheck --replay <seed> --kind <kind>`).
 */

#ifndef SPECINFER_VERIFY_DIFF_HARNESS_H
#define SPECINFER_VERIFY_DIFF_HARNESS_H

#include <cstdint>
#include <string>
#include <vector>

namespace specinfer {
namespace verify {

/** Outcome of one seeded trial. */
struct TrialOutcome
{
    bool ok = true;

    /** Failure description; empty when ok. */
    std::string detail;

    /** One-line summary of the derived configuration. */
    std::string configLine;
};

/**
 * Greedy differential trial: assert token-exact equality between
 * SpecEngine::generate (greedy verification) and incrementalGenerate
 * on a configuration derived entirely from `seed`.
 *
 * @param verbose When set, configLine additionally carries the
 *        prompt and both token streams (for --replay).
 */
TrialOutcome runGreedyTrial(uint64_t seed, bool verbose = false);

/**
 * TokenTree invariant fuzz: random per-SSM trees are merged and the
 * result checked for path-set union, proposal-multiset preservation
 * (per-SSM max-multiplicity union), SSM-distribution union, merge
 * idempotence, topological order, and chunk-conversion parent
 * consistency.
 */
TrialOutcome runTreeFuzzTrial(uint64_t seed);

/**
 * KV-compaction round trip: decode a random token tree, keepRows()
 * a random accepted path, and require the compacted cache to be
 * byte-identical to a fresh prefill of the accepted sequence (and
 * future decoding to agree bitwise).
 */
TrialOutcome runKvRoundTripTrial(uint64_t seed);

/**
 * Crash/recovery equivalence trial: run a seeded serving workload
 * (continuous batching, optional KV pool pressure and injected
 * allocation faults, greedy or stochastic engine) twice — once
 * uninterrupted, once with write-ahead journaling, periodic
 * snapshots, and a process crash injected at a random point inside
 * runIteration() (including mid-append, leaving a torn journal
 * record). The crashed manager is discarded and rebuilt purely from
 * the persisted snapshot + journal bytes, then driven to
 * completion; some trials crash and recover twice.
 *
 * Passes when every request's final output is token-for-token
 * identical between the two runs, stop reasons and per-step cost
 * records (core::StepRecord) agree, no request is lost or
 * duplicated, and the KV pool ends empty with zero redundant
 * releases.
 */
TrialOutcome runRecoveryTrial(uint64_t seed, bool verbose = false);

/** Configuration of the MSS distribution check. */
struct MssCheckConfig
{
    uint64_t seed = 2026;

    /** Seeded generations per path (spec and incremental). */
    size_t samples = 4000;

    /** Significance level of the chi-square verdicts. */
    double alpha = 1.0e-3;

    /** LLM decoding temperature. */
    float temperature = 0.9f;

    /** SSMs in the speculation pool (merge-based trees when > 1). */
    size_t ssmCount = 2;
};

/** Outcome of the MSS distribution check. */
struct MssCheckResult
{
    bool ok = true;
    std::string detail;

    /** Spec empirical vs. exact LLM law (goodness of fit). */
    double chiSquare = 0.0;
    double critical = 0.0;
    size_t df = 0;

    /** Spec empirical vs. incremental empirical (homogeneity). */
    double chiSquareTwoSample = 0.0;
    double criticalTwoSample = 0.0;
    size_t dfTwoSample = 0;

    /** Total variation between spec empirical and the exact law. */
    double tvd = 0.0;
};

/**
 * Multi-step speculative sampling check: fix a prefix, generate the
 * next token via the full speculative engine under `samples`
 * distinct request seeds, and test the empirical distribution
 * against (a) the exact LLM decoding distribution at the prefix and
 * (b) the empirical distribution of the incremental path.
 */
MssCheckResult runMssDistributionCheck(const MssCheckConfig &cfg);

} // namespace verify
} // namespace specinfer

#endif // SPECINFER_VERIFY_DIFF_HARNESS_H
