/**
 * @file
 * The speculate / tree-decode / verify loop (paper Algorithm 2) and
 * per-request session state.
 *
 * A SpecSession owns one request's verified sequence, LLM KV cache,
 * and per-SSM KV caches. Each step():
 *   1. the Speculator builds a token tree rooted at the last
 *      verified token;
 *   2. the LLM decodes the whole tree (plus any not-yet-cached
 *      verified tokens) in a single tree-based parallel decoding
 *      chunk;
 *   3. the Verifier walks the tree and appends the accepted tokens
 *      plus one bonus token;
 *   4. the LLM cache keeps the verified path and drops the rejected
 *      branches (KvCache::keepRows).
 *
 * Configured with an empty expansion the engine degenerates to
 * exact incremental decoding (the paper's "SpecInfer w/ incremental
 * decoding" ablation); with a single SSM and all-ones expansion it
 * is sequence-based speculative inference.
 */

#ifndef SPECINFER_CORE_SPEC_ENGINE_H
#define SPECINFER_CORE_SPEC_ENGINE_H

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/speculator.h"
#include "core/verifier.h"
#include "model/transformer.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace specinfer {
namespace obs {
class ObsContext;
}
namespace model {
class PrefixKvStore;
}
namespace core {

/** Full engine configuration. */
struct EngineConfig
{
    SpeculatorConfig spec;
    model::SamplingParams llmSampling;
    VerifyMode verify = VerifyMode::Greedy;
    size_t maxNewTokens = 128;
    bool stopAtEos = true;
    uint64_t seed = 0x5eedULL;

    /**
     * Chunked prefill: cap the number of prompt tokens the LLM
     * processes in one iteration (0 = unlimited). Long prompts are
     * then absorbed across several iterations that emit no tokens,
     * bounding per-iteration latency so batched co-runners are not
     * stalled behind one giant prefill.
     */
    size_t maxPrefillChunk = 0;

    /**
     * Stop sequences: generation ends as soon as the generated
     * suffix equals one of these token sequences (the match is kept
     * in the output, like EOS). Empty entries are ignored.
     */
    std::vector<std::vector<int>> stopSequences;

    /**
     * Observability context (non-owning). The engine resolves this
     * against the process-global context at construction
     * (obs::resolveObs); when both are null every instrumentation
     * site is a single skipped branch and outputs are bit-identical
     * to an uninstrumented build.
     */
    obs::ObsContext *obs = nullptr;

    /** Convenience: greedy engine with the paper's expansion. */
    static EngineConfig greedyDefault();

    /** Convenience: stochastic engine (MSS) with temperature t. */
    static EngineConfig stochasticDefault(float temperature = 1.0f);
};

/** Per-iteration record feeding figures 9-11 and the simulator. */
struct StepRecord
{
    size_t treeSize = 0;         ///< speculated (non-root) nodes
    size_t verifiedTokens = 0;   ///< tokens appended (incl. bonus)
    size_t llmChunkTokens = 0;   ///< tokens the LLM decoded this step
    size_t ssmTokensDecoded = 0; ///< SSM token-forwards this step

    /** True for a chunked-prefill iteration that only absorbed
     *  prompt tokens (no speculation, no tokens emitted). */
    bool prefill = false;

    /** True when an injected speculator/verifier fault degraded this
     *  step to plain incremental decoding (util::FaultPoint::SsmStep
     *  or Verify); the step still emits at least one token. */
    bool fallback = false;

    bool operator==(const StepRecord &) const = default;
};

/** Stream codec of one StepRecord, shared by the session and the
 *  serving snapshot. */
void writeStepRecord(std::ostream &out, const StepRecord &record);
StepRecord readStepRecord(std::istream &in);

/** Accumulated per-request speculation statistics. */
struct SpecStats
{
    std::vector<StepRecord> steps;

    size_t llmSteps() const { return steps.size(); }

    /** Speculate+verify iterations, excluding prefill-only steps. */
    size_t decodeSteps() const;

    /** Steps degraded to incremental decoding by an injected fault. */
    size_t fallbackSteps() const;

    size_t totalGenerated() const;
    size_t totalLlmTokens() const;
    size_t totalSsmTokens() const;

    /** Mean verified tokens per *decode* step (Table 2's metric);
     *  prefill-only steps emit nothing and are excluded. */
    double avgVerifiedPerStep() const;
};

/** Result of a complete generation. */
struct GenerationResult
{
    std::vector<int> tokens;  ///< generated tokens (prompt excluded)
    std::vector<float> logProbs; ///< per-token LLM log-probabilities
    SpecStats stats;
};

class SpecEngine;

/**
 * Mutable per-request decoding state. Create via
 * SpecEngine::makeSession(); drive with step() until done().
 */
class SpecSession
{
  public:
    bool done() const { return done_; }

    /**
     * Run one speculate+verify iteration. @pre !done()
     *
     * @param allow_speculation When false the step skips the
     *        speculator entirely and decodes one plain incremental
     *        token (the serving runtime's degradation ladder uses
     *        this to disable speculation after repeated SSM faults;
     *        speculation is an optimization, never a correctness
     *        dependency).
     *
     * Equivalent to advance() followed by publishStep().
     */
    void step(bool allow_speculation = true);

    /**
     * The part of step() that touches only this session: caches,
     * RNG, tree, and thread-safe metrics. Sessions of one engine may
     * advance concurrently (the weights are read-only); the
     * speculator and verifier faults are keyed by (request, step
     * index), so the schedule is the same in any order. Engine spans
     * and prompt-block payloads are held back for publishStep().
     */
    void advance(bool allow_speculation = true);

    /**
     * Emit what the last advance() held back: its engine spans to
     * the tracer, and resident prompt blocks to the prefix
     * store. Not thread-safe; the serving runtime calls it serially
     * in batch order, so the trace and the store fill order do not
     * depend on which session finished computing first.
     */
    void publishStep();

    /** Prompt + generated tokens. */
    const std::vector<int> &sequence() const { return seq_; }

    /** Generated tokens only. */
    std::vector<int> generated() const;

    const SpecStats &stats() const { return stats_; }

    /** Why the session finished (valid once done()). The engine
     *  only ever sets the first five; the trailing outcomes are set
     *  by the serving runtime when it terminates a request without
     *  the session itself finishing. */
    enum class StopReason
    {
        None,
        Eos,
        MaxTokens,
        CapacityLimit,
        StopSequence,
        Deadline,   ///< iteration-budget deadline expired (runtime)
        Cancelled,  ///< client cancellation (runtime)
        Preempted,  ///< preemption/retry budget exhausted (runtime)
        Shed,       ///< load-shed from a full pending queue (runtime)
    };
    StopReason stopReason() const { return stopReason_; }

    /**
     * Log-probability of each generated token under the LLM's
     * plain (temperature-1) distribution at its decoding position;
     * parallel to generated().
     */
    const std::vector<float> &logProbs() const { return logProbs_; }

    /**
     * Serialize the decoding decisions (sequence, log-probs, RNG,
     * stats, stop state) and the length of each KV cache, so a
     * serving snapshot can reconstruct the session bit-exactly via
     * SpecEngine::loadSession(). No KV rows are written: the loader
     * re-derives them with hydrateKv().
     */
    void save(std::ostream &out) const;

    /** Current sampler/RNG state — the "RNG cursor" journaled after
     *  every step so replay resumes the exact random stream. */
    util::RngState rngCursor() const { return rng_.state(); }

    /**
     * Attach the serving runtime's prefix-block payload store. Once
     * attached the session publishes every full prompt block it has
     * resident (fill is a no-op for blocks no admission declared)
     * and may adopt blocks via adoptPrefix(). Purely a
     * performance channel: chunk-layout invariance keeps outputs
     * bit-identical whether rows are adopted or recomputed.
     */
    void enablePrefixSharing(model::PrefixKvStore *store);

    /**
     * Adopt already-computed KV rows for a prompt prefix instead of
     * prefilling them. `full_hashes` are leading full prompt-block
     * hashes (each must match this prompt's own chain); `partial_hash`
     * optionally names an interned block whose first `partial_tokens`
     * tokens extend the match past the last full block. Adoption is
     * contiguous, stops at the first cold (unfilled) block, and is
     * capped at promptLen - 1 so step() always has at least the tree
     * root left to decode.
     *
     * @pre enablePrefixSharing() was called and no step has run.
     * @return Prompt tokens whose prefill was skipped.
     */
    size_t adoptPrefix(const std::vector<uint64_t> &full_hashes,
                       uint64_t partial_hash, size_t partial_tokens);

    /**
     * Re-apply one journaled step without recomputing it: append the
     * step's verified tokens and log-probs, record its StepRecord,
     * jump the RNG to the journaled post-step cursor, and hydrate
     * every cache to the level the live step left it at.
     */
    void restoreStep(const std::vector<int> &tokens,
                     const std::vector<float> &log_probs,
                     const StepRecord &record,
                     const util::RngState &rng_after, bool done,
                     StopReason stop_reason);

    /** LLM KV rows currently resident (the chunked-prefill cursor:
     *  step() prefills from here). */
    size_t cachedTokens() const { return llmCache_.length(); }

    /**
     * Bring the LLM cache to `llm_target` rows and every SSM cache to
     * `ssm_target` rows with one plain sequence forward each over the
     * missing tokens — bit-identical to the rows the live run held,
     * since chunk layout never affects values — and republish newly
     * resident prompt blocks. Caches already that long are left as
     * they are. Snapshot load and journal replay both rebuild rows
     * only through here, so a recovered session neither repeats
     * prefill iterations (which wall-clock deadlines observe) nor
     * re-decodes its SSM prefix. Consumes no RNG, records no step.
     */
    void hydrateKv(size_t llm_target, size_t ssm_target);

  private:
    friend class SpecEngine;
    SpecSession(const SpecEngine *engine, std::vector<int> prompt,
                uint64_t request_seed, size_t max_new_tokens,
                uint64_t track);

    /** Truncate at a stop-sequence match inside `appended` and set
     *  the stop state; returns the (possibly shortened) list. */
    std::vector<int> applyStopSequences(std::vector<int> appended);

    /** Capture resident full prompt blocks into the prefix store
     *  (no-op for filled blocks and ones no admission declared). */
    void publishPromptBlocks();

    const SpecEngine *engine_;
    std::vector<int> seq_;
    size_t promptLen_;
    size_t maxNewTokens_;
    std::vector<float> logProbs_;
    model::KvCache llmCache_;
    std::vector<model::KvCache> ssmCaches_;
    util::Rng rng_;
    SpecStats stats_;
    bool done_ = false;
    StopReason stopReason_ = StopReason::None;
    /** Request id under the request manager (the request seed for
     *  bare generate() sessions): the trace track and the first half
     *  of the step fault key. */
    uint64_t track_ = 0;

    /** Prefix-sharing payload store (non-owning; null when the
     *  serving runtime has sharing disabled). */
    model::PrefixKvStore *prefixStore_ = nullptr;
    /** Chained hashes of this prompt's full blocks. */
    std::vector<uint64_t> promptHashes_;
    /** Engine trace events of the last advance(), awaiting
     *  publishStep(). */
    std::vector<obs::TraceEvent> pendingTrace_;
};

/**
 * The serving engine: immutable models + configuration shared by
 * all requests.
 */
class SpecEngine
{
  public:
    /**
     * @param llm Non-owning pointer to the target model.
     * @param ssms Non-owning SSM pool (may be empty only when the
     *        expansion config is empty, i.e. incremental mode).
     */
    SpecEngine(const model::Transformer *llm,
               std::vector<const model::Transformer *> ssms,
               EngineConfig cfg);

    const EngineConfig &config() const { return cfg_; }
    const model::Transformer &llm() const { return *llm_; }

    /** Maximum speculated nodes a merged token tree can hold (the
     *  per-iteration KV headroom a request needs beyond its
     *  sequence). */
    size_t treeBudget() const { return treeBudget_; }

    /**
     * Create a session for one request.
     *
     * @param max_new_tokens Per-request generation budget override;
     *        0 uses the engine default.
     */
    SpecSession makeSession(std::vector<int> prompt,
                            uint64_t request_seed = 0,
                            size_t max_new_tokens = 0) const;

    /** Run a request to completion. */
    GenerationResult generate(const std::vector<int> &prompt,
                              uint64_t request_seed = 0,
                              size_t max_new_tokens = 0) const;

    /**
     * Reconstruct a session saved with SpecSession::save(), then
     * re-derive its KV rows to the recorded lengths with
     * SpecSession::hydrateKv(). The engine must be configured
     * identically to the saving engine: the SSM count and every
     * cache length are validated, while model identity and
     * sampling/seed configuration are the caller's responsibility
     * (the serving snapshot carries the engine identity implicitly).
     *
     * @param track The request id the session was made with: its
     *        trace track and the key of its step faults.
     */
    SpecSession loadSession(std::istream &in, uint64_t track) const;

  private:
    friend class SpecSession;

    const model::Transformer *llm_;
    std::unique_ptr<Speculator> speculator_; // null in incremental mode
    Verifier verifier_;
    EngineConfig cfg_;
    size_t cacheCapacity_;
    size_t treeBudget_; ///< max speculated nodes in a merged tree
    obs::ObsContext *obs_; ///< resolved cfg.obs ?: global (may be null)
};

/**
 * Reference incremental decoding (paper Algorithm 1), implemented
 * independently of the speculative path; used as ground truth by
 * the equivalence tests and as the baseline in benches.
 *
 * `stop_sequences` mirrors EngineConfig::stopSequences: generation
 * ends as soon as the generated suffix equals one of the entries
 * (the match is kept in the output), keeping the oracle comparable
 * to SpecSession on configs that use stop sequences.
 */
GenerationResult incrementalGenerate(
    const model::Transformer &llm, const std::vector<int> &prompt,
    const model::SamplingParams &params, size_t max_new_tokens,
    util::Rng &rng, bool stop_at_eos = true,
    const std::vector<std::vector<int>> &stop_sequences = {});

} // namespace core
} // namespace specinfer

#endif // SPECINFER_CORE_SPEC_ENGINE_H
