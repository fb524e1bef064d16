/**
 * @file
 * Learning-based speculator (paper §3): drives one or more SSMs to
 * construct a speculated token tree for the current sequence, using
 * expansion-based construction per SSM and merge-based construction
 * across SSMs.
 */

#ifndef SPECINFER_CORE_SPECULATOR_H
#define SPECINFER_CORE_SPECULATOR_H

#include <vector>

#include "core/expansion.h"
#include "core/token_tree.h"
#include "model/sampler.h"
#include "model/transformer.h"
#include "util/rng.h"

namespace specinfer {
namespace core {

/** How candidate tokens are selected from an SSM's distribution. */
enum class SpeculationMode
{
    /** Deterministic top-k expansion; pairs with greedy verification. */
    TopK,
    /** i.i.d. samples from the SSM distribution; pairs with MSS /
     *  naive-sampling stochastic verification (Theorem 4.2 requires
     *  candidates to be genuine SSM samples). */
    Sampled,
};

/**
 * How many candidates to expand per frontier node at each step.
 *
 * Static follows the preset expansion config exactly (paper §3).
 * AdaptiveMass implements the paper's future-work direction:
 * expand a node's top tokens until their cumulative SSM probability
 * reaches a target mass (capped), so confident nodes stay narrow
 * and uncertain nodes branch wide at equal average tree size.
 */
enum class ExpansionPolicy
{
    Static,
    AdaptiveMass,
};

/** Speculator configuration. */
struct SpeculatorConfig
{
    ExpansionConfig expansion = ExpansionConfig::paperDefault();
    SpeculationMode mode = SpeculationMode::TopK;
    /** Distribution the SSM proposals are drawn from / scored by. */
    model::SamplingParams ssmSampling;

    /** Candidate-count policy per step. */
    ExpansionPolicy policy = ExpansionPolicy::Static;

    /** AdaptiveMass: stop expanding a node once its selected
     *  candidates hold this much SSM probability mass. */
    float adaptiveMass = 0.6f;

    /** AdaptiveMass: hard cap on candidates per node per step. */
    size_t adaptiveMaxWidth = 4;

    /** AdaptiveMass: hard cap on speculated nodes per tree (bounds
     *  KV-cache headroom; static trees are bounded by the config). */
    size_t maxTreeNodes = 64;

    /** Upper bound on speculated nodes per tree under this config
     *  (sizes per-request KV caches). */
    size_t nodeBudget() const;
};

/** Cost accounting for one speculation call. */
struct SpeculationCost
{
    size_t ssmTokensDecoded = 0;   ///< token-forwards across all SSMs
    size_t ssmForwardCalls = 0;    ///< chunks (kernel launches)
};

/**
 * Runs a pool of SSMs to produce merged speculated token trees.
 *
 * The speculator is stateless across requests; per-request SSM KV
 * caches are created with makeCaches() and passed into speculate().
 * Invariant maintained: on return, cache s holds exactly the tokens
 * of the verified sequence passed in (speculated rows rolled back),
 * so the next call only decodes newly verified tokens.
 */
class Speculator
{
  public:
    /**
     * @param ssms Non-owning SSM pool; index in this vector is the
     *             ssm_id recorded in tree proposals.
     * @param cfg Expansion and sampling configuration.
     */
    Speculator(std::vector<const model::Transformer *> ssms,
               SpeculatorConfig cfg);

    size_t ssmCount() const { return ssms_.size(); }
    const model::Transformer &ssm(size_t i) const { return *ssms_[i]; }
    const SpeculatorConfig &config() const { return cfg_; }

    /** Create per-request SSM caches (one per pool member). */
    std::vector<model::KvCache> makeCaches(size_t capacity) const;

    /**
     * Build a speculated token tree for the verified sequence `seq`.
     *
     * @param seq Current verified sequence (prompt + generated);
     *            must be non-empty. The tree root holds seq.back().
     * @param caches Per-SSM KV caches; each must hold a prefix of
     *            seq (at most seq.size() tokens).
     * @param rng Randomness for Sampled mode.
     * @param cost Optional cost accounting output (accumulated).
     */
    TokenTree speculate(const std::vector<int> &seq,
                        std::vector<model::KvCache> &caches,
                        util::Rng &rng,
                        SpeculationCost *cost = nullptr) const;

  private:
    TokenTree speculateOne(size_t ssm_id, const std::vector<int> &seq,
                           model::KvCache &cache, util::Rng &rng,
                           SpeculationCost *cost) const;

    std::vector<const model::Transformer *> ssms_;
    SpeculatorConfig cfg_;
};

} // namespace core
} // namespace specinfer

#endif // SPECINFER_CORE_SPECULATOR_H
