#include "core/spec_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "model/prefix_store.h"
#include "model/serialization.h"
#include "obs/obs.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"

namespace specinfer {
namespace core {

namespace {

/** Accepted speculation depth per decode step, bucketed per depth
 *  so the exposition yields an acceptance-rate-by-depth curve. */
obs::HistogramMetric *
acceptDepthHistogram(obs::ObsContext *o)
{
    return o->metrics().histogram(
        "engine_accept_depth",
        {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
}

} // namespace

EngineConfig
EngineConfig::greedyDefault()
{
    EngineConfig cfg;
    cfg.spec.expansion = ExpansionConfig::paperDefault();
    cfg.spec.mode = SpeculationMode::TopK;
    cfg.spec.ssmSampling.temperature = 1.0f;
    cfg.llmSampling.temperature = 0.0f;
    cfg.verify = VerifyMode::Greedy;
    return cfg;
}

EngineConfig
EngineConfig::stochasticDefault(float temperature)
{
    EngineConfig cfg;
    cfg.spec.expansion = ExpansionConfig::paperDefault();
    cfg.spec.mode = SpeculationMode::Sampled;
    // Proposals are drawn from a mildly flattened SSM distribution;
    // MSS preserves the LLM distribution for any proposal q, and a
    // flatter q decorrelates residual rounds, improving multi-
    // candidate acceptance (calibrated against paper Table 1).
    cfg.spec.ssmSampling.temperature = 1.3f * temperature;
    cfg.llmSampling.temperature = temperature;
    cfg.verify = VerifyMode::MultiStepSampling;
    return cfg;
}

size_t
SpecStats::totalGenerated() const
{
    size_t total = 0;
    for (const StepRecord &s : steps)
        total += s.verifiedTokens;
    return total;
}

size_t
SpecStats::totalLlmTokens() const
{
    size_t total = 0;
    for (const StepRecord &s : steps)
        total += s.llmChunkTokens;
    return total;
}

size_t
SpecStats::totalSsmTokens() const
{
    size_t total = 0;
    for (const StepRecord &s : steps)
        total += s.ssmTokensDecoded;
    return total;
}

size_t
SpecStats::decodeSteps() const
{
    size_t total = 0;
    for (const StepRecord &s : steps)
        if (!s.prefill)
            ++total;
    return total;
}

size_t
SpecStats::fallbackSteps() const
{
    size_t total = 0;
    for (const StepRecord &s : steps)
        if (s.fallback)
            ++total;
    return total;
}

double
SpecStats::avgVerifiedPerStep() const
{
    const size_t decode = decodeSteps();
    if (decode == 0)
        return 0.0;
    return static_cast<double>(totalGenerated()) /
           static_cast<double>(decode);
}

SpecEngine::SpecEngine(const model::Transformer *llm,
                       std::vector<const model::Transformer *> ssms,
                       EngineConfig cfg)
    : llm_(llm),
      verifier_(cfg.verify, cfg.llmSampling),
      cfg_(cfg),
      obs_(obs::resolveObs(cfg.obs))
{
    SPECINFER_CHECK(llm_ != nullptr, "null LLM");
    cfg_.spec.expansion.validate();
    const bool incremental = cfg_.spec.expansion.steps() == 0;
    if (!incremental) {
        SPECINFER_CHECK(!ssms.empty(),
                        "speculative mode requires at least one SSM");
        for (const model::Transformer *ssm : ssms) {
            SPECINFER_CHECK(ssm != nullptr, "null SSM");
            SPECINFER_CHECK(ssm->config().vocabSize ==
                            llm_->config().vocabSize,
                            "SSM and LLM vocabularies must match");
        }
        speculator_ = std::make_unique<Speculator>(std::move(ssms),
                                                   cfg_.spec);
    }
    // Room for the sequence plus one in-flight token tree; a merged
    // tree can hold up to one budget's worth of nodes per SSM.
    const size_t pool = speculator_ ? speculator_->ssmCount() : 1;
    treeBudget_ = cfg_.spec.nodeBudget() * pool;
    cacheCapacity_ = llm_->config().maxSeqLen + treeBudget_ + 2;
}

SpecSession
SpecEngine::makeSession(std::vector<int> prompt,
                        uint64_t request_seed,
                        size_t max_new_tokens) const
{
    return SpecSession(this, std::move(prompt),
                       cfg_.seed ^ (request_seed * 0x9e3779b9ULL),
                       max_new_tokens == 0 ? cfg_.maxNewTokens
                                           : max_new_tokens,
                       request_seed);
}

GenerationResult
SpecEngine::generate(const std::vector<int> &prompt,
                     uint64_t request_seed,
                     size_t max_new_tokens) const
{
    SpecSession session =
        makeSession(prompt, request_seed, max_new_tokens);
    while (!session.done())
        session.step();
    GenerationResult res;
    res.tokens = session.generated();
    res.logProbs = session.logProbs();
    res.stats = session.stats();
    return res;
}

SpecSession::SpecSession(const SpecEngine *engine,
                         std::vector<int> prompt,
                         uint64_t request_seed, size_t max_new_tokens,
                         uint64_t track)
    : engine_(engine),
      seq_(std::move(prompt)),
      promptLen_(seq_.size()),
      maxNewTokens_(max_new_tokens),
      llmCache_(engine->llm_->makeCache(engine->cacheCapacity_)),
      rng_(request_seed),
      track_(track)
{
    SPECINFER_CHECK(!seq_.empty(), "empty prompt");
    SPECINFER_CHECK(seq_.size() + 2 < engine->llm_->config().maxSeqLen,
                    "prompt does not fit in the sequence budget");
    if (engine_->speculator_)
        ssmCaches_ = engine_->speculator_->makeCaches(
            engine_->cacheCapacity_);
}

std::vector<int>
SpecSession::applyStopSequences(std::vector<int> appended)
{
    const auto &stops = engine_->cfg_.stopSequences;
    if (stops.empty() || appended.size() == 0)
        return appended;
    // Scan each position where a match could newly end: matches may
    // straddle the boundary between already-generated tokens and
    // this step's appended ones.
    const size_t gen_before = seq_.size() - promptLen_;
    for (size_t i = 0; i < appended.size(); ++i) {
        const size_t end = gen_before + i + 1; // generated length
        for (const std::vector<int> &stop : stops) {
            if (stop.empty() || stop.size() > end)
                continue;
            bool match = true;
            for (size_t j = 0; j < stop.size() && match; ++j) {
                size_t pos = end - stop.size() + j; // generated idx
                int tok = pos < gen_before
                              ? seq_[promptLen_ + pos]
                              : appended[pos - gen_before];
                match = tok == stop[j];
            }
            if (match) {
                appended.resize(i + 1);
                stopReason_ = StopReason::StopSequence;
                done_ = true;
                return appended;
            }
        }
    }
    return appended;
}

void
SpecSession::enablePrefixSharing(model::PrefixKvStore *store)
{
    SPECINFER_CHECK(store != nullptr, "null prefix store");
    SPECINFER_CHECK(store->layers() == llmCache_.layers() &&
                        store->kvDim() == llmCache_.kvDim(),
                    "prefix store does not match the LLM geometry");
    prefixStore_ = store;
    promptHashes_.clear();
    const size_t bt = store->blockTokens();
    uint64_t chain = util::kHashChainSeed;
    for (size_t at = 0; (at + 1) * bt <= promptLen_; ++at) {
        chain = util::hashTokenBlock(chain, seq_.data() + at * bt, bt);
        promptHashes_.push_back(chain);
    }
}

size_t
SpecSession::adoptPrefix(const std::vector<uint64_t> &full_hashes,
                         uint64_t partial_hash, size_t partial_tokens)
{
    SPECINFER_CHECK(prefixStore_ != nullptr,
                    "adoptPrefix without enablePrefixSharing");
    SPECINFER_CHECK(llmCache_.length() == 0,
                    "adoptPrefix after prefill started");
    SPECINFER_CHECK(full_hashes.size() <= promptHashes_.size(),
                    "more shared blocks than the prompt has");
    const size_t bt = prefixStore_->blockTokens();
    // step() needs at least the tree root uncached.
    const size_t cap = promptLen_ - 1;
    size_t adopted = 0;
    bool contiguous = true;
    for (size_t k = 0; k < full_hashes.size() && contiguous; ++k) {
        SPECINFER_CHECK(full_hashes[k] == promptHashes_[k],
                        "adopted block does not match the prompt");
        const size_t rows = std::min(bt, cap - adopted);
        if (rows == 0)
            break;
        const size_t got =
            prefixStore_->adoptInto(full_hashes[k], rows, &llmCache_);
        adopted += got;
        // A short (capped) adoption still counts as contiguous up to
        // the rows taken; a cold block ends adoption here.
        contiguous = got == rows && rows == bt;
    }
    // The partial block extends the match immediately after the
    // contiguous full-block chain; adopting it needs every one of
    // those blocks warm and uncapped.
    if (contiguous && partial_hash != 0 && partial_tokens > 0 &&
        adopted == full_hashes.size() * bt) {
        const size_t rows =
            std::min(partial_tokens, cap - adopted);
        adopted += prefixStore_->adoptInto(partial_hash, rows,
                                           &llmCache_);
    }
    if (adopted > 0 && engine_->obs_ != nullptr)
        engine_->obs_->metrics()
            .counter("engine_prefill_skipped_tokens")
            ->inc(adopted);
    return adopted;
}

void
SpecSession::publishPromptBlocks()
{
    if (prefixStore_ == nullptr)
        return;
    // Every resident block, not only the newly resident ones: a
    // block matched after this session passed it still gets its
    // rows, so the filled blocks stay a prefix-closed set that
    // recovery rebuilds from the declared ones (fill skips the rest).
    const size_t bt = prefixStore_->blockTokens();
    const size_t resident =
        std::min(llmCache_.length(), promptLen_) / bt;
    for (size_t k = 0; k < resident; ++k)
        prefixStore_->fill(promptHashes_[k], llmCache_, k * bt);
}

std::vector<int>
SpecSession::generated() const
{
    return std::vector<int>(seq_.begin() +
                            static_cast<ptrdiff_t>(promptLen_),
                            seq_.end());
}

namespace {

// Session snapshot framing (version 2): decisions and cache
// lengths, never KV rows. RngState is written field by field (never
// as a raw struct) so padding bytes can't leak into the format.
constexpr uint32_t kSessionVersion = 2;

void
writeRngState(std::ostream &out, const util::RngState &state)
{
    for (uint64_t word : state.s)
        model::io::writePod<uint64_t>(out, word);
    model::io::writePod<uint8_t>(out, state.hasCachedNormal ? 1 : 0);
    model::io::writePod<double>(out, state.cachedNormal);
}

util::RngState
readRngState(std::istream &in)
{
    util::RngState state;
    for (uint64_t &word : state.s)
        word = model::io::readPod<uint64_t>(in);
    state.hasCachedNormal = model::io::readPod<uint8_t>(in) != 0;
    state.cachedNormal = model::io::readPod<double>(in);
    return state;
}

} // namespace

void
writeStepRecord(std::ostream &out, const StepRecord &record)
{
    model::io::writePod<uint64_t>(out, record.treeSize);
    model::io::writePod<uint64_t>(out, record.verifiedTokens);
    model::io::writePod<uint64_t>(out, record.llmChunkTokens);
    model::io::writePod<uint64_t>(out, record.ssmTokensDecoded);
    model::io::writePod<uint8_t>(out, record.prefill ? 1 : 0);
    model::io::writePod<uint8_t>(out, record.fallback ? 1 : 0);
}

StepRecord
readStepRecord(std::istream &in)
{
    StepRecord record;
    record.treeSize = model::io::readPod<uint64_t>(in);
    record.verifiedTokens = model::io::readPod<uint64_t>(in);
    record.llmChunkTokens = model::io::readPod<uint64_t>(in);
    record.ssmTokensDecoded = model::io::readPod<uint64_t>(in);
    record.prefill = model::io::readPod<uint8_t>(in) != 0;
    record.fallback = model::io::readPod<uint8_t>(in) != 0;
    return record;
}

void
SpecSession::save(std::ostream &out) const
{
    using model::io::writePod;
    writePod<uint32_t>(out, kSessionVersion);
    writePod<uint64_t>(out, promptLen_);
    model::io::writePodVector<int>(out, seq_);
    writePod<uint64_t>(out, maxNewTokens_);
    model::io::writePodVector<float>(out, logProbs_);
    writeRngState(out, rng_.state());
    writePod<uint8_t>(out, done_ ? 1 : 0);
    writePod<uint8_t>(out, static_cast<uint8_t>(stopReason_));
    writePod<uint64_t>(out, stats_.steps.size());
    for (const StepRecord &record : stats_.steps)
        writeStepRecord(out, record);
    // KV rows are a pure function of the tokens (chunk-layout
    // invariance): loadSession() re-derives them from the lengths.
    writePod<uint64_t>(out, llmCache_.length());
    writePod<uint64_t>(out, ssmCaches_.size());
    for (const model::KvCache &cache : ssmCaches_)
        writePod<uint64_t>(out, cache.length());
    SPECINFER_CHECK(out.good(), "session write failed");
}

void
SpecSession::restoreStep(const std::vector<int> &tokens,
                         const std::vector<float> &log_probs,
                         const StepRecord &record,
                         const util::RngState &rng_after, bool done,
                         StopReason stop_reason)
{
    SPECINFER_CHECK(!done_, "restoreStep on a finished session");
    const size_t verified = seq_.size();
    const size_t cached = llmCache_.length();
    seq_.insert(seq_.end(), tokens.begin(), tokens.end());
    logProbs_.insert(logProbs_.end(), log_probs.begin(),
                     log_probs.end());
    stats_.steps.push_back(record);
    rng_.setState(rng_after);
    done_ = done;
    stopReason_ = stop_reason;
    // Where advance() left the caches: a prefill chunk absorbed
    // llmChunkTokens rows, a decode step leaves at most the new root
    // uncached, a step whose speculator ran truncated every SSM
    // cache to the sequence before it, and one that skipped it left
    // the SSM caches alone.
    hydrateKv(record.prefill ? cached + record.llmChunkTokens
                             : seq_.size() - 1,
              record.ssmTokensDecoded > 0 ? verified : 0);
}

void
SpecSession::hydrateKv(size_t llm_target, size_t ssm_target)
{
    auto hydrate = [this](const model::Transformer &model,
                          model::KvCache &cache, size_t target) {
        SPECINFER_CHECK(target <= seq_.size() &&
                            target <= cache.capacity(),
                        "hydration target beyond the sequence");
        if (target <= cache.length())
            return;
        std::vector<int> part(
            seq_.begin() + static_cast<ptrdiff_t>(cache.length()),
            seq_.begin() + static_cast<ptrdiff_t>(target));
        model.forward(model::DecodeChunk::sequence(part), cache);
    };
    hydrate(*engine_->llm_, llmCache_, llm_target);
    for (size_t s = 0; s < ssmCaches_.size(); ++s)
        hydrate(engine_->speculator_->ssm(s), ssmCaches_[s],
                ssm_target);
    publishPromptBlocks();
}

SpecSession
SpecEngine::loadSession(std::istream &in, uint64_t track) const
{
    using model::io::readPod;
    uint32_t version = readPod<uint32_t>(in);
    SPECINFER_CHECK(version == kSessionVersion,
                    "unsupported session version " << version);
    uint64_t prompt_len = readPod<uint64_t>(in);
    std::vector<int> seq = model::io::readPodVector<int>(in);
    SPECINFER_CHECK(prompt_len > 0 && prompt_len <= seq.size(),
                    "corrupt session prompt length");
    uint64_t max_new = readPod<uint64_t>(in);

    // Reconstruct through the normal constructor (prompt checks,
    // cache shells), then overwrite the mutable decoding state.
    SpecSession session(
        this,
        std::vector<int>(seq.begin(),
                         seq.begin() +
                             static_cast<ptrdiff_t>(prompt_len)),
        0, max_new, track);
    session.seq_ = std::move(seq);
    session.logProbs_ = model::io::readPodVector<float>(in);
    session.rng_.setState(readRngState(in));
    session.done_ = readPod<uint8_t>(in) != 0;
    session.stopReason_ =
        static_cast<SpecSession::StopReason>(readPod<uint8_t>(in));
    uint64_t n_steps = readPod<uint64_t>(in);
    SPECINFER_CHECK(n_steps < (1ull << 32),
                    "implausible session step count");
    session.stats_.steps.clear();
    session.stats_.steps.reserve(n_steps);
    for (uint64_t i = 0; i < n_steps; ++i)
        session.stats_.steps.push_back(readStepRecord(in));

    const uint64_t llm_len = readPod<uint64_t>(in);
    const std::vector<uint64_t> ssm_lens =
        model::io::readPodVector<uint64_t>(in);
    // speculate() leaves every SSM cache at one verified prefix.
    const uint64_t ssm_len = ssm_lens.empty() ? 0 : ssm_lens[0];
    SPECINFER_CHECK(ssm_lens.size() == session.ssmCaches_.size() &&
                        std::count(ssm_lens.begin(), ssm_lens.end(),
                                   ssm_len) ==
                            static_cast<ptrdiff_t>(ssm_lens.size()),
                    "session SSM caches do not match this engine");
    session.hydrateKv(llm_len, ssm_len);
    return session;
}

void
SpecSession::step(bool allow_speculation)
{
    advance(allow_speculation);
    publishStep();
}

void
SpecSession::publishStep()
{
    publishPromptBlocks();
    if (pendingTrace_.empty())
        return;
    obs::Tracer &tracer = engine_->obs_->tracer();
    for (obs::TraceEvent &ev : pendingTrace_)
        tracer.record(std::move(ev));
    pendingTrace_.clear();
}

void
SpecSession::advance(bool allow_speculation)
{
    SPECINFER_CHECK(!done_, "step() on a finished session");
    const model::Transformer &llm = *engine_->llm_;
    const EngineConfig &cfg = engine_->cfg_;
    obs::ObsContext *o = engine_->obs_;
    // Spans are gated on the tracer so a metrics-only context never
    // reads the clock on the decode path.
    obs::Tracer *tr = (o != nullptr && o->tracer().enabled())
                          ? &o->tracer()
                          : nullptr;
    auto span = [&](const char *name, uint64_t start,
                    std::initializer_list<obs::TraceArg> args) {
        pendingTrace_.push_back(obs::Tracer::spanEvent(
            track_, "engine", name, start, tr->nowNanos(), args));
    };
    // Decisions keyed by (request, step index), not by consultation
    // order: concurrent sessions and crash replay see one schedule.
    const uint64_t fault_key =
        util::faultKey(track_, stats_.steps.size());

    // 0. Chunked prefill: if more uncached tokens remain than the
    // per-iteration cap allows, absorb one plain chunk and return
    // without speculating (keeping at least the final token
    // uncached for the next iteration's tree root).
    if (cfg.maxPrefillChunk > 0) {
        const size_t uncached = seq_.size() - llmCache_.length();
        if (uncached > cfg.maxPrefillChunk + 1) {
            std::vector<int> part(
                seq_.begin() +
                    static_cast<ptrdiff_t>(llmCache_.length()),
                seq_.begin() +
                    static_cast<ptrdiff_t>(llmCache_.length() +
                                           cfg.maxPrefillChunk));
            const uint64_t t0 = tr != nullptr ? tr->nowNanos() : 0;
            llm.forward(model::DecodeChunk::sequence(part),
                        llmCache_);
            if (tr != nullptr)
                span("prefill", t0,
                     {{"tokens", static_cast<int64_t>(part.size())}});
            if (o != nullptr)
                o->metrics().counter("engine_prefill_chunks")->inc();
            StepRecord prefill;
            prefill.llmChunkTokens = part.size();
            prefill.prefill = true;
            stats_.steps.push_back(prefill);
            return;
        }
    }

    // 1. Speculate a token tree rooted at the last verified token.
    // An injected SSM fault (a crashed/slow speculator worker) or a
    // runtime-disabled speculator degrades this step to a root-only
    // tree: the decode/verify path below then behaves exactly like
    // incremental decoding and still emits at least one token.
    // Skipped steps are safe for the SSM caches — speculate()
    // catches caches up from any verified prefix.
    StepRecord record;
    TokenTree tree(seq_.back());
    if (engine_->speculator_ && allow_speculation) {
        if (util::faultAtKeyed(util::FaultPoint::SsmStep, fault_key)) {
            record.fallback = true;
        } else {
            const uint64_t t0 = tr != nullptr ? tr->nowNanos() : 0;
            SpeculationCost cost;
            tree = engine_->speculator_->speculate(seq_, ssmCaches_,
                                                   rng_, &cost);
            record.ssmTokensDecoded = cost.ssmTokensDecoded;
            if (tr != nullptr)
                span("speculate", t0,
                     {{"tree", static_cast<int64_t>(
                                   tree.speculatedCount())},
                      {"ssm_tokens",
                       static_cast<int64_t>(cost.ssmTokensDecoded)}});
        }
    }
    record.treeSize = tree.speculatedCount();

    // 2. Tree-based parallel decoding: catch-up tokens (verified but
    // not yet cached, ending with the root) plus the speculated
    // nodes, as one chunk.
    const size_t cached = llmCache_.length();
    SPECINFER_CHECK(cached < seq_.size(), "cache/sequence mismatch");
    const size_t catch_up = seq_.size() - cached; // includes root
    model::DecodeChunk chunk;
    chunk.tokens.reserve(catch_up + tree.speculatedCount());
    chunk.parents.reserve(catch_up + tree.speculatedCount());
    for (size_t i = 0; i < catch_up; ++i) {
        chunk.tokens.push_back(seq_[cached + i]);
        chunk.parents.push_back(static_cast<int32_t>(i) - 1);
    }
    const int32_t offset = static_cast<int32_t>(catch_up) - 1;
    for (size_t n = 1; n < tree.size(); ++n) {
        const TreeNode &node = tree.node(static_cast<NodeId>(n));
        chunk.tokens.push_back(node.token);
        chunk.parents.push_back(node.parent + offset);
    }
    const size_t base = llmCache_.length();
    const uint64_t t_decode = tr != nullptr ? tr->nowNanos() : 0;
    tensor::Tensor chunk_logits = llm.forward(chunk, llmCache_);
    if (tr != nullptr)
        span("tree_decode", t_decode,
             {{"chunk", static_cast<int64_t>(chunk.size())}});
    record.llmChunkTokens = chunk.size();

    // Re-index logits by tree node id (root = catch-up row offset).
    tensor::Tensor node_logits(tree.size(), chunk_logits.cols());
    for (size_t n = 0; n < tree.size(); ++n)
        std::memcpy(node_logits.row(n),
                    chunk_logits.row(static_cast<size_t>(offset) + n),
                    chunk_logits.cols() * sizeof(float));

    // 3. Verify. An injected verifier fault discards the speculated
    // tree and re-verifies a root-only tree on the already-computed
    // root logits — equivalent to rejecting every speculated node,
    // so the step degrades to incremental output instead of
    // aborting. Only consulted when there is a tree to lose.
    VerifyResult verdict;
    const uint64_t t_verify = tr != nullptr ? tr->nowNanos() : 0;
    if (tree.speculatedCount() > 0 &&
        util::faultAtKeyed(util::FaultPoint::Verify, fault_key)) {
        record.fallback = true;
        TokenTree root_only(seq_.back());
        tensor::Tensor root_logits(1, node_logits.cols());
        std::memcpy(root_logits.row(0), node_logits.row(0),
                    node_logits.cols() * sizeof(float));
        verdict = engine_->verifier_.verify(root_only, root_logits,
                                            rng_);
    } else {
        verdict = engine_->verifier_.verify(tree, node_logits, rng_);
    }
    if (tr != nullptr)
        span("verify", t_verify,
             {{"accepted",
               static_cast<int64_t>(verdict.acceptedNodes.size())},
              {"emitted", static_cast<int64_t>(verdict.tokens.size())}});

    // Respect the generation budget and EOS.
    std::vector<int> appended = verdict.tokens;
    const size_t already = seq_.size() - promptLen_;
    if (already + appended.size() > maxNewTokens_) {
        appended.resize(maxNewTokens_ - already);
        stopReason_ = StopReason::MaxTokens;
        done_ = true;
    }
    if (cfg.stopAtEos) {
        for (size_t i = 0; i < appended.size(); ++i) {
            if (appended[i] == llm.config().eosToken) {
                appended.resize(i + 1);
                stopReason_ = StopReason::Eos;
                done_ = true;
                break;
            }
        }
    }
    appended = applyStopSequences(std::move(appended));
    SPECINFER_CHECK(!appended.empty() || done_,
                    "verification produced no tokens");

    // Per-token LLM log-probabilities: token i of the verdict is
    // emitted from the distribution at the i-th node on the walk
    // (root, then each accepted node).
    {
        model::SamplingParams unit;
        unit.temperature = 1.0f;
        NodeId dist_node = TokenTree::kRoot;
        for (size_t i = 0; i < appended.size(); ++i) {
            std::vector<float> p = model::logitsToProbs(
                node_logits.row(static_cast<size_t>(dist_node)),
                node_logits.cols(), unit);
            logProbs_.push_back(std::log(std::max(
                p[static_cast<size_t>(appended[i])], 1.0e-30f)));
            if (i < verdict.acceptedNodes.size())
                dist_node = verdict.acceptedNodes[i];
        }
    }
    seq_.insert(seq_.end(), appended.begin(), appended.end());
    record.verifiedTokens = appended.size();
    stats_.steps.push_back(record);

    if (o != nullptr) {
        // Accepted = tokens drawn from accepted tree nodes; anything
        // beyond that is the bonus token from the last distribution.
        const size_t accepted = std::min(
            appended.size(), verdict.acceptedNodes.size());
        obs::MetricsRegistry &reg = o->metrics();
        reg.counter("engine_tokens_proposed")->inc(record.treeSize);
        reg.counter("engine_tokens_verified")->inc(appended.size());
        reg.counter("engine_tokens_accepted")->inc(accepted);
        reg.counter("engine_bonus_tokens")
            ->inc(appended.size() - accepted);
        reg.counter("engine_ssm_tokens")
            ->inc(record.ssmTokensDecoded);
        if (record.fallback) {
            reg.counter("engine_fallback_steps")->inc();
            if (tr != nullptr)
                pendingTrace_.push_back(obs::Tracer::instantEvent(
                    track_, "engine", "fallback", tr->nowNanos()));
        }
        if (record.treeSize > 0)
            acceptDepthHistogram(o)->observe(
                static_cast<double>(accepted));
    }

    // 4. KV-cache compaction: keep the prefix, the catch-up tokens
    // (including the root), and the accepted nodes that survived the
    // budget cut. Kept accepted tokens = appended minus the bonus.
    size_t kept_accepted =
        appended.size() > 0 &&
        appended.size() == verdict.tokens.size()
            ? verdict.acceptedNodes.size()
            : std::min(appended.size(), verdict.acceptedNodes.size());
    std::vector<size_t> keep;
    keep.reserve(base + catch_up + kept_accepted);
    for (size_t s = 0; s < base + catch_up; ++s)
        keep.push_back(s);
    for (size_t i = 0; i < kept_accepted; ++i)
        keep.push_back(base + static_cast<size_t>(offset) +
                       static_cast<size_t>(verdict.acceptedNodes[i]));
    llmCache_.keepRows(keep);

    if (done_)
        return;
    if (seq_.size() - promptLen_ >= maxNewTokens_) {
        stopReason_ = StopReason::MaxTokens;
        done_ = true;
        return;
    }
    // Stop before the next tree could overflow the sequence budget.
    const size_t next_peak = seq_.size() + engine_->treeBudget_ + 2;
    if (next_peak >= llm.config().maxSeqLen) {
        stopReason_ = StopReason::CapacityLimit;
        done_ = true;
    }
}

/** True when `generated` ends with one of the stop sequences. */
static bool
endsWithStopSequence(const std::vector<int> &generated,
                     const std::vector<std::vector<int>> &stops)
{
    for (const std::vector<int> &stop : stops) {
        if (stop.empty() || stop.size() > generated.size())
            continue;
        if (std::equal(stop.begin(), stop.end(),
                       generated.end() -
                           static_cast<ptrdiff_t>(stop.size())))
            return true;
    }
    return false;
}

GenerationResult
incrementalGenerate(const model::Transformer &llm,
                    const std::vector<int> &prompt,
                    const model::SamplingParams &params,
                    size_t max_new_tokens, util::Rng &rng,
                    bool stop_at_eos,
                    const std::vector<std::vector<int>> &stop_sequences)
{
    SPECINFER_CHECK(!prompt.empty(), "empty prompt");
    GenerationResult res;
    model::KvCache cache = llm.makeCache();
    tensor::Tensor logits = llm.forward(
        model::DecodeChunk::sequence(prompt), cache);
    const float *last = logits.row(prompt.size() - 1);
    model::SamplingParams unit;
    unit.temperature = 1.0f;
    for (size_t i = 0; i < max_new_tokens; ++i) {
        int token = model::sampleToken(last, llm.config().vocabSize,
                                       params, rng);
        res.tokens.push_back(token);
        std::vector<float> p = model::logitsToProbs(
            last, llm.config().vocabSize, unit);
        res.logProbs.push_back(std::log(std::max(
            p[static_cast<size_t>(token)], 1.0e-30f)));
        StepRecord record;
        record.verifiedTokens = 1;
        record.llmChunkTokens = 1;
        res.stats.steps.push_back(record);
        if (endsWithStopSequence(res.tokens, stop_sequences))
            break;
        if (stop_at_eos && token == llm.config().eosToken)
            break;
        if (prompt.size() + res.tokens.size() + 1 >=
            llm.config().maxSeqLen)
            break;
        logits = llm.forward(model::DecodeChunk::single(token), cache);
        last = logits.row(0);
    }
    return res;
}

} // namespace core
} // namespace specinfer
