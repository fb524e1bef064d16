#include "verify/diff_harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "core/spec_engine.h"
#include "model/model_factory.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "runtime/journal.h"
#include "runtime/request_manager.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"
#include "verify/stat_tests.h"

namespace specinfer {
namespace verify {

namespace {

/** Random prompt over [1, vocab) (avoids the EOS token id 0). */
std::vector<int>
drawPrompt(util::Rng &rng, size_t len, size_t vocab)
{
    std::vector<int> prompt;
    prompt.reserve(len);
    for (size_t i = 0; i < len; ++i)
        prompt.push_back(static_cast<int>(rng.uniformInt(
            int64_t{1}, static_cast<int64_t>(vocab) - 1)));
    return prompt;
}

/** Tiny-but-real architecture derived from the trial stream. */
model::ModelConfig
drawModelConfig(util::Rng &rng)
{
    model::ModelConfig cfg;
    cfg.name = "diff-tiny";
    cfg.vocabSize = 24 + rng.uniformInt(uint64_t{73});      // 24..96
    cfg.nHeads = 2 + 2 * rng.uniformInt(uint64_t{2});       // 2 or 4
    cfg.dModel = cfg.nHeads *
                 (4 + 4 * rng.uniformInt(uint64_t{2}));     // dHead 4/8
    cfg.dFf = 32 + 16 * rng.uniformInt(uint64_t{2});        // 32 or 48
    cfg.nLayers = 2 + rng.uniformInt(uint64_t{3});          // 2..4
    cfg.maxSeqLen = 192;
    cfg.seed = rng.next();
    // Tensor-parallel degree: a power of two dividing nHeads (1, 2,
    // or — with 4 heads — 4), so the oracle suite continually fuzzes
    // the sharded forward against the spec/incremental equivalences.
    const uint64_t tp_draw = rng.uniformInt(uint64_t{3}); // 0..2
    cfg.tensorParallel = size_t{1} << tp_draw;
    if (cfg.nHeads % cfg.tensorParallel != 0)
        cfg.tensorParallel = 2;
    return cfg;
}

std::string
joinTokens(const std::vector<int> &tokens)
{
    std::ostringstream oss;
    for (size_t i = 0; i < tokens.size(); ++i)
        oss << (i ? "," : "") << tokens[i];
    return oss.str();
}

/** Locate the node identified by a root-to-node token path. */
core::NodeId
findByPath(const core::TokenTree &tree, const std::vector<int> &path)
{
    core::NodeId u = core::TokenTree::kRoot;
    if (path.empty() || tree.node(u).token != path.front())
        return -1;
    for (size_t i = 1; i < path.size(); ++i) {
        core::NodeId next = -1;
        for (core::NodeId v : tree.node(u).children) {
            if (tree.node(v).token == path[i]) {
                next = v;
                break;
            }
        }
        if (next < 0)
            return -1;
        u = next;
    }
    return u;
}

/** Random speculated tree for one SSM id over a small vocabulary. */
core::TokenTree
drawSsmTree(util::Rng &rng, int root_token, size_t vocab, int ssm_id)
{
    core::TokenTree tree(root_token);
    std::vector<core::NodeId> frontier = {core::TokenTree::kRoot};
    const size_t depth = 1 + rng.uniformInt(uint64_t{3});
    for (size_t step = 0; step < depth; ++step) {
        std::vector<core::NodeId> next;
        for (core::NodeId u : frontier) {
            const size_t k = 1 + rng.uniformInt(uint64_t{3});
            for (size_t j = 0; j < k; ++j) {
                // Small vocab on purpose: repeated samples and
                // cross-tree collisions exercise the fold paths.
                int token = static_cast<int>(
                    rng.uniformInt(static_cast<uint64_t>(vocab)));
                next.push_back(tree.addChild(u, token, ssm_id));
            }
        }
        // Record a distribution at every frontier node so the
        // merge's distribution-union property can be checked.
        for (core::NodeId u : frontier) {
            std::vector<float> dist(vocab);
            float total = 0.0f;
            for (float &v : dist) {
                v = static_cast<float>(rng.uniform()) + 0.01f;
                total += v;
            }
            for (float &v : dist)
                v /= total;
            tree.setSsmDistribution(u, ssm_id, std::move(dist));
        }
        frontier = std::move(next);
    }
    return tree;
}

std::set<std::vector<int>>
pathSet(const core::TokenTree &tree)
{
    std::vector<std::vector<int>> paths = tree.allPaths();
    return std::set<std::vector<int>>(paths.begin(), paths.end());
}

/** Structural invariants every TokenTree must satisfy. */
bool
checkTreeStructure(const core::TokenTree &tree, std::string *why)
{
    for (size_t i = 0; i < tree.size(); ++i) {
        const core::TreeNode &n =
            tree.node(static_cast<core::NodeId>(i));
        if (i == 0) {
            if (n.parent != -1 || n.depth != 0) {
                *why = "root must have parent -1 and depth 0";
                return false;
            }
            continue;
        }
        if (n.parent < 0 || static_cast<size_t>(n.parent) >= i) {
            *why = "node order not topological at node " +
                   std::to_string(i);
            return false;
        }
        const core::TreeNode &p = tree.node(n.parent);
        if (n.depth != p.depth + 1) {
            *why = "depth mismatch at node " + std::to_string(i);
            return false;
        }
        if (n.proposals.empty()) {
            *why = "speculated node " + std::to_string(i) +
                   " has no proposals";
            return false;
        }
    }
    // Children must carry distinct tokens (Def. 3.1: one node per
    // sequence) and be reachable from their parent exactly once.
    for (size_t i = 0; i < tree.size(); ++i) {
        const core::TreeNode &n =
            tree.node(static_cast<core::NodeId>(i));
        std::set<int> tokens;
        for (core::NodeId c : n.children) {
            if (tree.node(c).parent != static_cast<core::NodeId>(i)) {
                *why = "child/parent link mismatch";
                return false;
            }
            if (!tokens.insert(tree.node(c).token).second) {
                *why = "duplicate child token under node " +
                       std::to_string(i);
                return false;
            }
        }
    }
    // Chunk conversion preserves parents and topological order.
    model::DecodeChunk chunk = tree.toChunk(-1);
    for (size_t i = 0; i < tree.size(); ++i) {
        const int32_t expect =
            i == 0 ? -1 : tree.node(static_cast<core::NodeId>(i)).parent;
        if (chunk.parents[i] != expect ||
            chunk.tokens[i] !=
                tree.node(static_cast<core::NodeId>(i)).token) {
            *why = "toChunk() parent/token mismatch at " +
                   std::to_string(i);
            return false;
        }
    }
    return true;
}

/** The KV pool's occupancy and its resident shared blocks with
 *  their refcounts (empty without a pool). */
std::map<uint64_t, size_t>
kvPoolState(const runtime::RequestManager &mgr)
{
    std::map<uint64_t, size_t> out;
    if (!mgr.kvPool())
        return out;
    for (const auto &[hash, block] : mgr.kvPool()->sharedTable())
        out[hash] = block.refs;
    out[0] = mgr.kvPool()->usedBlocks(); // hash 0 names no block
    return out;
}

} // namespace

TrialOutcome
runGreedyTrial(uint64_t seed, bool verbose)
{
    TrialOutcome out;
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);

    model::ModelConfig mc = drawModelConfig(rng);
    model::Transformer llm = model::makeLlm(mc);

    const size_t ssm_count = 1 + rng.uniformInt(uint64_t{2});
    std::vector<model::Transformer> ssms;
    std::ostringstream ssm_desc;
    for (size_t s = 0; s < ssm_count; ++s) {
        const size_t layers =
            1 + rng.uniformInt(static_cast<uint64_t>(mc.nLayers - 1));
        // ~1/4 of draws run the real-int8 SSM path, so the oracle
        // continuously fuzzes the integer GEMM kernels end to end
        // (greedy verification is lossless for ANY draft model, so
        // the equivalence contract is unchanged).
        if (rng.uniform() < 0.25) {
            ssms.push_back(model::makeInt8Ssm(llm, layers));
            ssm_desc << (s ? "+" : "") << layers << "Li8";
            continue;
        }
        const float noise = rng.uniform() < 0.5 ? 0.0f : 0.1f;
        ssms.push_back(model::makeEarlyExitSsm(llm, layers, noise,
                                               rng.next()));
        ssm_desc << (s ? "+" : "") << layers << "L";
    }

    core::ExpansionConfig expansion;
    const size_t depth = rng.uniformInt(uint64_t{5}); // 0..4
    for (size_t i = 0; i < depth; ++i)
        expansion.widths.push_back(
            1 + rng.uniformInt(i == 0 ? uint64_t{3} : uint64_t{2}));

    core::EngineConfig cfg = core::EngineConfig::greedyDefault();
    cfg.spec.expansion = expansion;
    cfg.maxNewTokens = 6 + rng.uniformInt(uint64_t{15});
    cfg.stopAtEos = rng.uniform() < 0.5;
    cfg.seed = rng.next();
    if (rng.uniform() < 0.35)
        cfg.maxPrefillChunk = 4 + rng.uniformInt(uint64_t{8});
    const bool want_stop = rng.uniform() < 0.4;

    const size_t prompt_len = 3 + rng.uniformInt(uint64_t{30});
    std::vector<int> prompt = drawPrompt(rng, prompt_len,
                                         mc.vocabSize);

    model::SamplingParams greedy;
    greedy.temperature = 0.0f;

    // Derive a stop sequence that actually fires: a window of the
    // unconstrained reference output.
    if (want_stop) {
        util::Rng pre_rng(1);
        core::GenerationResult pre = core::incrementalGenerate(
            llm, prompt, greedy, cfg.maxNewTokens, pre_rng,
            cfg.stopAtEos);
        if (pre.tokens.size() >= 4) {
            const size_t len = 1 + rng.uniformInt(uint64_t{2});
            const size_t start = rng.uniformInt(
                static_cast<uint64_t>(pre.tokens.size() - len));
            cfg.stopSequences.push_back(std::vector<int>(
                pre.tokens.begin() + static_cast<ptrdiff_t>(start),
                pre.tokens.begin() +
                    static_cast<ptrdiff_t>(start + len)));
        }
    }

    {
        std::ostringstream oss;
        oss << "seed=" << seed << " vocab=" << mc.vocabSize
            << " layers=" << mc.nLayers << " dModel=" << mc.dModel
            << " ssms=" << ssm_desc.str()
            << " expansion=" << expansion.toString()
            << " maxNew=" << cfg.maxNewTokens
            << " prefillChunk=" << cfg.maxPrefillChunk
            << " eos=" << (cfg.stopAtEos ? 1 : 0) << " stops="
            << (cfg.stopSequences.empty()
                    ? std::string("-")
                    : joinTokens(cfg.stopSequences.front()));
        out.configLine = oss.str();
    }

    // Oracle: independent incremental greedy decoding.
    util::Rng ref_rng(2);
    core::GenerationResult ref = core::incrementalGenerate(
        llm, prompt, greedy, cfg.maxNewTokens, ref_rng, cfg.stopAtEos,
        cfg.stopSequences);

    std::vector<const model::Transformer *> pool;
    if (depth > 0)
        for (const model::Transformer &ssm : ssms)
            pool.push_back(&ssm);
    core::SpecEngine engine(&llm, pool, cfg);
    core::GenerationResult got = engine.generate(prompt, seed);

    if (verbose) {
        out.configLine += "\n  prompt: " + joinTokens(prompt) +
                          "\n  oracle: " + joinTokens(ref.tokens) +
                          "\n  engine: " + joinTokens(got.tokens);
    }

    if (got.tokens != ref.tokens) {
        size_t diverge = 0;
        while (diverge < got.tokens.size() &&
               diverge < ref.tokens.size() &&
               got.tokens[diverge] == ref.tokens[diverge])
            ++diverge;
        std::ostringstream oss;
        oss << "token mismatch at position " << diverge << ": engine "
            << got.tokens.size() << " tokens ["
            << joinTokens(got.tokens) << "] vs oracle "
            << ref.tokens.size() << " tokens ["
            << joinTokens(ref.tokens) << "]";
        out.ok = false;
        out.detail = oss.str();
        return out;
    }
    if (got.logProbs.size() != ref.logProbs.size()) {
        out.ok = false;
        out.detail = "log-prob count mismatch";
        return out;
    }
    for (size_t i = 0; i < got.logProbs.size(); ++i) {
        if (std::abs(got.logProbs[i] - ref.logProbs[i]) > 1.0e-4f) {
            out.ok = false;
            out.detail = "log-prob mismatch at token " +
                         std::to_string(i);
            return out;
        }
    }
    if (got.stats.totalGenerated() != got.tokens.size()) {
        out.ok = false;
        out.detail = "stats.totalGenerated disagrees with output";
        return out;
    }
    for (const core::StepRecord &s : got.stats.steps) {
        if (s.prefill != (s.verifiedTokens == 0)) {
            out.ok = false;
            out.detail = "prefill flag inconsistent with emission";
            return out;
        }
    }
    return out;
}

TrialOutcome
runTreeFuzzTrial(uint64_t seed)
{
    TrialOutcome out;
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7654321ULL);
    const size_t vocab = 4 + rng.uniformInt(uint64_t{6}); // 4..9
    const int root = static_cast<int>(
        rng.uniformInt(static_cast<uint64_t>(vocab)));
    const size_t ssm_count = 1 + rng.uniformInt(uint64_t{3});
    out.configLine = "seed=" + std::to_string(seed) + " vocab=" +
                     std::to_string(vocab) + " ssms=" +
                     std::to_string(ssm_count);

    std::vector<core::TokenTree> sources;
    for (size_t s = 0; s < ssm_count; ++s)
        sources.push_back(drawSsmTree(rng, root, vocab,
                                      static_cast<int>(s)));

    core::TokenTree merged = sources[0];
    for (size_t s = 1; s < ssm_count; ++s)
        merged.merge(sources[s]);

    std::string why;
    for (const core::TokenTree &t : sources) {
        if (!checkTreeStructure(t, &why)) {
            out.ok = false;
            out.detail = "source tree: " + why;
            return out;
        }
    }
    if (!checkTreeStructure(merged, &why)) {
        out.ok = false;
        out.detail = "merged tree: " + why;
        return out;
    }

    // Def. 3.2: the merged path set is the union of the sources'.
    std::set<std::vector<int>> expect;
    for (const core::TokenTree &t : sources) {
        std::set<std::vector<int>> p = pathSet(t);
        expect.insert(p.begin(), p.end());
    }
    if (pathSet(merged) != expect) {
        out.ok = false;
        out.detail = "merged path set is not the union of sources";
        return out;
    }

    // Proposal-multiset union and distribution union: every source
    // node must be found in the merged tree carrying exactly that
    // source's proposal multiplicity (sources have disjoint ssm
    // ids, so per-SSM max-union preserves each count verbatim) and
    // its recorded distributions.
    for (size_t s = 0; s < ssm_count; ++s) {
        const core::TokenTree &t = sources[s];
        for (size_t i = 1; i < t.size(); ++i) {
            const core::NodeId id = static_cast<core::NodeId>(i);
            core::NodeId here = findByPath(merged, t.pathTokens(id));
            if (here < 0) {
                out.ok = false;
                out.detail = "source path missing after merge";
                return out;
            }
            size_t want = 0;
            for (int p : t.node(id).proposals)
                if (p == static_cast<int>(s))
                    ++want;
            size_t copies = 0;
            for (int p : merged.node(here).proposals)
                if (p == static_cast<int>(s))
                    ++copies;
            if (copies != want) {
                out.ok = false;
                out.detail = "ssm " + std::to_string(s) +
                             " multiplicity " + std::to_string(want) +
                             " became " + std::to_string(copies) +
                             " after merge";
                return out;
            }
        }
        for (size_t i = 0; i < t.size(); ++i) {
            const core::NodeId id = static_cast<core::NodeId>(i);
            const std::vector<float> *dist =
                t.ssmDistribution(id, static_cast<int>(s));
            if (dist == nullptr)
                continue;
            core::NodeId here = findByPath(merged, t.pathTokens(id));
            const std::vector<float> *got =
                here < 0 ? nullptr
                         : merged.ssmDistribution(here,
                                                  static_cast<int>(s));
            if (got == nullptr || *got != *dist) {
                out.ok = false;
                out.detail = "SSM distribution lost in merge";
                return out;
            }
        }
    }

    // Merge idempotence: self-merge changes nothing (node count,
    // paths, and proposal sets — the per-SSM dedup guarantee).
    core::TokenTree again = merged;
    again.merge(merged);
    if (again.size() != merged.size() ||
        pathSet(again) != pathSet(merged)) {
        out.ok = false;
        out.detail = "self-merge is not idempotent (structure)";
        return out;
    }
    for (size_t i = 0; i < merged.size(); ++i) {
        const core::NodeId id = static_cast<core::NodeId>(i);
        if (again.node(id).proposals != merged.node(id).proposals) {
            out.ok = false;
            out.detail = "self-merge duplicated proposals at node " +
                         std::to_string(i);
            return out;
        }
    }
    return out;
}

TrialOutcome
runKvRoundTripTrial(uint64_t seed)
{
    TrialOutcome out;
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xabcdefULL);

    model::ModelConfig mc = drawModelConfig(rng);
    model::Transformer llm = model::makeLlm(mc);
    const size_t vocab = mc.vocabSize;

    std::vector<int> seq =
        drawPrompt(rng, 3 + rng.uniformInt(uint64_t{10}), vocab);
    core::TokenTree tree =
        drawSsmTree(rng, seq.back(), vocab, /*ssm_id=*/0);

    out.configLine = "seed=" + std::to_string(seed) + " vocab=" +
                     std::to_string(vocab) + " seq=" +
                     std::to_string(seq.size()) + " tree=" +
                     std::to_string(tree.speculatedCount());

    model::KvCache cache = llm.makeCache();
    llm.forward(model::DecodeChunk::sequence(seq), cache);
    const size_t base = cache.length();

    // Decode the speculated nodes as one tree chunk; the root is the
    // already-cached last verified token, so node i maps to chunk
    // entry i - 1 and root children extend the cached prefix.
    model::DecodeChunk chunk;
    for (size_t n = 1; n < tree.size(); ++n) {
        const core::TreeNode &node =
            tree.node(static_cast<core::NodeId>(n));
        chunk.tokens.push_back(node.token);
        chunk.parents.push_back(node.parent - 1);
    }
    llm.forward(chunk, cache);

    // Accept a random root-to-node path (possibly empty).
    const core::NodeId accepted = static_cast<core::NodeId>(
        rng.uniformInt(static_cast<uint64_t>(tree.size())));
    std::vector<core::NodeId> path;
    for (core::NodeId n = accepted; n > 0; n = tree.node(n).parent)
        path.push_back(n);
    std::reverse(path.begin(), path.end());

    std::vector<size_t> keep;
    for (size_t s = 0; s < base; ++s)
        keep.push_back(s);
    for (core::NodeId n : path)
        keep.push_back(base + static_cast<size_t>(n) - 1);
    cache.keepRows(keep);

    std::vector<int> accepted_seq = seq;
    for (core::NodeId n : path)
        accepted_seq.push_back(tree.node(n).token);
    model::KvCache fresh = llm.makeCache();
    llm.forward(model::DecodeChunk::sequence(accepted_seq), fresh);

    if (cache.length() != fresh.length()) {
        out.ok = false;
        out.detail = "compacted length != fresh prefill length";
        return out;
    }
    const size_t row_bytes = cache.kvDim() * sizeof(float);
    for (size_t layer = 0; layer < cache.layers(); ++layer) {
        for (size_t slot = 0; slot < cache.length(); ++slot) {
            if (std::memcmp(cache.keyRow(layer, slot),
                            fresh.keyRow(layer, slot),
                            row_bytes) != 0 ||
                std::memcmp(cache.valueRow(layer, slot),
                            fresh.valueRow(layer, slot),
                            row_bytes) != 0) {
                out.ok = false;
                out.detail = "KV rows differ at layer " +
                             std::to_string(layer) + " slot " +
                             std::to_string(slot);
                return out;
            }
        }
    }

    // Future decoding must agree bitwise as well.
    const int probe = static_cast<int>(
        rng.uniformInt(int64_t{1}, static_cast<int64_t>(vocab) - 1));
    tensor::Tensor a =
        llm.forward(model::DecodeChunk::single(probe), cache);
    tensor::Tensor b =
        llm.forward(model::DecodeChunk::single(probe), fresh);
    for (size_t i = 0; i < a.size(); ++i) {
        if (a.data()[i] != b.data()[i]) {
            out.ok = false;
            out.detail = "post-compaction logits diverge";
            return out;
        }
    }
    return out;
}

TrialOutcome
runRecoveryTrial(uint64_t seed, bool verbose)
{
    TrialOutcome out;
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc4a54ULL);

    // Tiny-but-real serving stack: model pair, engine, scheduler.
    model::ModelConfig mc;
    mc.name = "recovery-tiny";
    mc.vocabSize = 24 + rng.uniformInt(uint64_t{41}); // 24..64
    mc.nHeads = 2;
    mc.dModel = 8;
    mc.dFf = 32;
    mc.nLayers = 2 + rng.uniformInt(uint64_t{2}); // 2..3
    mc.maxSeqLen = 96;
    mc.seed = rng.next();
    model::Transformer llm = model::makeLlm(mc);

    const size_t ssm_count = 1 + rng.uniformInt(uint64_t{2});
    std::vector<model::Transformer> ssms;
    for (size_t s = 0; s < ssm_count; ++s)
        ssms.push_back(model::makeEarlyExitSsm(llm, 1, 0.0f,
                                               rng.next()));

    // Half the trials use stochastic (MSS) decoding so the journaled
    // RNG cursor carries real weight: replay must land every
    // residual-sampling draw bit-exactly.
    const bool stochastic = rng.uniform() < 0.5;
    core::EngineConfig ecfg =
        stochastic ? core::EngineConfig::stochasticDefault(
                         0.7f + 0.3f * static_cast<float>(
                                           rng.uniform()))
                   : core::EngineConfig::greedyDefault();
    ecfg.spec.expansion = core::ExpansionConfig::uniform(
        2, 1 + rng.uniformInt(uint64_t{2})); // <2> or <2,2>
    ecfg.maxNewTokens = 6 + rng.uniformInt(uint64_t{7}); // 6..12
    ecfg.stopAtEos = true;
    ecfg.seed = rng.next();
    if (rng.uniform() < 0.3)
        ecfg.maxPrefillChunk = 3 + rng.uniformInt(uint64_t{5});

    std::vector<const model::Transformer *> pool;
    for (const model::Transformer &ssm : ssms)
        pool.push_back(&ssm);
    core::SpecEngine engine(&llm, pool, ecfg);

    // Deterministic wall clock for the QoS trials: frozen between
    // explicit set() calls, keyed to the driver iteration below, so
    // baseline, counting run, and crash run read identical
    // timestamps at the same iteration regardless of how many
    // requests are in flight (nowNanos_ is sampled once per
    // iteration). kTick is large enough that per-iteration deadlines
    // are expressible; kEpoch keeps 0 meaning "no deadline".
    constexpr uint64_t kTick = 1000;
    constexpr uint64_t kEpoch = 1000000;
    // ManualClock refuses to move backwards, and the trial drives
    // three full runs (baseline, consultation count, crash) through
    // the same schedule — so each run gets a fresh clock instance,
    // rebound into the serving config just before its manager is
    // built.
    std::unique_ptr<obs::ManualClock> clock;
    std::unique_ptr<obs::ObsContext> obs_ctx;

    // Arrival script: prompts with staggered driver-side arrivals,
    // QoS classes, and (sometimes) absolute wall-clock deadlines.
    struct Arrival
    {
        std::vector<int> prompt;
        size_t maxNew;
        size_t driverIter;
        runtime::Priority priority = runtime::Priority::Standard;
        uint64_t deadlineNanos = 0;
    };
    std::vector<Arrival> script;
    const size_t n_req = 2 + rng.uniformInt(uint64_t{3}); // 2..4
    size_t worst_tokens = 0;
    size_t wall_deadlines = 0;
    for (size_t i = 0; i < n_req; ++i) {
        Arrival a;
        a.prompt = drawPrompt(rng, 3 + rng.uniformInt(uint64_t{13}),
                              mc.vocabSize);
        if (i > 0 && rng.uniform() < 0.5) {
            // Multi-tenant shape: this prompt rides an earlier
            // prompt's prefix, so prefix-sharing trials exercise
            // interning, COW, and deterministic eviction under
            // crashes torn anywhere in the admission sequence.
            const std::vector<int> &prev =
                script[rng.uniformInt(static_cast<uint64_t>(i))]
                    .prompt;
            const size_t keep =
                1 + rng.uniformInt(
                        static_cast<uint64_t>(prev.size()));
            std::vector<int> mixed(prev.begin(),
                                   prev.begin() +
                                       static_cast<long>(keep));
            const std::vector<int> tail = drawPrompt(
                rng, 2 + rng.uniformInt(uint64_t{7}),
                mc.vocabSize);
            mixed.insert(mixed.end(), tail.begin(), tail.end());
            a.prompt = std::move(mixed);
        }
        a.maxNew = rng.uniform() < 0.5
                       ? 0
                       : 4 + rng.uniformInt(uint64_t{7});
        a.driverIter = rng.uniformInt(uint64_t{7});
        a.priority = static_cast<runtime::Priority>(
            rng.uniformInt(uint64_t{runtime::kPriorityCount}));
        if (rng.uniform() < 0.4) {
            // Absolute deadline on the manual clock. Mostly
            // generous (the request finishes), sometimes tight
            // (it expires mid-decode or while queued) — both
            // outcomes are journaled finish events and must
            // replay identically through any crash.
            const uint64_t horizon =
                rng.uniform() < 0.5
                    ? 3 + rng.uniformInt(uint64_t{10}) // tight
                    : 200;                             // generous
            a.deadlineNanos =
                kEpoch + (a.driverIter + horizon) * kTick;
            ++wall_deadlines;
        }
        const size_t budget =
            a.maxNew > 0 ? a.maxNew : ecfg.maxNewTokens;
        worst_tokens =
            std::max(worst_tokens, a.prompt.size() + budget +
                                       engine.treeBudget() + 2);
        script.push_back(std::move(a));
    }
    std::sort(script.begin(), script.end(),
              [](const Arrival &a, const Arrival &b) {
                  return a.driverIter < b.driverIter;
              });

    runtime::ServingConfig scfg;
    scfg.maxBatchSize = 2 + rng.uniformInt(uint64_t{3}); // 2..4
    scfg.kvBlockTokens = 8;
    auto resetClock = [&]() {
        obs_ctx.reset();
        clock = std::make_unique<obs::ManualClock>(kEpoch,
                                                   /*auto_step=*/0);
        obs_ctx = std::make_unique<obs::ObsContext>(
            clock.get(), /*tracing_enabled=*/false);
        scfg.obs = obs_ctx.get();
    };
    bool buckets = false;
    if (rng.uniform() < 0.5) {
        // Per-class token buckets, sized so every scripted request
        // is admitted (a rejected submit would fork the workload):
        // the interesting part is that accepted submits consume
        // bucket tokens through the journal-replay path, so crash
        // recovery must re-consume identically.
        buckets = true;
        for (size_t c = 0; c < runtime::kPriorityCount; ++c) {
            scfg.classBucketCapacity[c] =
                n_req + rng.uniformInt(uint64_t{4});
            scfg.classRefillEveryIterations[c] =
                1 + rng.uniformInt(uint64_t{3});
        }
    }
    if (rng.uniform() < 0.8) {
        // Pool between 1x and 3x one worst-case request: tight
        // enough that on-demand paging preempts under load, while
        // FCFS guarantees forward progress. No deadlines, no retry
        // or queue bounds: aborts depend on the iteration clock,
        // which recovery may legitimately shift by one tick.
        const size_t per_req =
            (worst_tokens + scfg.kvBlockTokens - 1) /
            scfg.kvBlockTokens;
        scfg.kvPoolBlocks =
            per_req * (1 + rng.uniformInt(uint64_t{3}));
        scfg.kvPolicy =
            rng.uniform() < 0.6
                ? runtime::KvReservationPolicy::OnDemand
                : runtime::KvReservationPolicy::WorstCase;
        scfg.kvPrefixSharing = rng.uniform() < 0.6;
    }

    const size_t snap_every = 1 + rng.uniformInt(uint64_t{8});
    const size_t crash_budget = rng.uniform() < 0.3 ? 2 : 1;
    const bool kv_faults = rng.uniform() < 0.4;
    const double kv_fault_prob = 0.02 + 0.05 * rng.uniform();

    {
        std::ostringstream oss;
        oss << "seed=" << seed << " vocab=" << mc.vocabSize
            << " layers=" << mc.nLayers
            << (stochastic ? " mss" : " greedy")
            << " reqs=" << n_req << " batch=" << scfg.maxBatchSize
            << " pool=" << scfg.kvPoolBlocks
            << (scfg.kvPolicy ==
                        runtime::KvReservationPolicy::OnDemand
                    ? "/ondemand"
                    : "/worstcase")
            << " snapEvery=" << snap_every
            << " crashes<=" << crash_budget
            << " kvFaults=" << (kv_faults ? 1 : 0)
            << " sharing=" << (scfg.kvPrefixSharing ? 1 : 0)
            << " buckets=" << (buckets ? 1 : 0)
            << " wallDeadlines=" << wall_deadlines;
        out.configLine = oss.str();
    }

    // --- Reference: the same workload, never interrupted. ---------
    // The baseline runs inside the *same* fault environment as the
    // crash run (same injector seed, KvAlloc armed, Crash not):
    // KvAlloc decisions are keyed by (request, iteration), so both
    // runs see identical allocation pressure and any divergence is
    // attributable to recovery alone — even when wall-clock
    // deadlines make fault-induced delays observable in the output.
    std::vector<runtime::RequestResult> baseline;
    // The KV pool after every iteration: the state each committed
    // iteration of the crash run's journal must replay to.
    std::vector<std::map<uint64_t, size_t>> baseline_pools;
    {
        util::FaultInjector base_injector(seed ^ 0xc7a5d1ULL);
        util::FaultScope base_scope(&base_injector);
        if (kv_faults)
            base_injector.setProbability(util::FaultPoint::KvAlloc,
                                         kv_fault_prob);
        resetClock();
        runtime::RequestManager mgr(&engine, scfg);
        size_t it = 0, next = 0, guard = 0;
        while (next < script.size() || mgr.busy()) {
            clock->set(kEpoch + it * kTick);
            while (next < script.size() &&
                   script[next].driverIter <= it) {
                runtime::SubmitResult sr = mgr.submit(
                    script[next].prompt, script[next].maxNew, 0,
                    script[next].priority,
                    script[next].deadlineNanos);
                SPECINFER_CHECK(sr.accepted(),
                                "recovery trial baseline reject");
                ++next;
            }
            mgr.runIteration();
            baseline_pools.push_back(kvPoolState(mgr));
            ++it;
            if (++guard > 20000) {
                out.ok = false;
                out.detail = "baseline failed to drain";
                return out;
            }
        }
        // At drain, zero-ref shared blocks legitimately stay
        // resident (they are the prefix cache); anything beyond
        // that is a leak.
        if (mgr.kvPool() &&
            (mgr.kvPool()->usedBlocks() !=
                 mgr.kvPool()->residentSharedBlocks() ||
             mgr.kvPool()->stats().redundantReleases != 0)) {
            out.ok = false;
            out.detail = "baseline leaked KV blocks";
            return out;
        }
        baseline = mgr.takeFinished();
    }

    // --- Count crash-point consultations for this workload. -------
    // The crash must land uniformly *inside* the run; arming at a
    // fixed-range occurrence would overshoot short workloads and
    // never crash them. A dry run with the identical injector seed
    // (crash unarmed — armed points and zero-probability points
    // consume no randomness, so the KvAlloc schedule replays
    // bit-exactly in the real run) counts the consultations.
    uint64_t crash_consultations = 0;
    {
        util::FaultInjector counter(seed ^ 0xc7a5d1ULL);
        util::FaultScope count_scope(&counter);
        if (kv_faults)
            counter.setProbability(util::FaultPoint::KvAlloc,
                                   kv_fault_prob);
        std::stringstream count_buf;
        runtime::JournalWriter count_writer(count_buf);
        resetClock();
        runtime::RequestManager count_mgr(&engine, scfg);
        count_mgr.attachJournal(&count_writer);
        size_t cit = 0, cnext = 0, cguard = 0;
        while (cnext < script.size() || count_mgr.busy()) {
            clock->set(kEpoch + cit * kTick);
            while (cnext < script.size() &&
                   script[cnext].driverIter <= cit) {
                count_mgr.submit(script[cnext].prompt,
                                 script[cnext].maxNew, 0,
                                 script[cnext].priority,
                                 script[cnext].deadlineNanos);
                ++cnext;
            }
            count_mgr.runIteration();
            ++cit;
            if (++cguard > 20000) {
                out.ok = false;
                out.detail = "counting run failed to drain";
                return out;
            }
        }
        crash_consultations =
            counter.occurrences(util::FaultPoint::Crash);
    }
    const uint64_t first_crash =
        1 + rng.uniformInt(
                std::max<uint64_t>(crash_consultations, 1));
    out.configLine +=
        " crashAt=" + std::to_string(first_crash) + "/" +
        std::to_string(crash_consultations);

    // --- Crash run: journal + snapshots + injected crashes. -------
    util::FaultInjector injector(seed ^ 0xc7a5d1ULL);
    util::FaultScope scope(&injector);
    if (kv_faults)
        injector.setProbability(util::FaultPoint::KvAlloc,
                                kv_fault_prob);
    injector.armAt(util::FaultPoint::Crash, first_crash);

    auto journal_buf = std::make_unique<std::stringstream>();
    auto writer = std::make_unique<runtime::JournalWriter>(
        *journal_buf);
    resetClock();
    auto mgr = std::make_unique<runtime::RequestManager>(&engine,
                                                         scfg);
    mgr->attachJournal(writer.get());
    std::string snap_bytes; // empty until the first snapshot
    size_t crashes = 0;

    size_t it = 0, next = 0, guard = 0;
    while (next < script.size() || mgr->busy()) {
        // Same clock schedule as the baseline: a crash retries the
        // driver iteration without advancing `it`, so the recovered
        // manager re-runs the lost iteration at the very timestamp
        // the crashed one read.
        clock->set(kEpoch + it * kTick);
        while (next < script.size() &&
               script[next].driverIter <= it) {
            runtime::SubmitResult sr = mgr->submit(
                script[next].prompt, script[next].maxNew, 0,
                script[next].priority,
                script[next].deadlineNanos);
            SPECINFER_CHECK(sr.accepted(),
                            "recovery trial crash-run reject");
            ++next;
        }
        // Recovery rebuilds the state at the last commit: the one
        // this iteration started from.
        const std::map<uint64_t, size_t> pool_before = kvPoolState(*mgr);
        mgr->runIteration();
        if (mgr->crashed()) {
            ++crashes;
            // Process death: everything in memory is gone. Rebuild
            // purely from the persisted snapshot + journal bytes,
            // then cut the torn tail and append after it, as a
            // recovering daemon does with its file.
            auto recovered =
                std::make_unique<runtime::RequestManager>(&engine,
                                                          scfg);
            std::stringstream snap_in(snap_bytes);
            std::string journal_bytes = journal_buf->str();
            std::stringstream journal_in(journal_bytes);
            const uint64_t valid = recovered->recover(
                snap_bytes.empty() ? nullptr : &snap_in,
                &journal_in);
            journal_bytes.resize(static_cast<size_t>(valid));
            auto new_buf = std::make_unique<std::stringstream>();
            new_buf->write(journal_bytes.data(),
                           static_cast<std::streamsize>(valid));
            auto new_writer = std::make_unique<runtime::JournalWriter>(
                *new_buf, valid);
            recovered->attachJournal(new_writer.get());
            // Recovery drops the iteration the crash landed in, so
            // the recovered pool is the crashed process's pool before
            // that iteration. Eviction picks its victim from the
            // resident set: replay that grew and released out of the
            // live order would leave a different prefix cache even
            // where every output still matches.
            if (kvPoolState(*recovered) != pool_before) {
                out.ok = false;
                out.detail = "recovered KV pool differs from the "
                             "crashed one's before its last iteration "
                             "(crash " +
                             std::to_string(crashes) + ")";
                return out;
            }
            mgr = std::move(recovered);
            journal_buf = std::move(new_buf);
            writer = std::move(new_writer);
            // Snapshot now, at the absolute offset, so a second
            // crash recovers from this point.
            std::stringstream snap_out;
            mgr->writeSnapshot(snap_out);
            snap_bytes = snap_out.str();
            if (crashes < crash_budget)
                injector.armAt(
                    util::FaultPoint::Crash,
                    injector.occurrences(util::FaultPoint::Crash) +
                        1 + rng.uniformInt(uint64_t{60}));
            // Retry the same driver iteration (arrivals already
            // submitted this tick were journaled and recovered).
            continue;
        }
        ++it;
        if (it % snap_every == 0) {
            std::stringstream snap_out;
            mgr->writeSnapshot(snap_out);
            snap_bytes = snap_out.str();
        }
        if (++guard > 20000) {
            out.ok = false;
            out.detail = "crash run failed to drain (crashes=" +
                         std::to_string(crashes) + ")";
            return out;
        }
    }
    out.configLine += " firedCrashes=" + std::to_string(crashes);

    if (mgr->kvPool() &&
        (mgr->kvPool()->usedBlocks() !=
             mgr->kvPool()->residentSharedBlocks() ||
         mgr->kvPool()->stats().redundantReleases != 0)) {
        out.ok = false;
        out.detail = "crash run leaked KV blocks (used=" +
                     std::to_string(mgr->kvPool()->usedBlocks()) +
                     " redundant=" +
                     std::to_string(mgr->kvPool()
                                        ->stats()
                                        .redundantReleases) +
                     ")";
        return out;
    }
    std::vector<runtime::RequestResult> recovered_results =
        mgr->takeFinished();

    // The whole multi-generation journal, replayed from byte 0 with
    // no snapshot, is one uninterrupted history: it must rebuild the
    // same results as well.
    std::vector<runtime::RequestResult> replayed_results;
    {
        runtime::RequestManager replayed(&engine, scfg);
        const std::string journal_bytes = journal_buf->str();
        std::stringstream journal_in(journal_bytes);
        // Every committed iteration replays to the pool the
        // uninterrupted run had after it: replay that grew and
        // released out of the live order evicts other blocks.
        size_t commits = 0;
        std::string pool_error;
        const uint64_t valid = replayed.recover(
            nullptr, &journal_in, [&]() {
                if (pool_error.empty() &&
                    (commits >= baseline_pools.size() ||
                     kvPoolState(replayed) != baseline_pools[commits]))
                    pool_error = "journal replayed from byte 0 rebuilt "
                                 "a different KV pool at iteration " +
                                 std::to_string(commits);
                ++commits;
            });
        if (valid != journal_bytes.size()) {
            out.ok = false;
            out.detail = "journal replayed from byte 0 stopped at " +
                         std::to_string(valid) + " of " +
                         std::to_string(journal_bytes.size()) +
                         " bytes";
            return out;
        }
        if (pool_error.empty() && commits != baseline_pools.size())
            pool_error = "journal replayed from byte 0 holds " +
                         std::to_string(commits) + " of " +
                         std::to_string(baseline_pools.size()) +
                         " iterations";
        if (!pool_error.empty()) {
            out.ok = false;
            out.detail = pool_error;
            return out;
        }
        replayed_results = replayed.takeFinished();
    }

    // --- Equivalence: token-for-token identical outputs. ----------
    std::map<uint64_t, const runtime::RequestResult *> by_id;
    for (const runtime::RequestResult &res : baseline)
        by_id[res.id] = &res;
    auto diverged = [&](const std::vector<runtime::RequestResult>
                            &results,
                        const char *how) -> bool {
        if (baseline.size() != script.size() ||
            results.size() != script.size()) {
            out.detail = std::string("request conservation violated ") +
                         how + ": baseline " +
                         std::to_string(baseline.size()) + ", got " +
                         std::to_string(results.size()) +
                         ", submitted " + std::to_string(script.size());
            return true;
        }
        for (const runtime::RequestResult &res : results) {
            auto ref = by_id.find(res.id);
            if (ref == by_id.end()) {
                out.detail = "request " + std::to_string(res.id) +
                             " exists only " + how;
                return true;
            }
            if (res.tokens != ref->second->tokens) {
                std::ostringstream oss;
                oss << "request " << res.id << " output diverged "
                    << how << ": baseline ["
                    << joinTokens(ref->second->tokens) << "] vs ["
                    << joinTokens(res.tokens) << "]";
                out.detail = oss.str();
                return true;
            }
            if (res.stopReason != ref->second->stopReason) {
                out.detail = "request " + std::to_string(res.id) +
                             " stop reason diverged " + how;
                return true;
            }
            // Cost records too: recovery rebuilds every cache to the
            // live run's level, so no step re-decodes or adopts more
            // or less than the uninterrupted run did.
            const std::vector<core::StepRecord> &got = res.stats.steps;
            const std::vector<core::StepRecord> &want =
                ref->second->stats.steps;
            if (got != want) {
                const auto i = std::mismatch(got.begin(), got.end(),
                                             want.begin(), want.end())
                                   .first -
                               got.begin();
                out.detail = "request " + std::to_string(res.id) +
                             " step record " + std::to_string(i) +
                             " diverged " + how + " (" +
                             std::to_string(want.size()) +
                             " steps at baseline, " +
                             std::to_string(got.size()) + ")";
                return true;
            }
        }
        return false;
    };
    if (diverged(recovered_results, "after recovery") ||
        diverged(replayed_results, "in the journal replayed from 0")) {
        out.ok = false;
        return out;
    }
    if (verbose)
        for (const runtime::RequestResult &res : recovered_results)
            out.configLine += "\n  id=" + std::to_string(res.id) +
                              ": " + joinTokens(res.tokens);
    return out;
}

MssCheckResult
runMssDistributionCheck(const MssCheckConfig &cfg)
{
    MssCheckResult res;
    util::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x5151ULL);

    model::ModelConfig mc;
    mc.name = "mss-tiny";
    mc.vocabSize = 32;
    mc.dModel = 16;
    mc.nHeads = 2;
    mc.dFf = 32;
    mc.nLayers = 3;
    mc.maxSeqLen = 96;
    mc.seed = rng.next();
    model::Transformer llm = model::makeLlm(mc);

    std::vector<model::Transformer> ssms;
    for (size_t s = 0; s < cfg.ssmCount; ++s)
        ssms.push_back(model::makeEarlyExitSsm(
            llm, 1 + s % 2, /*head_noise_std=*/0.1f, rng.next()));

    core::EngineConfig engine_cfg =
        core::EngineConfig::stochasticDefault(cfg.temperature);
    engine_cfg.spec.expansion = core::ExpansionConfig::uniform(2, 2);
    engine_cfg.maxNewTokens = 1;
    engine_cfg.stopAtEos = false;
    engine_cfg.seed = rng.next();

    std::vector<int> prompt = drawPrompt(rng, 6, mc.vocabSize);

    // Exact decoding distribution at the prefix.
    std::vector<double> exact;
    {
        model::KvCache probe = llm.makeCache();
        tensor::Tensor logits = llm.forward(
            model::DecodeChunk::sequence(prompt), probe);
        std::vector<float> p = model::logitsToProbs(
            logits.row(prompt.size() - 1), mc.vocabSize,
            engine_cfg.llmSampling);
        exact.assign(p.begin(), p.end());
    }

    std::vector<const model::Transformer *> pool;
    for (const model::Transformer &ssm : ssms)
        pool.push_back(&ssm);
    core::SpecEngine engine(&llm, pool, engine_cfg);

    std::vector<size_t> spec_counts(mc.vocabSize, 0);
    std::vector<size_t> incr_counts(mc.vocabSize, 0);
    for (size_t s = 0; s < cfg.samples; ++s) {
        core::GenerationResult got =
            engine.generate(prompt, s + 1, 1);
        SPECINFER_CHECK(got.tokens.size() == 1,
                        "expected exactly one generated token");
        ++spec_counts[static_cast<size_t>(got.tokens[0])];

        util::Rng incr_rng(cfg.seed ^ (0x51ecULL + s * 2654435761ULL));
        core::GenerationResult ref = core::incrementalGenerate(
            llm, prompt, engine_cfg.llmSampling, 1, incr_rng, false);
        ++incr_counts[static_cast<size_t>(ref.tokens[0])];
    }

    ChiSquare fit = chiSquareGoodnessOfFit(spec_counts, exact);
    res.chiSquare = fit.stat;
    res.df = fit.df;
    res.critical = chiSquareCritical(fit.df, cfg.alpha);

    ChiSquare homog = chiSquareTwoSample(spec_counts, incr_counts);
    res.chiSquareTwoSample = homog.stat;
    res.dfTwoSample = homog.df;
    res.criticalTwoSample = chiSquareCritical(homog.df, cfg.alpha);

    std::vector<double> emp(mc.vocabSize, 0.0);
    for (size_t i = 0; i < spec_counts.size(); ++i)
        emp[i] = static_cast<double>(spec_counts[i]) /
                 static_cast<double>(cfg.samples);
    res.tvd = totalVariation(emp, exact);

    res.ok = res.chiSquare <= res.critical &&
             res.chiSquareTwoSample <= res.criticalTwoSample;
    if (!res.ok) {
        std::ostringstream oss;
        oss << "MSS distribution skew: chi2(spec vs exact)="
            << res.chiSquare << " crit=" << res.critical << " df="
            << res.df << "; chi2(spec vs incremental)="
            << res.chiSquareTwoSample << " crit="
            << res.criticalTwoSample << " df=" << res.dfTwoSample
            << "; tvd=" << res.tvd;
        res.detail = oss.str();
    }
    return res;
}

} // namespace verify
} // namespace specinfer
