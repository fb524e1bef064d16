#include "model/transformer.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "parallel/collective.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace specinfer {
namespace model {

DecodeChunk
DecodeChunk::single(int token)
{
    DecodeChunk chunk;
    chunk.tokens = {token};
    chunk.parents = {-1};
    return chunk;
}

DecodeChunk
DecodeChunk::sequence(const std::vector<int> &tokens)
{
    DecodeChunk chunk;
    chunk.tokens = tokens;
    chunk.parents.resize(tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i)
        chunk.parents[i] = static_cast<int32_t>(i) - 1;
    return chunk;
}

void
DecodeChunk::validate() const
{
    SPECINFER_CHECK(tokens.size() == parents.size(),
                    "chunk tokens/parents size mismatch");
    SPECINFER_CHECK(extraSlots.empty() ||
                    extraSlots.size() == tokens.size(),
                    "extraSlots must be empty or per-token");
    for (size_t i = 0; i < parents.size(); ++i) {
        SPECINFER_CHECK(parents[i] >= -1 &&
                        parents[i] < static_cast<int32_t>(i),
                        "chunk parent " << parents[i] << " at index "
                                        << i << " is not topological");
    }
}

Transformer::Transformer(ModelConfig cfg,
                         std::shared_ptr<const ModelWeights> weights)
    : cfg_(std::move(cfg)), weights_(std::move(weights))
{
    cfg_.validate();
    SPECINFER_CHECK(weights_ != nullptr, "null weights");
    SPECINFER_CHECK(cfg_.nLayers <= weights_->layers.size(),
                    "config uses " << cfg_.nLayers
                                   << " layers but weights have "
                                   << weights_->layers.size());
    if (cfg_.precision == Precision::Int8) {
        SPECINFER_CHECK(cfg_.nLayers <= weights_->qLayers.size(),
                        "int8 model uses " << cfg_.nLayers
                                           << " layers but only "
                                           << weights_->qLayers.size()
                                           << " are quantized");
        SPECINFER_CHECK(!weights_->qLmHead.empty(),
                        "int8 model without quantized LM head");
    }
}

KvCache
Transformer::makeCache(size_t capacity) const
{
    if (capacity == 0)
        capacity = cfg_.maxSeqLen;
    return KvCache(cfg_.nLayers, cfg_.dModel, capacity);
}

tensor::Tensor
Transformer::forward(const DecodeChunk &chunk, KvCache &cache) const
{
    chunk.validate();
    const size_t m = chunk.size();
    SPECINFER_CHECK(m > 0, "empty decode chunk");
    const size_t d = cfg_.dModel;
    const size_t n_heads = cfg_.nHeads;
    const size_t d_head = cfg_.dHead();
    const size_t tp = cfg_.tensorParallel;
    const float attn_scale = 1.0f / std::sqrt(static_cast<float>(d_head));

    const size_t entry_len = cache.length();
    const size_t prefix = chunk.prefixLen == DecodeChunk::kWholeCache
                              ? entry_len : chunk.prefixLen;
    SPECINFER_CHECK(prefix <= entry_len,
                    "chunk prefixLen exceeds cache length");
    const size_t base = cache.allocate(m);
    kernelLaunches_.fetch_add(1, std::memory_order_relaxed);

    // Models are constructed by factories that never see an
    // ObsContext, so the kernel layer reports through the process-
    // global context. Null context = one branch per phase boundary
    // and zero clock reads (observation only — no program state is
    // ever touched).
    obs::ObsContext *o = obs::globalObs();
    uint64_t t_kv = 0, t_q = 0, t_attn = 0, t_proj = 0, t_mlp = 0;
    auto now = [&]() -> uint64_t {
        return o != nullptr ? o->nowNanos() : 0;
    };

    // Int8 path: projections run the integer GEMM against the
    // quantized weight mirrors, with activations quantized per row
    // on the fly. Attention, norms, RoPE, residuals, and the
    // embedding stay fp32 — they are bandwidth-cheap and their
    // precision anchors the residual stream. The two scratch
    // QTensors are reused across phases and layers so the chunk
    // allocates exactly two int8 buffers per forward. t_quant and
    // t_i8gemm are sub-phase breakdowns, published for int8 models
    // only: the existing phase timers (t_kv, ...) still cover the
    // whole phase either way.
    const bool int8 = cfg_.precision == Precision::Int8;
    tensor::QTensor q_act_d;  // [m x dModel] activation scratch
    tensor::QTensor q_act_ff; // [m x dFf] activation scratch
    uint64_t t_quant = 0, t_i8gemm = 0;
    auto quantizeInto = [&](const tensor::Tensor &src,
                            tensor::QTensor &dst) {
        if (!int8)
            return;
        const uint64_t q0 = now();
        tensor::quantizeRows(src, dst);
        t_quant += now() - q0;
    };

    // A projection operand in both precisions: an fp32 tensor and
    // its int8 mirror (an activation's quantizeInto() scratch or a
    // weight's quantized copy). project() multiplies the pair the
    // model's precision selects, so each projection below is one
    // call whatever the precision.
    struct Operand
    {
        const tensor::Tensor &f;
        const tensor::QTensor &q;
    };
    auto project = [&](Operand act, Operand w, size_t k0, size_t k1,
                       size_t j0, size_t j1, float *out,
                       size_t out_stride) {
        if (int8)
            tensor::matmulTransposedBSlice(act.q, w.q, k0, k1, j0, j1,
                                           out, out_stride);
        else
            tensor::matmulTransposedBSlice(act.f, w.f, k0, k1, j0, j1,
                                           out, out_stride);
    };
    // The int8 side of an fp32 model's weight operands: never read.
    static const QuantizedLayer no_quant{};

    // Tensor-parallel execution (DESIGN.md §5j). The forward runs as
    // orchestrated fork-join phases: forEachRank() runs one body per
    // rank — inline at tp=1 (so the unsharded path keeps the GEMM's
    // internal pool threading), on pool workers at tp>1
    // (nested GEMM parallelFors then degrade to inline, giving one
    // serial tile per rank). The collectives run on the orchestrator
    // thread between phases, after every rank body has joined.
    //
    // Determinism rule: column-parallel projections (K/V/Q, gate/up,
    // LM head) compute full-k dots — each output element is the same
    // dotRow as the unsharded kernel, bitwise. Row-parallel
    // projections (wo, wDown) split their k dimension into nHeads
    // *canonical* blocks regardless of tp; each block's [m x d]
    // partial product feeds one ordered allReduceSum fold, ascending
    // block order, at every tp including 1. Since tp divides nHeads,
    // rank shards align with canonical block boundaries (see
    // shardRange), so the fold tree — and every logit bit — is
    // independent of the rank count.
    util::ThreadPool &pool = util::ThreadPool::global();
    parallel::TpComm comm(tp);
    auto forEachRank = [&](auto &&body) {
        if (tp == 1) {
            body(size_t{0});
            return;
        }
        pool.parallelFor(0, tp, body);
    };
    auto headRange = [&](size_t r) {
        return parallel::shardRange(n_heads, tp, r);
    };

    static const std::vector<size_t> no_extras;
    auto extras_of = [&](size_t i) -> const std::vector<size_t> & {
        return chunk.extraSlots.empty() ? no_extras
                                        : chunk.extraSlots[i];
    };

    // Derive absolute positions and per-token visibility. slots[i]
    // is the full ascending list of cache slots token i attends to
    // beyond the common prefix: extra slots first, then within-chunk
    // ancestor slots (base + ancestor index), then itself.
    std::vector<size_t> positions(m);
    std::vector<std::vector<size_t>> slots(m);
    for (size_t i = 0; i < m; ++i) {
        const std::vector<size_t> &extras = extras_of(i);
        for (size_t e = 0; e < extras.size(); ++e) {
            SPECINFER_CHECK(extras[e] >= prefix && extras[e] < entry_len,
                            "extra slot " << extras[e]
                                          << " outside [prefix, entry)");
            if (e > 0)
                SPECINFER_CHECK(extras[e - 1] < extras[e],
                                "extra slots must ascend");
        }
        int32_t p = chunk.parents[i];
        if (p < 0) {
            positions[i] = prefix + extras.size();
            slots[i].assign(extras.begin(), extras.end());
        } else {
            SPECINFER_CHECK(extras.size() ==
                            extras_of(static_cast<size_t>(p)).size(),
                            "child must inherit parent's extra slots");
            positions[i] = positions[p] + 1;
            slots[i] = slots[p];
        }
        slots[i].push_back(base + i);
        SPECINFER_CHECK(positions[i] < cache.capacity(),
                        "token position exceeds cache capacity");
    }

    // Residual stream for the whole chunk.
    tensor::Tensor hidden(m, d);
    for (size_t i = 0; i < m; ++i) {
        int tok = chunk.tokens[i];
        SPECINFER_CHECK(tok >= 0 &&
                        static_cast<size_t>(tok) < cfg_.vocabSize,
                        "token " << tok << " outside vocabulary");
        const float *emb = weights_->embedding.row(tok);
        float *h = hidden.row(i);
        for (size_t c = 0; c < d; ++c)
            h[c] = emb[c];
    }

    // Chunk-wide [m x *] activation buffers. The whole layer runs as
    // batched phases over these: one GEMM per projection instead of
    // m matvec sweeps, with the shared pool splitting rows. Each
    // phase below is a barrier — e.g. every K/V row is written
    // before any token's attention reads ancestor slots.
    tensor::Tensor normed(m, d);
    tensor::Tensor q_all(m, d);
    tensor::Tensor attn_out(m, d);
    tensor::Tensor proj(m, d);
    tensor::Tensor gate(m, cfg_.dFf);
    tensor::Tensor up(m, cfg_.dFf);
    std::vector<std::vector<float>> scores_scratch(pool.threads());

    // Canonical reduce-block partials for the two row-parallel
    // projections: block b's [m x d] partial product occupies rows
    // [b*m, (b+1)*m). parts[] is the fixed ascending fold order fed
    // to allReduceSum — the same nHeads-long list at every tp.
    tensor::Tensor partials(n_heads * m, d);
    std::vector<const float *> parts(n_heads);
    for (size_t b = 0; b < n_heads; ++b)
        parts[b] = partials.row(b * m);

    // Per-token RoPE rotation tables, hoisted out of the layer loop:
    // a token's position (and thus its cos/sin pairs) is the same in
    // every layer and for both K and Q.
    tensor::Tensor rope_tab(m, d_head);
    pool.parallelFor(0, m, [&](size_t i) {
        tensor::ropeCosSin(d_head, positions[i], cfg_.ropeTheta,
                           rope_tab.row(i));
    });

    for (size_t layer = 0; layer < cfg_.nLayers; ++layer) {
        const LayerWeights &lw = weights_->layers[layer];
        const QuantizedLayer &ql =
            int8 ? weights_->qLayers[layer] : no_quant;

        // Attention RMSNorm, once per (layer, token); both the K/V
        // and Q projections read this buffer.
        pool.parallelFor(0, m, [&](size_t i) {
            tensor::rmsnormRow(hidden.row(i), lw.attnNorm.data(), d,
                               normed.row(i));
        });

        // Phase 1: post-RoPE K and V for the whole chunk so that
        // attention below can read any ancestor's slot. This is the
        // fused single-kernel layout of §4.2; chunk slots are
        // contiguous rows [base, base + m) of the per-layer cache
        // tensors, so one strided GEMM writes them all. Column-
        // parallel by heads: rank r writes the column slice
        // [h0*d_head, h1*d_head) of each row at the same stride, so
        // the cache layout — and every value bit — is identical to
        // the unsharded path at any tp.
        uint64_t t0 = now();
        // One activation quantization of `normed` serves the K, V,
        // and Q projections below (full-row scales, so the
        // quantization grid never depends on tp).
        quantizeInto(normed, q_act_d);
        uint64_t g0 = now();
        forEachRank([&](size_t r) {
            const auto hr = headRange(r);
            const size_t c0 = hr.first * d_head;
            const size_t c1 = hr.second * d_head;
            project({normed, q_act_d}, {lw.wk, ql.wk}, 0, d, c0, c1,
                    cache.keyRow(layer, base) + c0, cache.kvDim());
            project({normed, q_act_d}, {lw.wv, ql.wv}, 0, d, c0, c1,
                    cache.valueRow(layer, base) + c0, cache.kvDim());
        });
        t_i8gemm += now() - g0;
        pool.parallelFor(0, m, [&](size_t i) {
            tensor::ropeRowCached(cache.keyRow(layer, base + i),
                                  n_heads, d_head, rope_tab.row(i));
        });
        uint64_t t1 = now();
        t_kv += t1 - t0;

        // Phase 2a: batched Q projection + RoPE, column-parallel by
        // heads like K/V.
        g0 = now();
        forEachRank([&](size_t r) {
            const auto hr = headRange(r);
            const size_t c0 = hr.first * d_head;
            const size_t c1 = hr.second * d_head;
            project({normed, q_act_d}, {lw.wq, ql.wq}, 0, d, c0, c1,
                    q_all.data() + c0, q_all.cols());
        });
        t_i8gemm += now() - g0;
        pool.parallelFor(0, m, [&](size_t i) {
            tensor::ropeRowCached(q_all.row(i), n_heads, d_head,
                                  rope_tab.row(i));
        });
        uint64_t t2 = now();
        t_q += t2 - t1;

        // Phase 2b: attention under the topology-aware causal mask,
        // parallel over (rank, token) pairs — rank r owns its head
        // shard [h0, h1) of every token, writing a disjoint column
        // slice of attn_out. Loops run context-slot-outer /
        // head-inner so each cached K/V row is loaded once for all
        // local heads; a head's score row, softmax, and mix
        // accumulation are per-head computations identical to the
        // unsharded walk, so attn_out stays bit-identical at any tp
        // (at tp=1 this is exactly the legacy one-job-per-token
        // sweep). Raw per-layer K/V base pointers (rows are
        // contiguous with stride kvDim()): the slot loops below
        // index them directly instead of paying a bounds-checked
        // call per (token, slot).
        const float *k_base = cache.keyRow(layer, 0);
        const float *v_base = cache.valueRow(layer, 0);
        const size_t kv_stride = cache.kvDim();
        pool.parallelForWorker(0, tp * m, [&](size_t job,
                                              size_t worker) {
            const size_t r = job / m;
            const size_t i = job % m;
            const auto hr = headRange(r);
            const size_t h0 = hr.first;
            const size_t nh = hr.second - h0;
            const std::vector<size_t> &vis = slots[i];
            const size_t n_ctx = prefix + vis.size();
            const float *q_row = q_all.row(i);
            // scores[h * n_ctx + s]: rows of the score matrix for
            // this token's local heads h in [0, nh).
            std::vector<float> &scores = scores_scratch[worker];
            scores.resize(nh * n_ctx);
            auto score_slot = [&](size_t idx, const float *k_row) {
                for (size_t h = 0; h < nh; ++h)
                    scores[h * n_ctx + idx] = attn_scale *
                        tensor::dotRow(q_row + (h0 + h) * d_head,
                                       k_row + (h0 + h) * d_head,
                                       d_head);
            };
            for (size_t s = 0; s < prefix; ++s)
                score_slot(s, k_base + s * kv_stride);
            for (size_t a = 0; a < vis.size(); ++a)
                score_slot(prefix + a, k_base + vis[a] * kv_stride);
            for (size_t h = 0; h < nh; ++h)
                tensor::softmaxRow(scores.data() + h * n_ctx, n_ctx);

            float *out_row = attn_out.row(i);
            std::fill(out_row + h0 * d_head,
                      out_row + (h0 + nh) * d_head, 0.0f);
            auto mix_slot = [&](size_t idx, const float *v_row) {
                for (size_t h = 0; h < nh; ++h) {
                    const float wgt = scores[h * n_ctx + idx];
                    const float *vh = v_row + (h0 + h) * d_head;
                    float *out_h = out_row + (h0 + h) * d_head;
                    for (size_t c = 0; c < d_head; ++c)
                        out_h[c] += wgt * vh[c];
                }
            };
            for (size_t s = 0; s < prefix; ++s)
                mix_slot(s, v_base + s * kv_stride);
            for (size_t a = 0; a < vis.size(); ++a)
                mix_slot(prefix + a, v_base + vis[a] * kv_stride);
        });
        uint64_t t3 = now();
        t_attn += t3 - t2;

        // Phase 2c: batched output projection + residual. Row-
        // parallel: wo's k dimension (the head-major attn_out
        // columns) splits into nHeads canonical blocks — one per
        // head — and rank r computes the [m x d] partial product of
        // each block in its head shard. The orchestrator then folds
        // all nHeads partials into proj with one ordered
        // allReduceSum; the fold never sees rank boundaries, so the
        // sum is bit-identical at every tp.
        quantizeInto(attn_out, q_act_d);
        g0 = now();
        forEachRank([&](size_t r) {
            const auto hr = headRange(r);
            for (size_t b = hr.first; b < hr.second; ++b)
                project({attn_out, q_act_d}, {lw.wo, ql.wo}, b * d_head,
                        (b + 1) * d_head, 0, d, partials.row(b * m), d);
        });
        t_i8gemm += now() - g0;
        comm.allReduceSum(parts, proj.data(), m * d);
        pool.parallelFor(0, m, [&](size_t i) {
            tensor::addRow(hidden.row(i), proj.row(i), d);
        });
        uint64_t t4 = now();
        t_proj += t4 - t3;

        // Phase 3: SwiGLU MLP, batched. Column-parallel gate/up over
        // the dFf shard (full-k dots, exact), elementwise SiLU *
        // gate on the replicated buffer, then the row-parallel down
        // projection over the same nHeads canonical blocks of dFf as
        // the wo fold — rank shards align with block boundaries by
        // the shardRange nesting guarantee.
        pool.parallelFor(0, m, [&](size_t i) {
            tensor::rmsnormRow(hidden.row(i), lw.ffnNorm.data(), d,
                               normed.row(i));
        });
        quantizeInto(normed, q_act_d);
        g0 = now();
        forEachRank([&](size_t r) {
            const auto fr = parallel::shardRange(cfg_.dFf, tp, r);
            project({normed, q_act_d}, {lw.wGate, ql.wGate}, 0, d,
                    fr.first, fr.second, gate.data() + fr.first,
                    gate.cols());
            project({normed, q_act_d}, {lw.wUp, ql.wUp}, 0, d, fr.first,
                    fr.second, up.data() + fr.first, up.cols());
        });
        t_i8gemm += now() - g0;
        pool.parallelFor(0, m, [&](size_t i) {
            tensor::siluRow(gate.row(i), cfg_.dFf);
            tensor::mulRows(gate.row(i), gate.row(i), up.row(i),
                            cfg_.dFf);
        });
        quantizeInto(gate, q_act_ff);
        g0 = now();
        forEachRank([&](size_t r) {
            const auto hr = headRange(r);
            for (size_t b = hr.first; b < hr.second; ++b) {
                const auto fb =
                    parallel::shardRange(cfg_.dFf, n_heads, b);
                project({gate, q_act_ff}, {lw.wDown, ql.wDown},
                        fb.first, fb.second, 0, d, partials.row(b * m),
                        d);
            }
        });
        t_i8gemm += now() - g0;
        comm.allReduceSum(parts, proj.data(), m * d);
        pool.parallelFor(0, m, [&](size_t i) {
            tensor::addRow(hidden.row(i), proj.row(i), d);
        });
        t_mlp += now() - t4;
    }

    // Final norm + LM head, batched. The head is column-parallel
    // over the vocab: full-k dots into per-rank slabs, concatenated
    // by one allGather — exact, so logits match the unsharded GEMM
    // bitwise. At tp=1 the slab and gather are skipped (the direct
    // write into logits computes the same elements).
    const uint64_t t_head_start = now();
    tensor::Tensor logits(m, cfg_.vocabSize);
    pool.parallelFor(0, m, [&](size_t i) {
        tensor::rmsnormRow(hidden.row(i), weights_->finalNorm.data(),
                           d, normed.row(i));
    });
    quantizeInto(normed, q_act_d);
    const Operand lm_head{weights_->lmHead, weights_->qLmHead};
    uint64_t g0 = now();
    if (tp == 1) {
        project({normed, q_act_d}, lm_head, 0, d, 0, cfg_.vocabSize,
                logits.data(), logits.cols());
    } else {
        std::vector<tensor::Tensor> lm_shards;
        std::vector<const float *> lm_srcs(tp);
        lm_shards.reserve(tp);
        for (size_t r = 0; r < tp; ++r) {
            const auto vr =
                parallel::shardRange(cfg_.vocabSize, tp, r);
            lm_shards.emplace_back(
                m, std::max(vr.second - vr.first, size_t{1}));
            lm_srcs[r] = lm_shards[r].data();
        }
        forEachRank([&](size_t r) {
            const auto vr =
                parallel::shardRange(cfg_.vocabSize, tp, r);
            if (vr.second == vr.first)
                return;
            project({normed, q_act_d}, lm_head, 0, d, vr.first,
                    vr.second, lm_shards[r].data(),
                    lm_shards[r].cols());
        });
        comm.allGatherColumns(lm_srcs, m, cfg_.vocabSize,
                              logits.data());
    }
    t_i8gemm += now() - g0;
    pool.parallelFor(0, m, [&](size_t i) {
        tensor::scaleRow(logits.row(i), cfg_.vocabSize,
                         cfg_.logitScale);
    });
    if (o != nullptr) {
        obs::MetricsRegistry &reg = o->metrics();
        reg.counter("model_kernel_launches")->inc();
        reg.counter("model_chunk_tokens")->inc(m);
        if (int8) {
            reg.counter("model_int8_kernel_launches")->inc();
            reg.counter("model_quantize_nanos")->inc(t_quant);
            reg.counter("model_int8_gemm_nanos")->inc(t_i8gemm);
        }
        reg.counter("model_kv_gemm_nanos")->inc(t_kv);
        reg.counter("model_q_gemm_nanos")->inc(t_q);
        reg.counter("model_attention_nanos")->inc(t_attn);
        reg.counter("model_out_proj_nanos")->inc(t_proj);
        reg.counter("model_mlp_gemm_nanos")->inc(t_mlp);
        reg.counter("model_lm_head_nanos")
            ->inc(now() - t_head_start);
        // Collective byte/call accounting for the sharded path:
        // per layer, two allReduces of exactly m*dModel*4 bytes —
        // the counts GpuPerfModel::tensorParallelComm() predicts —
        // plus one LM-head allGather of m*vocab*4 bytes. A TpComm
        // of 1 rank counts nothing, keeping unsharded runs' metric
        // catalogs unchanged.
        if (tp > 1)
            comm.publish(reg);
    }
    return logits;
}

} // namespace model
} // namespace specinfer
