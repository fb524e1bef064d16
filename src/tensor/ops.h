/**
 * @file
 * Numeric kernels for the transformer substrate.
 *
 * All kernels operate on raw float rows or on Tensor; none allocate
 * unless they return a fresh value. These are the CPU stand-ins for
 * the cuBLAS/FasterTransformer kernels the paper's system uses.
 */

#ifndef SPECINFER_TENSOR_OPS_H
#define SPECINFER_TENSOR_OPS_H

#include <cstddef>
#include <utility>
#include <vector>

#include "tensor/qtensor.h"
#include "tensor/tensor.h"

namespace specinfer {
namespace tensor {

/**
 * out = a * b, where a is [m x k] and b is [k x n].
 * @pre out has shape [m x n] and does not alias a or b.
 */
void matmul(const Tensor &a, const Tensor &b, Tensor &out);

/**
 * out = a * b^T, where a is [m x k] and b is [n x k].
 * Weight matrices are stored row-major as [out_dim x in_dim], so this
 * is the natural kernel for linear layers.
 * @pre out has shape [m x n] and does not alias a or b.
 */
void matmulTransposedB(const Tensor &a, const Tensor &b, Tensor &out);

/**
 * Batched bias-free linear layer into caller-owned storage:
 * out[i * out_stride + j] = dot(a.row(i), b.row(j)) for an [m x k]
 * activation matrix a and [n x k] weight matrix b. The strided
 * destination lets one GEMM write rows that live inside a larger
 * buffer (KV-cache rows, logits), fusing the per-token projection
 * loop of tree-based parallel decoding into a single cache-blocked,
 * row-parallel kernel.
 *
 * Bit-exactness contract: every output element is computed as
 * dotRow(a.row(i), b.row(j), k) regardless of blocking or thread
 * count, so results are identical to the scalar matvec path.
 *
 * @pre out_stride >= b.rows(); out does not alias a or b.
 */
void matmulTransposedBInto(const Tensor &a, const Tensor &b,
                           float *out, size_t out_stride);

/**
 * Integer variant of matmulTransposedBInto: both operands are int8
 * with per-row scales, and out[i * out_stride + j] =
 * float(dotRowI8(a.row(i), b.row(j), k)) * (a.scale(i) * b.scale(j)).
 *
 * Bit-exactness contract, stronger than the float kernels': the
 * int32 dot is exact, so any blocking, thread split, or ISA (scalar
 * vs the AVX2 maddubs tile) yields identical integers, and the one
 * float expression above is fixed — results are bit-identical across
 * SPECINFER_THREADS and dispatch by construction.
 *
 * @pre a.cols() == b.cols(); out_stride >= b.rows(); out does not
 *      alias a or b.
 */
void matmulTransposedBInto(const QTensor &a, const QTensor &b,
                           float *out, size_t out_stride);

/** Dense-output wrapper. @pre out has shape [a.rows() x b.rows()]. */
void matmulTransposedB(const QTensor &a, const QTensor &b, Tensor &out);

/**
 * Rectangular slice of the transposed-B GEMM, the primitive behind
 * tensor-parallel sharding (src/parallel): for weight rows j in
 * [j0, j1) and the k-slice [k0, k1),
 *
 *   out[i * out_stride + (j - j0)] =
 *       dotRow(a.row(i) + k0, b.row(j) + k0, k1 - k0)
 *
 * A column-parallel layer takes the full k range and a j shard (the
 * rank's output slab, dense with width j1 - j0); a row-parallel
 * layer takes the full j range and a k shard (one canonical reduce
 * block's partial product). k0 == k1 is legal and writes 0.0f
 * (dotRow over zero elements) — empty canonical blocks must still
 * contribute a well-defined partial to the ordered reduction.
 *
 * Bit-exactness contract: each element is one dotRow over the
 * slice, identical bits regardless of blocking, thread count, or
 * ISA. This is the one transposed-B GEMM: matmulTransposedBInto is
 * exactly this call with k0 == 0, k1 == k, j0 == 0, j1 == n.
 *
 * @pre k0 <= k1 <= a.cols(); j0 <= j1 <= b.rows();
 *      out_stride >= j1 - j0; out does not alias a or b.
 */
void matmulTransposedBSlice(const Tensor &a, const Tensor &b,
                            size_t k0, size_t k1, size_t j0, size_t j1,
                            float *out, size_t out_stride);

/**
 * Integer variant of matmulTransposedBSlice: the int32 dot runs over
 * the k-slice [k0, k1) and the one shared float expression applies
 * the full per-row scales,
 *
 *   out[i * out_stride + (j - j0)] =
 *       float(dotRowI8(a.row(i) + k0, b.row(j) + k0, k1 - k0))
 *           * (a.scale(i) * b.scale(j)).
 *
 * The slice dot is exact integer math, so results are bit-identical
 * across blocking, threads, and dispatch — and a sum of k-slice
 * partials folded in canonical order is the sharded int8 path's
 * deterministic replacement for the full-k dot.
 */
void matmulTransposedBSlice(const QTensor &a, const QTensor &b,
                            size_t k0, size_t k1, size_t j0, size_t j1,
                            float *out, size_t out_stride);

/**
 * out_row = x_row * w^T for one row: y[j] = sum_i x[i] * w[j][i].
 * @param x Input vector of length w.cols().
 * @param w Weight matrix [out_dim x in_dim].
 * @param out Output vector of length w.rows().
 */
void matvecTransposed(const float *x, const Tensor &w, float *out);

/** In-place numerically-stable softmax over a length-n row. */
void softmaxRow(float *row, size_t n);

/**
 * In-place softmax with temperature; temperature <= 0 degenerates to
 * a one-hot argmax distribution.
 */
void softmaxRowTemperature(float *row, size_t n, float temperature);

/**
 * RMSNorm: out[i] = x[i] / rms(x) * gain[i].
 * out may alias x.
 */
void rmsnormRow(const float *x, const float *gain, size_t n, float *out,
                float eps = 1.0e-5f);

/** SiLU activation applied elementwise in place. */
void siluRow(float *row, size_t n);

/** GELU (tanh approximation) applied elementwise in place. */
void geluRow(float *row, size_t n);

/** out[i] += a[i] for a length-n row. */
void addRow(float *out, const float *a, size_t n);

/** out[i] *= s for a length-n row. */
void scaleRow(float *row, size_t n, float s);

/** out[i] = a[i] * b[i] for a length-n row. */
void mulRows(float *out, const float *a, const float *b, size_t n);

/**
 * Dot product of two length-n rows.
 *
 * Eight independent accumulators break the serial fadd dependency
 * chain (and give the compiler vectorizable lanes without
 * -ffast-math). The reduction order is a pure function of n, so
 * every caller — batched GEMM, scalar matvec, attention scores —
 * produces identical bits for identical inputs. Inline because the
 * tree-attention score loop issues tens of thousands of short
 * (d_head-long) dots per forward pass.
 */
inline float
dotRow(const float *a, const float *b, size_t n)
{
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    float a4 = 0.0f, a5 = 0.0f, a6 = 0.0f, a7 = 0.0f;
    size_t i = 0;
    const size_t n8 = n & ~size_t{7};
    for (; i < n8; i += 8) {
        a0 += a[i] * b[i];
        a1 += a[i + 1] * b[i + 1];
        a2 += a[i + 2] * b[i + 2];
        a3 += a[i + 3] * b[i + 3];
        a4 += a[i + 4] * b[i + 4];
        a5 += a[i + 5] * b[i + 5];
        a6 += a[i + 6] * b[i + 6];
        a7 += a[i + 7] * b[i + 7];
    }
    float acc = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
    for (; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

/**
 * Apply rotary position embeddings (RoPE) in place to a row of
 * n_heads * d_head floats laid out head-major.
 *
 * @param row Query or key row.
 * @param n_heads Number of attention heads in the row.
 * @param d_head Per-head dimension (must be even).
 * @param position Absolute token position.
 * @param theta Base frequency (LLaMA uses 10000).
 */
void ropeRow(float *row, size_t n_heads, size_t d_head, size_t position,
             float theta = 10000.0f);

/**
 * Precompute the RoPE rotation table for one position: cos_sin holds
 * d_head floats, interleaved (cos, sin) per even/odd pair, shared by
 * every head. Computed with exactly the ropeRow() formula, so
 * ropeRowCached(row, table) is bit-identical to ropeRow(row, pos) —
 * the batched forward path hoists the table per token because
 * positions do not change across layers or between K and Q.
 */
void ropeCosSin(size_t d_head, size_t position, float theta,
                float *cos_sin);

/** Apply RoPE from a precomputed ropeCosSin() table, in place. */
void ropeRowCached(float *row, size_t n_heads, size_t d_head,
                   const float *cos_sin);

/** Index of the maximum element (first on ties). @pre n > 0 */
size_t argmaxRow(const float *row, size_t n);

/**
 * Indices of the k largest elements in descending value order.
 * @pre 0 < k <= n.
 */
std::vector<size_t> topkRow(const float *row, size_t n, size_t k);

/** Total variation distance between two length-n distributions. */
double totalVariation(const float *p, const float *q, size_t n);

} // namespace tensor
} // namespace specinfer

#endif // SPECINFER_TENSOR_OPS_H
