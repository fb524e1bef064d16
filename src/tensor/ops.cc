#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "util/logging.h"
#include "util/threadpool.h"

namespace specinfer {
namespace tensor {

namespace {

/**
 * Rows of the B (weight) matrix processed per block in the
 * transposed-B GEMM. 32 rows x 512 floats (the largest k in the
 * model zoo) is 64 KiB — the block B rows stay L1/L2-resident while
 * being reused across every activation row, which is where batching
 * an m-token chunk beats m independent matvec sweeps.
 */
constexpr size_t kGemmRowBlock = 32;

/**
 * One GEMM tile: activation rows [i_lo, i_hi) x local weight rows
 * [jb, j_hi) of a * b^T over raw base pointers (the j loop is a dot
 * per ~10 ns, so even a bounds-checked row() call per iteration is
 * measurable). Row strides let the dot run over a k-slice of rows
 * wider than the slice: a_base/b_base are pre-offset to the slice
 * start, and local weight row j lives at b_base + j * b_stride.
 * Element values are dotRow() over the slice — tiling only reorders
 * which elements are computed when, never how one is reduced.
 */
void
gemmTileGeneric(const float *a_base, size_t a_stride,
                const float *b_base, size_t b_stride, float *out,
                size_t out_stride, size_t len, size_t i_lo,
                size_t i_hi, size_t jb, size_t j_hi)
{
    for (size_t i = i_lo; i < i_hi; ++i) {
        const float *a_row = a_base + i * a_stride;
        float *out_row = out + i * out_stride;
        for (size_t j = jb; j < j_hi; ++j)
            out_row[j] = dotRow(a_row, b_base + j * b_stride, len);
    }
}

using GemmTileFn = void (*)(const float *, size_t, const float *,
                            size_t, float *, size_t, size_t, size_t,
                            size_t, size_t, size_t);

#if defined(__x86_64__) && defined(__GNUC__)

/**
 * dotRow() recompiled for AVX2. The body is a literal restatement of
 * the header kernel: the eight named accumulators become the eight
 * lanes of one 256-bit vector and the explicit reduction tree is
 * preserved, so the instruction selection changes but the IEEE
 * operation DAG — and therefore every output bit — does not.
 * (FMA is deliberately left off the target: contraction would fuse
 * mul+add and change results.)
 */
__attribute__((target("avx2"), always_inline)) inline float
dotRowAvx2(const float *a, const float *b, size_t n)
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

__attribute__((target("avx2"))) void
gemmTileAvx2(const float *a_base, size_t a_stride,
             const float *b_base, size_t b_stride, float *out,
             size_t out_stride, size_t len, size_t i_lo, size_t i_hi,
             size_t jb, size_t j_hi)
{
    for (size_t i = i_lo; i < i_hi; ++i) {
        const float *a_row = a_base + i * a_stride;
        float *out_row = out + i * out_stride;
        for (size_t j = jb; j < j_hi; ++j)
            out_row[j] = dotRowAvx2(a_row, b_base + j * b_stride, len);
    }
}

#endif // x86_64 && GNUC

/**
 * Dispatch once per process: the AVX2 tile computes bit-identical
 * results (see dotRowAvx2), so the choice of ISA never changes
 * output, only throughput.
 */
GemmTileFn
gemmTile()
{
#if defined(__x86_64__) && defined(__GNUC__)
    static const GemmTileFn fn = __builtin_cpu_supports("avx2")
                                     ? gemmTileAvx2
                                     : gemmTileGeneric;
#else
    static const GemmTileFn fn = gemmTileGeneric;
#endif
    return fn;
}

/**
 * One int8 GEMM tile, scalar reference, with the float tile's
 * strided layout (b_scales is pre-offset like b_base). Every element
 * is the exact int32 dotRowI8() over the slice scaled by the two
 * per-row fp32 scales — the single float expression all int8 tiles
 * share. Because the integer dot is exact, tiling and threading can
 * never change a bit.
 */
void
gemmTileI8Generic(const int8_t *a_base, size_t a_stride,
                  const float *a_scales, const int8_t *b_base,
                  size_t b_stride, const float *b_scales, float *out,
                  size_t out_stride, size_t len, size_t i_lo,
                  size_t i_hi, size_t jb, size_t j_hi)
{
    for (size_t i = i_lo; i < i_hi; ++i) {
        const int8_t *a_row = a_base + i * a_stride;
        const float sa = a_scales[i];
        float *out_row = out + i * out_stride;
        for (size_t j = jb; j < j_hi; ++j) {
            const int32_t acc =
                dotRowI8(a_row, b_base + j * b_stride, len);
            out_row[j] = static_cast<float>(acc) * (sa * b_scales[j]);
        }
    }
}

using GemmTileI8Fn = void (*)(const int8_t *, size_t, const float *,
                              const int8_t *, size_t, const float *,
                              float *, size_t, size_t, size_t, size_t,
                              size_t, size_t);

#if defined(__x86_64__) && defined(__GNUC__)

/**
 * dotRowI8() on AVX2: per 32 bytes, maddubs(|a|, sign(b, a)) forms
 * the 16 pairwise i16 sums of a[i]*b[i] — quants are in [-127, 127],
 * so each pair sum is at most 2 * 127 * 127 = 32258 < 32767 and the
 * saturating maddubs cannot actually saturate — then madd(., 1)
 * widens to i32 and accumulates. Integer adds are associative, so
 * any horizontal-sum order equals the scalar loop exactly; the
 * shuffle reduction here needs no memory round trip.
 */
__attribute__((target("avx2"), always_inline)) inline __m256i
fmaI8Avx2(__m256i acc, __m256i abs_a, __m256i va, const int8_t *b)
{
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b));
    const __m256i sb = _mm256_sign_epi8(vb, va);
    const __m256i prod16 = _mm256_maddubs_epi16(abs_a, sb);
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(prod16, _mm256_set1_epi16(1)));
}

__attribute__((target("avx2"), always_inline)) inline int32_t
hsumI8Avx2(__m256i acc)
{
    const __m128i s2 =
        _mm_add_epi32(_mm256_castsi256_si128(acc),
                      _mm256_extracti128_si256(acc, 1));
    const __m128i s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0x4E));
    const __m128i s0 = _mm_add_epi32(s1, _mm_shuffle_epi32(s1, 0xB1));
    return _mm_cvtsi128_si32(s0);
}

__attribute__((target("avx2"), always_inline)) inline int32_t
dotRowI8Avx2(const int8_t *a, const int8_t *b, size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    size_t i = 0;
    const size_t n32 = n & ~size_t{31};
    for (; i < n32; i += 32) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        acc = fmaI8Avx2(acc, _mm256_abs_epi8(va), va, b + i);
    }
    int32_t total = hsumI8Avx2(acc);
    for (; i < n; ++i)
        total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    return total;
}

/**
 * The throughput shape: four weight rows per pass so each activation
 * load (and its abs) is amortized 4x, with four independent integer
 * accumulators. The final element expression is the same
 * float(acc) * (sa * sb) every int8 tile shares; everything upstream
 * of it is exact integer math, so this blocking is bit-identical to
 * the scalar reference by construction.
 */
__attribute__((target("avx2"))) void
gemmTileI8Avx2(const int8_t *a_base, size_t a_stride,
               const float *a_scales, const int8_t *b_base,
               size_t b_stride, const float *b_scales, float *out,
               size_t out_stride, size_t len, size_t i_lo,
               size_t i_hi, size_t jb, size_t j_hi)
{
    const size_t len32 = len & ~size_t{31};
    for (size_t i = i_lo; i < i_hi; ++i) {
        const int8_t *a_row = a_base + i * a_stride;
        const float sa = a_scales[i];
        float *out_row = out + i * out_stride;
        size_t j = jb;
        for (; j + 4 <= j_hi; j += 4) {
            const int8_t *b0 = b_base + j * b_stride;
            const int8_t *b1 = b0 + b_stride;
            const int8_t *b2 = b1 + b_stride;
            const int8_t *b3 = b2 + b_stride;
            __m256i acc0 = _mm256_setzero_si256();
            __m256i acc1 = _mm256_setzero_si256();
            __m256i acc2 = _mm256_setzero_si256();
            __m256i acc3 = _mm256_setzero_si256();
            size_t kk = 0;
            for (; kk < len32; kk += 32) {
                const __m256i va = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a_row + kk));
                const __m256i abs_a = _mm256_abs_epi8(va);
                acc0 = fmaI8Avx2(acc0, abs_a, va, b0 + kk);
                acc1 = fmaI8Avx2(acc1, abs_a, va, b1 + kk);
                acc2 = fmaI8Avx2(acc2, abs_a, va, b2 + kk);
                acc3 = fmaI8Avx2(acc3, abs_a, va, b3 + kk);
            }
            // hadd tree: all four accumulators reduce to one
            // [t0 t1 t2 t3] vector in 5 integer ops (exact, so
            // still bit-identical to the scalar reference).
            const __m256i h01 = _mm256_hadd_epi32(acc0, acc1);
            const __m256i h23 = _mm256_hadd_epi32(acc2, acc3);
            const __m256i h = _mm256_hadd_epi32(h01, h23);
            __m128i t4 =
                _mm_add_epi32(_mm256_castsi256_si128(h),
                              _mm256_extracti128_si256(h, 1));
            if (kk < len) {
                alignas(16) int32_t t[4];
                _mm_store_si128(reinterpret_cast<__m128i *>(t), t4);
                for (; kk < len; ++kk) {
                    const int32_t av = a_row[kk];
                    t[0] += av * static_cast<int32_t>(b0[kk]);
                    t[1] += av * static_cast<int32_t>(b1[kk]);
                    t[2] += av * static_cast<int32_t>(b2[kk]);
                    t[3] += av * static_cast<int32_t>(b3[kk]);
                }
                t4 = _mm_load_si128(
                    reinterpret_cast<const __m128i *>(t));
            }
            // Per lane this is exactly float(acc) * (sa * sb):
            // cvtepi32->ps is the scalar int->float conversion and
            // the two muls match the scalar expression's order.
            const __m128 scales = _mm_mul_ps(
                _mm_set1_ps(sa), _mm_loadu_ps(b_scales + j));
            _mm_storeu_ps(out_row + j,
                          _mm_mul_ps(_mm_cvtepi32_ps(t4), scales));
        }
        for (; j < j_hi; ++j) {
            const int32_t acc =
                dotRowI8Avx2(a_row, b_base + j * b_stride, len);
            out_row[j] = static_cast<float>(acc) * (sa * b_scales[j]);
        }
    }
}

#endif // x86_64 && GNUC

/** One-time int8 tile dispatch, mirroring gemmTile(). */
GemmTileI8Fn
gemmTileI8()
{
#if defined(__x86_64__) && defined(__GNUC__)
    static const GemmTileI8Fn fn = __builtin_cpu_supports("avx2")
                                       ? gemmTileI8Avx2
                                       : gemmTileI8Generic;
#else
    static const GemmTileI8Fn fn = gemmTileI8Generic;
#endif
    return fn;
}

/**
 * The one thread-split policy of the transposed-B GEMM, for either
 * dtype: tile(i_lo, i_hi, jb, j_hi) computes one block of the
 * [m x n] output, and is never called when the output is empty (so
 * it may offset operand pointers freely). Under a rank body of the
 * tensor-parallel forward the nested parallelFor degrades to inline,
 * so sharded callers get per-rank serial tiles while tp=1 calls
 * thread across the pool.
 */
template <typename Tile>
void
splitGemm(size_t m, size_t n, const Tile &tile)
{
    if (m == 0 || n == 0)
        return;
    util::ThreadPool &pool = util::ThreadPool::global();
    if (m >= pool.threads()) {
        // Enough activation rows to split: one contiguous row range
        // per worker, weight blocks reused within each range.
        pool.parallelFor(0, pool.threads(), [&](size_t w) {
            const size_t i_lo = w * m / pool.threads();
            const size_t i_hi = (w + 1) * m / pool.threads();
            for (size_t jb = 0; jb < n; jb += kGemmRowBlock)
                tile(i_lo, i_hi, jb, std::min(jb + kGemmRowBlock, n));
        });
        return;
    }
    // Thin activations (down to the m=1 matvec): split the weight
    // rows across workers instead.
    const size_t n_blocks = (n + kGemmRowBlock - 1) / kGemmRowBlock;
    pool.parallelFor(0, n_blocks, [&](size_t blk) {
        const size_t jb = blk * kGemmRowBlock;
        tile(0, m, jb, std::min(jb + kGemmRowBlock, n));
    });
}

/** Shape checks shared by both dtypes' slice entry points. */
void
checkSlice(size_t a_cols, size_t b_cols, size_t b_rows, size_t k0,
           size_t k1, size_t j0, size_t j1, size_t out_stride)
{
    SPECINFER_CHECK(a_cols == b_cols, "matmulT shape mismatch: a has "
                                          << a_cols << " columns, b "
                                          << b_cols);
    SPECINFER_CHECK(k0 <= k1 && k1 <= a_cols,
                    "matmulT k-slice [" << k0 << ", " << k1
                                        << ") out of range");
    SPECINFER_CHECK(j0 <= j1 && j1 <= b_rows,
                    "matmulT j-slice [" << j0 << ", " << j1
                                        << ") out of range");
    SPECINFER_CHECK(out_stride >= j1 - j0,
                    "matmulT output stride " << out_stride
                                             << " narrower than "
                                             << (j1 - j0)
                                             << " columns");
}

} // namespace

void
matmul(const Tensor &a, const Tensor &b, Tensor &out)
{
    SPECINFER_CHECK(a.cols() == b.rows(),
                    "matmul shape mismatch " << a.shapeString() << " * "
                                             << b.shapeString());
    SPECINFER_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
                    "matmul output shape mismatch");
    const size_t k = a.cols(), n = b.cols();
    // Row-parallel; per-element accumulation stays in ascending kk
    // order, so results match the serial kernel bit for bit.
    util::ThreadPool::global().parallelFor(
        0, a.rows(), [&](size_t i) {
            float *out_row = out.row(i);
            std::fill(out_row, out_row + n, 0.0f);
            const float *a_row = a.row(i);
            for (size_t kk = 0; kk < k; ++kk) {
                const float av = a_row[kk];
                const float *b_row = b.row(kk);
                for (size_t j = 0; j < n; ++j)
                    out_row[j] += av * b_row[j];
            }
        });
}

void
matmulTransposedBInto(const Tensor &a, const Tensor &b, float *out,
                      size_t out_stride)
{
    matmulTransposedBSlice(a, b, 0, a.cols(), 0, b.rows(), out,
                           out_stride);
}

void
matmulTransposedB(const Tensor &a, const Tensor &b, Tensor &out)
{
    SPECINFER_CHECK(out.rows() == a.rows() && out.cols() == b.rows(),
                    "matmulT output shape mismatch");
    matmulTransposedBInto(a, b, out.data(), out.cols());
}

void
matmulTransposedBInto(const QTensor &a, const QTensor &b, float *out,
                      size_t out_stride)
{
    matmulTransposedBSlice(a, b, 0, a.cols(), 0, b.rows(), out,
                           out_stride);
}

void
matmulTransposedB(const QTensor &a, const QTensor &b, Tensor &out)
{
    SPECINFER_CHECK(out.rows() == a.rows() && out.cols() == b.rows(),
                    "int8 matmulT output shape mismatch");
    matmulTransposedBInto(a, b, out.data(), out.cols());
}

void
matmulTransposedBSlice(const Tensor &a, const Tensor &b, size_t k0,
                       size_t k1, size_t j0, size_t j1, float *out,
                       size_t out_stride)
{
    checkSlice(a.cols(), b.cols(), b.rows(), k0, k1, j0, j1,
               out_stride);
    const GemmTileFn tile = gemmTile();
    splitGemm(a.rows(), j1 - j0,
              [&](size_t i_lo, size_t i_hi, size_t jb, size_t j_hi) {
                  tile(a.data() + k0, a.cols(),
                       b.data() + j0 * b.cols() + k0, b.cols(), out,
                       out_stride, k1 - k0, i_lo, i_hi, jb, j_hi);
              });
}

void
matmulTransposedBSlice(const QTensor &a, const QTensor &b, size_t k0,
                       size_t k1, size_t j0, size_t j1, float *out,
                       size_t out_stride)
{
    checkSlice(a.cols(), b.cols(), b.rows(), k0, k1, j0, j1,
               out_stride);
    const GemmTileI8Fn tile = gemmTileI8();
    splitGemm(a.rows(), j1 - j0,
              [&](size_t i_lo, size_t i_hi, size_t jb, size_t j_hi) {
                  tile(a.data() + k0, a.cols(), a.scales(),
                       b.data() + j0 * b.cols() + k0, b.cols(),
                       b.scales() + j0, out, out_stride, k1 - k0, i_lo,
                       i_hi, jb, j_hi);
              });
}

void
matvecTransposed(const float *x, const Tensor &w, float *out)
{
    const size_t k = w.cols(), n = w.rows();
    const float *w_base = w.data();
    for (size_t j = 0; j < n; ++j)
        out[j] = dotRow(x, w_base + j * k, k);
}

void
softmaxRow(float *row, size_t n)
{
    SPECINFER_CHECK(n > 0, "softmax of empty row");
    float peak = row[0];
    for (size_t i = 1; i < n; ++i)
        peak = std::max(peak, row[i]);
    float total = 0.0f;
    for (size_t i = 0; i < n; ++i) {
        row[i] = std::exp(row[i] - peak);
        total += row[i];
    }
    const float inv = 1.0f / total;
    for (size_t i = 0; i < n; ++i)
        row[i] *= inv;
}

void
softmaxRowTemperature(float *row, size_t n, float temperature)
{
    SPECINFER_CHECK(n > 0, "softmax of empty row");
    if (temperature <= 0.0f) {
        size_t best = argmaxRow(row, n);
        std::fill(row, row + n, 0.0f);
        row[best] = 1.0f;
        return;
    }
    const float inv_t = 1.0f / temperature;
    for (size_t i = 0; i < n; ++i)
        row[i] *= inv_t;
    softmaxRow(row, n);
}

void
rmsnormRow(const float *x, const float *gain, size_t n, float *out,
           float eps)
{
    double ss = 0.0;
    for (size_t i = 0; i < n; ++i)
        ss += static_cast<double>(x[i]) * static_cast<double>(x[i]);
    const float inv_rms = 1.0f / std::sqrt(
        static_cast<float>(ss / static_cast<double>(n)) + eps);
    for (size_t i = 0; i < n; ++i)
        out[i] = x[i] * inv_rms * gain[i];
}

void
siluRow(float *row, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        row[i] = row[i] / (1.0f + std::exp(-row[i]));
}

void
geluRow(float *row, size_t n)
{
    constexpr float k = 0.7978845608f; // sqrt(2/pi)
    for (size_t i = 0; i < n; ++i) {
        float x = row[i];
        row[i] = 0.5f * x *
                 (1.0f + std::tanh(k * (x + 0.044715f * x * x * x)));
    }
}

void
addRow(float *out, const float *a, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] += a[i];
}

void
scaleRow(float *row, size_t n, float s)
{
    for (size_t i = 0; i < n; ++i)
        row[i] *= s;
}

void
mulRows(float *out, const float *a, const float *b, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = a[i] * b[i];
}

void
ropeCosSin(size_t d_head, size_t position, float theta,
           float *cos_sin)
{
    SPECINFER_CHECK(d_head % 2 == 0, "RoPE requires even head dim");
    for (size_t i = 0; i < d_head; i += 2) {
        float freq = std::pow(
            theta, -static_cast<float>(i) /
                   static_cast<float>(d_head));
        float angle = static_cast<float>(position) * freq;
        cos_sin[i] = std::cos(angle);
        cos_sin[i + 1] = std::sin(angle);
    }
}

void
ropeRowCached(float *row, size_t n_heads, size_t d_head,
              const float *cos_sin)
{
    for (size_t h = 0; h < n_heads; ++h) {
        float *head = row + h * d_head;
        for (size_t i = 0; i < d_head; i += 2) {
            const float c = cos_sin[i], s = cos_sin[i + 1];
            float x0 = head[i], x1 = head[i + 1];
            head[i] = x0 * c - x1 * s;
            head[i + 1] = x0 * s + x1 * c;
        }
    }
}

void
ropeRow(float *row, size_t n_heads, size_t d_head, size_t position,
        float theta)
{
    SPECINFER_CHECK(d_head % 2 == 0, "RoPE requires even head dim");
    for (size_t h = 0; h < n_heads; ++h) {
        float *head = row + h * d_head;
        for (size_t i = 0; i < d_head; i += 2) {
            float freq = std::pow(
                theta, -static_cast<float>(i) /
                       static_cast<float>(d_head));
            float angle = static_cast<float>(position) * freq;
            float c = std::cos(angle), s = std::sin(angle);
            float x0 = head[i], x1 = head[i + 1];
            head[i] = x0 * c - x1 * s;
            head[i + 1] = x0 * s + x1 * c;
        }
    }
}

size_t
argmaxRow(const float *row, size_t n)
{
    SPECINFER_CHECK(n > 0, "argmax of empty row");
    size_t best = 0;
    for (size_t i = 1; i < n; ++i)
        if (row[i] > row[best])
            best = i;
    return best;
}

std::vector<size_t>
topkRow(const float *row, size_t n, size_t k)
{
    SPECINFER_CHECK(k > 0 && k <= n, "topk with k=" << k << ", n=" << n);
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [row](size_t a, size_t b) {
                          if (row[a] != row[b])
                              return row[a] > row[b];
                          return a < b;
                      });
    idx.resize(k);
    return idx;
}

double
totalVariation(const float *p, const float *q, size_t n)
{
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i)
        acc += std::abs(static_cast<double>(p[i]) -
                        static_cast<double>(q[i]));
    return 0.5 * acc;
}

} // namespace tensor
} // namespace specinfer
