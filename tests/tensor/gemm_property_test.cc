/**
 * @file
 * Property tests for the cache-blocked, row-parallel GEMM kernels:
 * blocked results must match a naive reference on odd shapes (m = 1,
 * k not a multiple of the unroll or block width), the strided
 * matmulTransposedBInto must leave the gap columns untouched, and
 * every kernel — full matrix and (k0, k1, j0, j1) slices — must be
 * bit-identical across pool sizes: the determinism contract the
 * differential oracle depends on.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "gemm_slice_check.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

using specinfer::tensor::Tensor;
using specinfer::util::Rng;
using specinfer::util::ThreadPool;

Tensor
randomTensor(size_t rows, size_t cols, uint64_t seed)
{
    Tensor t(rows, cols);
    Rng rng(seed);
    for (size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.normal());
    return t;
}

/** Naive reference: out[i][j] = sum_kk a[i][kk] * b[kk][j]. */
Tensor
naiveMatmul(const Tensor &a, const Tensor &b)
{
    Tensor out(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (size_t kk = 0; kk < a.cols(); ++kk)
                acc += a.row(i)[kk] * b.row(kk)[j];
            out.row(i)[j] = acc;
        }
    return out;
}

TEST(GemmPropertyTest, BlockedMatmulTransposedBMatchesDotOnOddShapes)
{
    // Shapes chosen to stress the edges: m = 1 (the matvec case),
    // k = 7 / 13 (not multiples of the 8-wide unroll), n = 33 / 70
    // (not multiples of the 32-row weight block).
    struct Shape { size_t m, k, n; };
    const Shape shapes[] = {{1, 7, 33},  {1, 64, 32}, {3, 13, 70},
                            {16, 7, 33}, {17, 64, 1}, {5, 1, 5}};
    for (const Shape &s : shapes) {
        Tensor a = randomTensor(s.m, s.k, 11 + s.m);
        Tensor b = randomTensor(s.n, s.k, 23 + s.n);
        Tensor out(s.m, s.n);
        specinfer::tensor::matmulTransposedB(a, b, out);
        for (size_t i = 0; i < s.m; ++i)
            for (size_t j = 0; j < s.n; ++j) {
                // The kernel's contract: every element IS
                // dotRow(a_i, b_j, k), whatever the blocking.
                const float want = specinfer::tensor::dotRow(
                    a.row(i), b.row(j), s.k);
                EXPECT_EQ(out.row(i)[j], want)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n
                    << " at (" << i << ", " << j << ")";
            }
    }
}

TEST(GemmPropertyTest, MatmulMatchesNaiveReference)
{
    struct Shape { size_t m, k, n; };
    const Shape shapes[] = {{1, 5, 9}, {4, 16, 16}, {13, 7, 21}};
    for (const Shape &s : shapes) {
        Tensor a = randomTensor(s.m, s.k, 31 + s.m);
        Tensor b = randomTensor(s.k, s.n, 41 + s.n);
        Tensor out(s.m, s.n);
        specinfer::tensor::matmul(a, b, out);
        Tensor want = naiveMatmul(a, b);
        for (size_t i = 0; i < s.m; ++i)
            for (size_t j = 0; j < s.n; ++j)
                EXPECT_FLOAT_EQ(out.row(i)[j], want.row(i)[j]);
    }
}

TEST(GemmPropertyTest, StridedIntoWritesRowsAndLeavesGapAlone)
{
    const size_t m = 4, k = 24, n = 10, stride = 17;
    Tensor a = randomTensor(m, k, 5);
    Tensor b = randomTensor(n, k, 6);
    std::vector<float> buf(m * stride, -7.5f);
    specinfer::tensor::matmulTransposedBInto(a, b, buf.data(),
                                             stride);
    Tensor dense(m, n);
    specinfer::tensor::matmulTransposedB(a, b, dense);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j)
            EXPECT_EQ(buf[i * stride + j], dense.row(i)[j]);
        for (size_t j = n; j < stride; ++j)
            EXPECT_EQ(buf[i * stride + j], -7.5f)
                << "gap column clobbered at (" << i << ", " << j
                << ")";
    }
}

TEST(GemmPropertyTest, KernelsBitIdenticalAcrossThreadCounts)
{
    ThreadPool &pool = ThreadPool::global();
    const size_t restore = pool.threads();
    const size_t m = 19, k = 37, n = 71;
    Tensor a = randomTensor(m, k, 77);
    Tensor bt = randomTensor(n, k, 78);
    Tensor b = randomTensor(k, n, 79);

    pool.setThreads(1);
    Tensor t_ref(m, n), m_ref(m, n);
    specinfer::tensor::matmulTransposedB(a, bt, t_ref);
    specinfer::tensor::matmul(a, b, m_ref);

    for (size_t threads : {2u, 8u}) {
        pool.setThreads(threads);
        Tensor t_out(m, n), m_out(m, n);
        specinfer::tensor::matmulTransposedB(a, bt, t_out);
        specinfer::tensor::matmul(a, b, m_out);
        EXPECT_EQ(std::memcmp(t_out.data(), t_ref.data(),
                              m * n * sizeof(float)),
                  0)
            << "matmulTransposedB differs at threads=" << threads;
        EXPECT_EQ(std::memcmp(m_out.data(), m_ref.data(),
                              m * n * sizeof(float)),
                  0)
            << "matmul differs at threads=" << threads;
    }
    pool.setThreads(restore);

    // Random (k0, k1, j0, j1) slices over random shapes — thin m
    // takes the weight-block split, wide m the row split — each
    // element bit-equal to dotRow over the slice at 1, 2 and 4
    // threads.
    Rng rng(4242);
    specinfer::testing::SliceCoverage coverage;
    for (int trial = 0; trial < 40; ++trial) {
        const size_t sm = 1 + rng.uniformInt(uint64_t{24});
        const size_t sk = 1 + rng.uniformInt(uint64_t{96});
        const size_t sn = 1 + rng.uniformInt(uint64_t{80});
        Tensor sa = randomTensor(sm, sk, rng.next());
        Tensor sb = randomTensor(sn, sk, rng.next());
        const specinfer::testing::GemmSlice sl =
            specinfer::testing::drawSlice(rng, sk, sn, trial);
        coverage.add(sl);
        specinfer::testing::checkSliceAcrossThreads(
            sm, sl,
            [&](float *buf, size_t stride) {
                specinfer::tensor::matmulTransposedBSlice(
                    sa, sb, sl.k0, sl.k1, sl.j0, sl.j1, buf, stride);
            },
            [&](size_t i, size_t j) {
                return specinfer::tensor::dotRow(sa.row(i) + sl.k0,
                                                 sb.row(j) + sl.k0,
                                                 sl.k1 - sl.k0);
            });
    }
    coverage.expectAllHit();
}

TEST(GemmPropertyTest, MatvecMatchesGemmRow)
{
    // The scalar matvec and the batched GEMM share dotRow, so a
    // one-row GEMM must equal the matvec bit for bit.
    const size_t k = 50, n = 23;
    Tensor a = randomTensor(1, k, 91);
    Tensor w = randomTensor(n, k, 92);
    Tensor out(1, n);
    specinfer::tensor::matmulTransposedB(a, w, out);
    std::vector<float> ref(n);
    specinfer::tensor::matvecTransposed(a.row(0), w, ref.data());
    for (size_t j = 0; j < n; ++j)
        EXPECT_EQ(out.row(0)[j], ref[j]);
}

TEST(GemmPropertyTest, RopeCachedMatchesDirect)
{
    const size_t n_heads = 4, d_head = 16;
    for (size_t pos : {0u, 1u, 63u, 500u}) {
        std::vector<float> direct(n_heads * d_head);
        Rng rng(pos + 3);
        for (float &x : direct)
            x = static_cast<float>(rng.normal());
        std::vector<float> cached = direct;

        specinfer::tensor::ropeRow(direct.data(), n_heads, d_head,
                                   pos, 10000.0f);
        std::vector<float> tab(d_head);
        specinfer::tensor::ropeCosSin(d_head, pos, 10000.0f,
                                      tab.data());
        specinfer::tensor::ropeRowCached(cached.data(), n_heads,
                                         d_head, tab.data());
        for (size_t i = 0; i < direct.size(); ++i)
            EXPECT_EQ(direct[i], cached[i]) << "pos=" << pos;
    }
}

} // namespace
