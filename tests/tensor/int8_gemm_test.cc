/**
 * @file
 * Property tests for the real-int8 path: QTensor quantization must
 * land on exactly the fakeQuantizeRows(t, 8) grid, the int8 GEMM
 * must reproduce the scalar int32 reference bit for bit on odd
 * shapes (which, on an AVX2 host, is the AVX2-vs-scalar identity
 * check — the kernel dispatches the maddubs tile while the expected
 * value runs the plain loop), the strided variant must leave gap
 * columns untouched, and results must be bit-identical across
 * thread counts {1, 2, 8} — full matrix and (k0, k1, j0, j1) slices.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "gemm_slice_check.h"
#include "tensor/ops.h"
#include "tensor/qtensor.h"
#include "tensor/quant.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

using specinfer::tensor::QTensor;
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

TEST(Int8GemmTest, DequantizeMatchesFakeQuantGridBitwise)
{
    // The reproducibility contract: quantize + dequantize must land
    // every element on exactly the value fakeQuantizeRows(t, 8)
    // produces — not close, identical — so fake-quant acceptance
    // studies describe the real-int8 path verbatim.
    for (uint64_t seed : {1u, 2u, 3u, 44u}) {
        Tensor t = randomTensor(9, 33, seed);
        Tensor fake = t;
        specinfer::tensor::fakeQuantizeRows(fake, 8);
        QTensor q;
        specinfer::tensor::quantizeRows(t, q);
        Tensor back = specinfer::tensor::dequantize(q);
        ASSERT_EQ(back.rows(), fake.rows());
        ASSERT_EQ(back.cols(), fake.cols());
        EXPECT_EQ(std::memcmp(back.data(), fake.data(),
                              fake.size() * sizeof(float)),
                  0)
            << "dequantized grid differs from fakeQuantizeRows at "
               "seed "
            << seed;
    }
}

TEST(Int8GemmTest, QuantizeHandlesZeroAndConstantRows)
{
    Tensor t(3, 16);
    t.fill(0.0f);
    for (size_t c = 0; c < 16; ++c)
        t.row(1)[c] = 2.5f; // constant row: every quant hits +127
    t.row(2)[0] = -1.0f;    // single spike
    QTensor q;
    specinfer::tensor::quantizeRows(t, q);
    EXPECT_EQ(q.scale(0), 0.0f);
    for (size_t c = 0; c < 16; ++c) {
        EXPECT_EQ(q.row(0)[c], 0);
        EXPECT_EQ(q.row(1)[c], 127);
    }
    EXPECT_EQ(q.row(2)[0], -127);
    for (size_t c = 1; c < 16; ++c)
        EXPECT_EQ(q.row(2)[c], 0);
    Tensor back = specinfer::tensor::dequantize(q);
    for (size_t c = 0; c < 16; ++c) {
        EXPECT_EQ(back.row(0)[c], 0.0f);
        EXPECT_EQ(back.row(1)[c], 2.5f);
    }
}

TEST(Int8GemmTest, GemmMatchesScalarInt32ReferenceOnOddShapes)
{
    // Odd shapes stress the 32-byte AVX2 unroll tail (k = 7, 13,
    // 33), the m = 1 matvec split, and n not a multiple of the
    // 32-row weight block. The expected value is the header's
    // scalar dotRowI8 with the kernels' one shared float scaling
    // expression — on an AVX2 host the kernel under test runs the
    // maddubs tile, so EXPECT_EQ here IS the dispatch bit-identity
    // proof.
    struct Shape { size_t m, k, n; };
    const Shape shapes[] = {{1, 7, 33},  {1, 64, 32}, {3, 13, 70},
                            {16, 7, 33}, {17, 64, 1}, {5, 1, 5},
                            {4, 33, 40}, {2, 100, 9}};
    for (const Shape &s : shapes) {
        Tensor a = randomTensor(s.m, s.k, 111 + s.m);
        Tensor b = randomTensor(s.n, s.k, 222 + s.n);
        QTensor qa, qb;
        specinfer::tensor::quantizeRows(a, qa);
        specinfer::tensor::quantizeRows(b, qb);
        Tensor out(s.m, s.n);
        specinfer::tensor::matmulTransposedB(qa, qb, out);
        for (size_t i = 0; i < s.m; ++i)
            for (size_t j = 0; j < s.n; ++j) {
                const int32_t acc = specinfer::tensor::dotRowI8(
                    qa.row(i), qb.row(j), s.k);
                const float want = static_cast<float>(acc) *
                                   (qa.scale(i) * qb.scale(j));
                EXPECT_EQ(out.row(i)[j], want)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n
                    << " at (" << i << ", " << j << ")";
            }
    }
}

TEST(Int8GemmTest, StridedIntoWritesRowsAndLeavesGapAlone)
{
    const size_t m = 4, k = 24, n = 10, stride = 17;
    Tensor a = randomTensor(m, k, 15);
    Tensor b = randomTensor(n, k, 16);
    QTensor qa, qb;
    specinfer::tensor::quantizeRows(a, qa);
    specinfer::tensor::quantizeRows(b, qb);
    std::vector<float> buf(m * stride, -7.5f);
    specinfer::tensor::matmulTransposedBInto(qa, qb, buf.data(),
                                             stride);
    Tensor dense(m, n);
    specinfer::tensor::matmulTransposedB(qa, qb, dense);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j)
            EXPECT_EQ(buf[i * stride + j], dense.row(i)[j]);
        for (size_t j = n; j < stride; ++j)
            EXPECT_EQ(buf[i * stride + j], -7.5f)
                << "gap column clobbered at (" << i << ", " << j
                << ")";
    }
}

TEST(Int8GemmTest, BitIdenticalAcrossThreadCounts)
{
    ThreadPool &pool = ThreadPool::global();
    const size_t restore = pool.threads();
    const size_t m = 19, k = 37, n = 71;
    Tensor a = randomTensor(m, k, 177);
    Tensor b = randomTensor(n, k, 178);
    QTensor qa, qb;
    specinfer::tensor::quantizeRows(a, qa);
    specinfer::tensor::quantizeRows(b, qb);

    pool.setThreads(1);
    // Quantization itself is row-parallel; re-run it per thread
    // count too so the whole int8 pipeline is covered.
    QTensor qa1;
    specinfer::tensor::quantizeRows(a, qa1);
    Tensor ref(m, n);
    specinfer::tensor::matmulTransposedB(qa1, qb, ref);

    for (size_t threads : {2u, 8u}) {
        pool.setThreads(threads);
        QTensor qat;
        specinfer::tensor::quantizeRows(a, qat);
        EXPECT_EQ(std::memcmp(qat.data(), qa1.data(), qat.size()), 0)
            << "quantizeRows differs at threads=" << threads;
        EXPECT_EQ(std::memcmp(qat.scales(), qa1.scales(),
                              m * sizeof(float)),
                  0)
            << "quantizeRows scales differ at threads=" << threads;
        Tensor out(m, n);
        specinfer::tensor::matmulTransposedB(qat, qb, out);
        EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                              m * n * sizeof(float)),
                  0)
            << "int8 matmulTransposedB differs at threads="
            << threads;
    }
    pool.setThreads(restore);
}

TEST(Int8GemmTest, RandomShapeSweepMatchesReference)
{
    // Seeded random-shape fuzz over the blocking/threshold space:
    // the full matrix, then a random (k0, k1, j0, j1) slice of the
    // same operands at 1, 2 and 4 threads (slices drawn from their
    // own stream, so the full-matrix shapes stay fixed).
    Rng rng(20240808);
    Rng slice_rng(20240809);
    specinfer::testing::SliceCoverage coverage;
    for (int trial = 0; trial < 40; ++trial) {
        const size_t m = 1 + rng.uniformInt(uint64_t{24});
        const size_t k = 1 + rng.uniformInt(uint64_t{96});
        const size_t n = 1 + rng.uniformInt(uint64_t{80});
        Tensor a = randomTensor(m, k, rng.next());
        Tensor b = randomTensor(n, k, rng.next());
        QTensor qa, qb;
        specinfer::tensor::quantizeRows(a, qa);
        specinfer::tensor::quantizeRows(b, qb);
        Tensor out(m, n);
        specinfer::tensor::matmulTransposedB(qa, qb, out);
        for (size_t i = 0; i < m; ++i)
            for (size_t j = 0; j < n; ++j) {
                const float want =
                    static_cast<float>(specinfer::tensor::dotRowI8(
                        qa.row(i), qb.row(j), k)) *
                    (qa.scale(i) * qb.scale(j));
                ASSERT_EQ(out.row(i)[j], want)
                    << "trial " << trial << " m=" << m << " k=" << k
                    << " n=" << n;
            }

        const specinfer::testing::GemmSlice sl =
            specinfer::testing::drawSlice(slice_rng, k, n, trial);
        coverage.add(sl);
        specinfer::testing::checkSliceAcrossThreads(
            m, sl,
            [&](float *buf, size_t stride) {
                specinfer::tensor::matmulTransposedBSlice(
                    qa, qb, sl.k0, sl.k1, sl.j0, sl.j1, buf, stride);
            },
            [&](size_t i, size_t j) {
                return static_cast<float>(specinfer::tensor::dotRowI8(
                           qa.row(i) + sl.k0, qb.row(j) + sl.k0,
                           sl.k1 - sl.k0)) *
                       (qa.scale(i) * qb.scale(j));
            });
    }
    coverage.expectAllHit();
}

} // namespace
