/**
 * @file
 * Shared sweep for the sliced transposed-B GEMMs (fp32 and int8):
 * draw (k0, k1, j0, j1) sub-ranges, run one slice call at 1, 2 and
 * 4 pool threads into a buffer wider than the slice, and check every
 * element against the caller's scalar reference and every gap column
 * for untouched sentinels.
 */

#ifndef SPECINFER_TESTS_TENSOR_GEMM_SLICE_CHECK_H
#define SPECINFER_TESTS_TENSOR_GEMM_SLICE_CHECK_H

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/threadpool.h"

namespace specinfer {
namespace testing {

/** Weight rows [j0, j1) x k-slice [k0, k1) of a GEMM. */
struct GemmSlice
{
    size_t k0, k1, j0, j1;
};

/**
 * A random slice of an [n x k] weight matrix: any k-slice (every
 * fourth trial an empty one, k0 == k1) and a non-empty j range.
 */
inline GemmSlice
drawSlice(util::Rng &rng, size_t k, size_t n, int trial)
{
    GemmSlice s;
    s.k0 = rng.uniformInt(uint64_t{k + 1});
    s.k1 = trial % 4 == 0
               ? s.k0
               : s.k0 + rng.uniformInt(uint64_t{k - s.k0 + 1});
    s.j0 = rng.uniformInt(uint64_t{n});
    s.j1 = s.j0 + 1 + rng.uniformInt(uint64_t{n - s.j0});
    return s;
}

/** How many of a sweep's slices hit each edge class. */
struct SliceCoverage
{
    size_t emptyK = 0;     ///< k0 == k1
    size_t lenNot8 = 0;    ///< k1 - k0 not a multiple of the 8 unroll
    size_t lenTail32 = 0;  ///< one or more 32-byte steps, then a tail
    size_t widthNot4 = 0;  ///< 4-row blocks, then a remainder row

    void add(const GemmSlice &s)
    {
        const size_t len = s.k1 - s.k0, width = s.j1 - s.j0;
        emptyK += len == 0;
        lenNot8 += len % 8 != 0;
        lenTail32 += len > 32 && len % 32 != 0;
        widthNot4 += width > 4 && width % 4 != 0;
    }

    void expectAllHit() const
    {
        EXPECT_GT(emptyK, 0u);
        EXPECT_GT(lenNot8, 0u);
        EXPECT_GT(lenTail32, 0u);
        EXPECT_GT(widthNot4, 0u);
    }
};

/**
 * Run gemm(out, out_stride) — one call of slice s over m activation
 * rows — at 1, 2 and 4 threads. Each element (i, j) for j in
 * [j0, j1) must bit-equal want(i, j); the three gap columns past the
 * slice width must keep their sentinel.
 */
template <typename Gemm, typename Want>
void
checkSliceAcrossThreads(size_t m, const GemmSlice &s, const Gemm &gemm,
                        const Want &want)
{
    util::ThreadPool &pool = util::ThreadPool::global();
    struct Restore
    {
        util::ThreadPool &pool;
        size_t threads;
        ~Restore() { pool.setThreads(threads); }
    } restore{pool, pool.threads()};
    const size_t width = s.j1 - s.j0, stride = width + 3;
    const float sentinel = -7.5f;
    for (size_t threads : {1u, 2u, 4u}) {
        pool.setThreads(threads);
        std::vector<float> buf(m * stride, sentinel);
        gemm(buf.data(), stride);
        for (size_t i = 0; i < m; ++i) {
            for (size_t j = s.j0; j < s.j1; ++j)
                ASSERT_EQ(buf[i * stride + (j - s.j0)], want(i, j))
                    << "threads=" << threads << " m=" << m << " k=["
                    << s.k0 << ", " << s.k1 << ") j=[" << s.j0 << ", "
                    << s.j1 << ") at (" << i << ", " << j << ")";
            for (size_t c = width; c < stride; ++c)
                ASSERT_EQ(buf[i * stride + c], sentinel)
                    << "gap column clobbered at threads=" << threads
                    << " (" << i << ", " << c << ")";
        }
    }
}

} // namespace testing
} // namespace specinfer

#endif // SPECINFER_TESTS_TENSOR_GEMM_SLICE_CHECK_H
