/** @file Kernel-dispatch equivalence (ctest label `kernel`): the
 *  scalar-tiled, AVX2, and thread-parallel GEMM flavors against the
 *  naive reference kernels (tests/reference), plus dispatch resolution
 *  and the bit-exactness contracts the dispatch layer promises
 *  (threaded GEMM invariant to worker count, the TN pair equal to two
 *  TN calls, row microkernels invariant to dispatch flavor and equal to
 *  the plain loops, AVX2 GEMM output pinned to a hash). */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include "gnn/tensor.hh"
#include "reference/reference.hh"
#include "sim/random.hh"
#include "sim/serialize.hh"

using namespace smartsage;
using gnn::KernelDispatch;
using gnn::Tensor2D;
namespace ref = smartsage::ref;

namespace
{

Tensor2D
randomTensor(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    sim::Rng rng(seed);
    return Tensor2D::uniform(rows, cols, 1.0f, rng);
}

/** Max |a - b| over all elements; FLT_MAX on shape mismatch. */
double
maxAbsDiff(const Tensor2D &a, const Tensor2D &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return 1e30;
    double worst = 0;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(
            worst, std::abs(double(a.data()[i]) - double(b.data()[i])));
    return worst;
}

bool
bitIdentical(const Tensor2D &a, const Tensor2D &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           a.data() == b.data();
}

/** Bitwise equality of two float buffers (NaN and -0 included). */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace

TEST(KernelDispatch, ResolutionNeverReportsAuto)
{
    // resolvedKernelDispatch never reports Auto, and only reports Avx2
    // on hardware that can actually run it.
    gnn::ScopedKernelDispatch guard(KernelDispatch::Auto);
    KernelDispatch resolved = gnn::resolvedKernelDispatch();
    EXPECT_NE(resolved, KernelDispatch::Auto);
    if (!gnn::cpuSupportsAvx2())
        EXPECT_EQ(resolved, KernelDispatch::Scalar);
}

TEST(KernelDispatch, ScalarTiledMatchesNaiveWithinTolerance)
{
    Tensor2D a = randomTensor(97, 33, 0xaa);  // A . B
    Tensor2D b = randomTensor(33, 41, 0xbb);
    Tensor2D c = randomTensor(33, 29, 0xcc);  // B^T . C (rows match)
    Tensor2D d = randomTensor(29, 33, 0xdd);  // A . D^T (cols match)

    const Tensor2D nn_naive = ref::matmulNaive(a, b);
    const Tensor2D tn_naive = ref::matmulTNNaive(b, c);
    const Tensor2D nt_naive = ref::matmulNTNaive(a, d);
    gnn::ScopedKernelDispatch scalar(KernelDispatch::Scalar);
    // The tiled kernels reassociate the k-loop, so equality is up to
    // float rounding, not bitwise.
    EXPECT_LT(maxAbsDiff(gnn::matmul(a, b), nn_naive), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulTN(b, c), tn_naive), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulNT(a, d), nt_naive), 1e-4);
}

TEST(KernelDispatch, Avx2MatchesScalarWithinTolerance)
{
    if (!gnn::cpuSupportsAvx2())
        GTEST_SKIP() << "host CPU has no AVX2+FMA";

    Tensor2D a = randomTensor(70, 48, 0x11);  // A . B
    Tensor2D b = randomTensor(48, 53, 0x22);
    Tensor2D c = randomTensor(48, 31, 0x33);  // B^T . C (rows match)
    Tensor2D d = randomTensor(53, 48, 0x44);  // A . D^T (cols match)

    Tensor2D nn_s, tn_s, nt_s;
    {
        gnn::ScopedKernelDispatch scalar(KernelDispatch::Scalar);
        nn_s = gnn::matmul(a, b);
        tn_s = gnn::matmulTN(b, c);
        nt_s = gnn::matmulNT(a, d);
    }
    gnn::ScopedKernelDispatch avx2(KernelDispatch::Avx2);
    EXPECT_LT(maxAbsDiff(gnn::matmul(a, b), nn_s), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulTN(b, c), tn_s), 1e-4);
    EXPECT_LT(maxAbsDiff(gnn::matmulNT(a, d), nt_s), 1e-4);
}

TEST(KernelDispatch, ThreadedGemmBitIdenticalAtAnyWorkerCount)
{
    // 300 rows spans several 64-row blocks, so 2 and 4 threads really
    // decompose the row space differently — yet per-row accumulation
    // order is fixed, so outputs must be bitwise equal. 301 rows also
    // leaves a one-row remainder after the 6-row AVX2 tiles.
    const KernelDispatch flavors[] = {KernelDispatch::Scalar,
                                      KernelDispatch::Avx2};
    for (std::size_t m : {300u, 301u}) {
        Tensor2D a = randomTensor(m, 64, 0x44);
        Tensor2D b = randomTensor(64, 32, 0x55);
        for (KernelDispatch flavor : flavors) {
            if (flavor == KernelDispatch::Avx2 && !gnn::cpuSupportsAvx2())
                continue;
            gnn::ScopedKernelDispatch guard(flavor);
            Tensor2D serial;
            {
                gnn::ScopedGemmThreads one(1);
                serial = gnn::matmul(a, b);
            }
            for (unsigned threads : {2u, 4u}) {
                gnn::ScopedGemmThreads many(threads);
                EXPECT_TRUE(bitIdentical(gnn::matmul(a, b), serial))
                    << gnn::kernelDispatchName(flavor) << " m=" << m
                    << " threads=" << threads;
            }
        }
    }
}

TEST(KernelDispatch, ConcurrentCallersWithDifferentThreadCounts)
{
    // Two callers alternate between 2 and 4 GEMM threads, so each keeps
    // asking for the pool the other just used. Every pool must outlive
    // the GEMMs running on it (the sanitizer CI leg checks the memory
    // side), and the results must stay bit-identical.
    Tensor2D a = randomTensor(300, 64, 0x45);
    Tensor2D b = randomTensor(64, 32, 0x56);
    gnn::ScopedGemmThreads restore(1);
    const Tensor2D serial = gnn::matmul(a, b);

    std::atomic<int> mismatches{0};
    auto caller = [&](unsigned first) {
        for (int iter = 0; iter < 40; ++iter) {
            gnn::ScopedGemmThreads threads(iter % 2 ? 6 - first : first);
            if (!bitIdentical(gnn::matmul(a, b), serial))
                ++mismatches;
        }
    };
    std::thread t2(caller, 2u), t4(caller, 4u);
    t2.join();
    t4.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(KernelDispatch, Avx2GemmBitsArePinned)
{
    // FNV-1a over matmulInto, matmulAccumulate and matmulTNInto outputs
    // on shapes that straddle the 6-row and 16/8-column register tiles,
    // the 64-wide k blocks and the TN r-panels. n stays a multiple of 8,
    // so only intrinsics run and the hash holds for any compiler and
    // build type. A kernel change that moves one output bit fails here.
    if (!gnn::cpuSupportsAvx2())
        GTEST_SKIP() << "host CPU has no AVX2+FMA";
    constexpr std::uint64_t kPinned = 0x58c6131ea90841e0ULL;

    gnn::ScopedKernelDispatch avx2(KernelDispatch::Avx2);
    for (unsigned threads : {1u, 4u}) {
        gnn::ScopedGemmThreads scope(threads);
        std::vector<float> out;
        for (std::size_t m : {1, 5, 6, 7, 13, 65, 130}) {
            for (std::size_t k : {1, 3, 4, 5, 63, 64, 65, 129, 602}) {
                for (std::size_t n : {8, 16, 24, 40, 64, 72}) {
                    const std::uint64_t seed = m * 1000003 + k * 1009 + n;
                    Tensor2D a = randomTensor(m, k, seed);
                    Tensor2D b = randomTensor(k, n, seed + 1);
                    Tensor2D c;
                    gnn::matmulInto(a, b, c);
                    out.insert(out.end(), c.data().begin(),
                               c.data().end());
                    Tensor2D acc = randomTensor(m, n, seed + 2);
                    gnn::matmulAccumulate(a, b, acc);
                    out.insert(out.end(), acc.data().begin(),
                               acc.data().end());
                    gnn::matmulTNInto(randomTensor(k, m, seed + 3), b, c);
                    out.insert(out.end(), c.data().begin(),
                               c.data().end());
                }
            }
        }
        const std::uint64_t hash =
            sim::fnv1a64(out.data(), out.size() * sizeof(float));
        EXPECT_EQ(sim::hashHex(hash), sim::hashHex(kPinned))
            << "threads=" << threads;
    }
}

TEST(KernelDispatch, NarrowTNColumnSplitBitIdenticalAtAnyThreadCount)
{
    // C of at most 64 rows runs over 16-column strips on several
    // threads and as one call on one. m = 65 is the first row-split
    // shape; n = 41 and 130 leave scalar tail columns in the last
    // strip, n = 24 an 8-column one; r = 6001 spans many TN r-panels.
    for (KernelDispatch flavor :
         {KernelDispatch::Scalar, KernelDispatch::Avx2}) {
        if (flavor == KernelDispatch::Avx2 && !gnn::cpuSupportsAvx2())
            continue;
        gnn::ScopedKernelDispatch guard(flavor);
        for (std::size_t m : {1, 8, 32, 33, 64, 65}) {
            for (std::size_t n : {8, 16, 24, 41, 64, 130}) {
                for (std::size_t r : {1, 65, 6001}) {
                    const std::uint64_t seed = m * 7919 + n * 131 + r;
                    const Tensor2D a = randomTensor(r, m, seed);
                    const Tensor2D b = randomTensor(r, n, seed + 1);
                    Tensor2D serial;
                    {
                        gnn::ScopedGemmThreads one(1);
                        gnn::matmulTNInto(a, b, serial);
                    }
                    gnn::ScopedGemmThreads four(4);
                    Tensor2D split;
                    gnn::matmulTNInto(a, b, split);
                    EXPECT_TRUE(bitIdentical(split, serial))
                        << gnn::kernelDispatchName(flavor) << " m=" << m
                        << " n=" << n << " r=" << r;
                }
            }
        }
    }
}

TEST(KernelDispatch, TNPairMatchesTwoTNCallsAtAnyThreadCount)
{
    // The wide TN GEMMs split C's rows by the thread count, so 3
    // threads cut 602 rows into 204-row blocks and 603 leaves a one-row
    // strip; m = 65 is the first width they split at all. A second
    // product of 37 rows is the narrow one riding along a wide one's
    // cut. n = 19 leaves scalar tail columns; r crosses the 64-row
    // panels of the reduction. matmulTNInto alone is held to the same
    // one-thread bits.
    for (KernelDispatch flavor :
         {KernelDispatch::Scalar, KernelDispatch::Avx2}) {
        if (flavor == KernelDispatch::Avx2 && !gnn::cpuSupportsAvx2())
            continue;
        gnn::ScopedKernelDispatch guard(flavor);
        for (std::size_t m : {65, 130, 602, 603}) {
            for (std::size_t m2 : {m, std::size_t{37}}) {
                for (std::size_t n : {8, 16, 19, 64}) {
                    for (std::size_t r : {1, 63, 64, 65, 700}) {
                        const std::uint64_t seed =
                            m * 7919 + m2 * 17 + n * 131 + r;
                        const Tensor2D a1 = randomTensor(r, m, seed);
                        const Tensor2D a2 = randomTensor(r, m2, seed + 1);
                        const Tensor2D b = randomTensor(r, n, seed + 2);
                        Tensor2D want1, want2;
                        {
                            gnn::ScopedGemmThreads one(1);
                            gnn::matmulTNInto(a1, b, want1);
                            gnn::matmulTNInto(a2, b, want2);
                        }
                        for (unsigned threads : {1u, 2u, 3u, 4u}) {
                            gnn::ScopedGemmThreads scope(threads);
                            Tensor2D c1, c2, single;
                            gnn::matmulTNPairInto(a1, a2, b, c1, c2);
                            gnn::matmulTNInto(a1, b, single);
                            EXPECT_TRUE(bitIdentical(c1, want1) &&
                                        bitIdentical(c2, want2) &&
                                        bitIdentical(single, want1))
                                << gnn::kernelDispatchName(flavor)
                                << " m=" << m << " m2=" << m2
                                << " n=" << n << " r=" << r
                                << " threads=" << threads;
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelDispatch, RowMicrokernelsBitIdenticalAcrossFlavors)
{
    // rowAccumulate and rowMean use add/mul only (no FMA), so every
    // flavor must match the plain loops bit-for-bit, and so each other:
    // aggregation results cannot depend on the host CPU. The dims cross
    // rowMean's 64- and 8-column chunks and its scalar tail; the
    // degrees cover the zero and copy cases, and 25 edges over 12 rows
    // repeat sources.
    std::vector<KernelDispatch> flavors = {KernelDispatch::Scalar};
    if (gnn::cpuSupportsAvx2())
        flavors.push_back(KernelDispatch::Avx2);
    constexpr std::size_t kRows = 12;
    for (std::size_t n : {1, 7, 8, 9, 63, 64, 65, 77, 130, 602}) {
        const Tensor2D rows = randomTensor(kRows, n, 0x66 + n);
        const float *row0 = rows.row(0).data();
        for (std::size_t deg : {0, 1, 2, 3, 10, 25}) {
            sim::Rng rng(deg * 31 + n);
            std::vector<std::uint32_t> index(deg);
            for (std::uint32_t &i : index)
                i = static_cast<std::uint32_t>(rng.next() % kRows);
            if (deg >= 3)
                index[2] = index[0]; // a repeat inside the middles
            std::vector<float> want(n);
            ref::rowMeanEdgeByEdge(want.data(), row0, index.data(), deg, n);
            std::vector<std::vector<float>> got;
            for (KernelDispatch flavor : flavors) {
                gnn::ScopedKernelDispatch guard(flavor);
                // NaN fill: rowMean must write every element.
                std::vector<float> dst(n, std::nanf(""));
                gnn::rowMean(dst.data(), row0, index.data(), deg, n);
                EXPECT_TRUE(sameBits(dst, want))
                    << gnn::kernelDispatchName(flavor) << " n=" << n
                    << " deg=" << deg;
                got.push_back(std::move(dst));
            }
            EXPECT_TRUE(sameBits(got.front(), got.back()))
                << "scalar vs avx2 n=" << n << " deg=" << deg;
        }

        const Tensor2D init = randomTensor(1, n, 0x77 + n);
        std::vector<float> want(init.data().begin(), init.data().end());
        for (std::size_t j = 0; j < n; ++j)
            want[j] += row0[j];
        for (KernelDispatch flavor : flavors) {
            gnn::ScopedKernelDispatch guard(flavor);
            std::vector<float> acc(init.data().begin(), init.data().end());
            gnn::rowAccumulate(acc.data(), row0, n);
            EXPECT_TRUE(sameBits(acc, want))
                << gnn::kernelDispatchName(flavor) << " n=" << n;
        }
    }
}
