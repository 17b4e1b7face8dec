#include "tensor.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "sim/logging.hh"
#include "sim/thread_pool.hh"

// The AVX2 microkernels are compiled with a per-function target
// attribute, so they exist in every x86 build regardless of -march and
// are gated purely by the cpuid probe at dispatch time.
#if defined(__x86_64__) || defined(__i386__)
#define SMARTSAGE_X86_KERNELS 1
#include <immintrin.h>
#else
#define SMARTSAGE_X86_KERNELS 0
#endif

namespace smartsage::gnn
{

namespace
{

std::atomic<KernelDispatch> g_kernel_dispatch{KernelDispatch::Auto};
std::atomic<unsigned> g_gemm_threads{
    std::max(1u, std::thread::hardware_concurrency())};

/**
 * The kernel pool behind parallelRows(), one per thread count: the
 * caller of sim::parallelFor works too, so @p threads > 1 threads are
 * the caller plus threads - 1 workers. Each pool is built on first use
 * and lives until exit, so a caller still running on one pool is never
 * freed under it by another caller that asks for a different count.
 */
sim::ThreadPool *
gemmPool(unsigned threads)
{
    static std::mutex mutex;
    static std::map<unsigned, std::unique_ptr<sim::ThreadPool>> pools;
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<sim::ThreadPool> &pool = pools[threads];
    if (!pool)
        pool = std::make_unique<sim::ThreadPool>(threads - 1);
    return pool.get();
}

} // namespace

bool
cpuSupportsAvx2()
{
#if SMARTSAGE_X86_KERNELS && (defined(__GNUC__) || defined(__clang__))
    // FMA ships with every AVX2 core we care about, but probe both:
    // the microkernels use fused multiply-add.
    static const bool supported = __builtin_cpu_supports("avx2") &&
                                  __builtin_cpu_supports("fma");
    return supported;
#else
    return false;
#endif
}

void
setKernelDispatch(KernelDispatch dispatch)
{
    g_kernel_dispatch.store(dispatch, std::memory_order_relaxed);
}

KernelDispatch
kernelDispatch()
{
    return g_kernel_dispatch.load(std::memory_order_relaxed);
}

KernelDispatch
resolvedKernelDispatch()
{
    KernelDispatch d = kernelDispatch();
    if (d == KernelDispatch::Scalar)
        return d;
    return cpuSupportsAvx2() ? KernelDispatch::Avx2
                             : KernelDispatch::Scalar;
}

const char *
kernelDispatchName(KernelDispatch dispatch)
{
    switch (dispatch) {
    case KernelDispatch::Auto:
        return "auto";
    case KernelDispatch::Scalar:
        return "scalar";
    case KernelDispatch::Avx2:
        return "avx2";
    }
    return "?";
}

void
setGemmThreads(unsigned threads)
{
    g_gemm_threads.store(threads < 1 ? 1 : threads,
                         std::memory_order_relaxed);
}

unsigned
gemmThreads()
{
    return g_gemm_threads.load(std::memory_order_relaxed);
}

void
parallelRows(std::size_t rows,
             const std::function<void(std::size_t, std::size_t)> &fn)
{
    const unsigned threads = gemmThreads();
    if (threads <= 1 || rows <= kRowBlock) {
        fn(0, rows);
        return;
    }
    const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
    sim::parallelFor(gemmPool(threads), blocks, [&](std::size_t blk) {
        const std::size_t r0 = blk * kRowBlock;
        fn(r0, std::min(r0 + kRowBlock, rows));
    });
}

Tensor2D::Tensor2D(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Tensor2D
Tensor2D::uniform(std::size_t rows, std::size_t cols, float scale,
                  sim::Rng &rng)
{
    Tensor2D t(rows, cols);
    for (auto &v : t.data_)
        v = static_cast<float>((rng.nextDouble() * 2.0 - 1.0) * scale);
    return t;
}

Tensor2D &
Tensor2D::operator+=(const Tensor2D &other)
{
    SS_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "shape mismatch in +=");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Tensor2D &
Tensor2D::operator*=(float s)
{
    for (auto &v : data_)
        v *= s;
    return *this;
}

void
Tensor2D::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0f);
}

double
Tensor2D::normSq() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += static_cast<double>(v) * v;
    return acc;
}

void
Tensor2D::saveState(sim::ByteWriter &writer) const
{
    writer.u64(rows_);
    writer.u64(cols_);
    for (float v : data_)
        writer.f32(v);
}

void
Tensor2D::loadState(sim::ByteReader &reader)
{
    const std::uint64_t rows = reader.u64();
    const std::uint64_t cols = reader.u64();
    rows_ = static_cast<std::size_t>(rows);
    cols_ = static_cast<std::size_t>(cols);
    data_.resize(rows_ * cols_);
    for (float &v : data_)
        v = reader.f32();
}

namespace
{

// Cache-blocked kernels. Blocks are sized so one B panel (KB x JB
// floats = 32 KiB) stays L1-resident across the whole i sweep, and the
// 4-way k unroll keeps four accumulator streams per C row in registers,
// which is what lets GCC vectorize the j loop into FMAs.
constexpr std::size_t kKB = 64;  //!< reduction-dim block
constexpr std::size_t kJB = 128; //!< output-column block

/**
 * Scalar NN microkernel over rows [i0, i1) of C. Per-row accumulation
 * order (kk outer, then jj, then the 4-way k unroll) is independent of
 * the row range, so any row-block decomposition of [0, m) produces
 * output bit-identical to a single full-range call.
 */
void
matmulScalarRows(const float *adata, const float *bdata, float *cdata,
                 std::size_t i0, std::size_t i1, std::size_t kdim,
                 std::size_t n)
{
    for (std::size_t kk = 0; kk < kdim; kk += kKB) {
        const std::size_t kb = std::min(kKB, kdim - kk);
        for (std::size_t jj = 0; jj < n; jj += kJB) {
            const std::size_t jb = std::min(kJB, n - jj);
            for (std::size_t i = i0; i < i1; ++i) {
                const float *arow = adata + i * kdim + kk;
                float *crow = cdata + i * n + jj;
                std::size_t k = 0;
                for (; k + 4 <= kb; k += 4) {
                    const float a0 = arow[k], a1 = arow[k + 1];
                    const float a2 = arow[k + 2], a3 = arow[k + 3];
                    const float *b0 = bdata + (kk + k) * n + jj;
                    const float *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n;
                    for (std::size_t j = 0; j < jb; ++j)
                        crow[j] += a0 * b0[j] + a1 * b1[j] +
                                   a2 * b2[j] + a3 * b3[j];
                }
                for (; k < kb; ++k) {
                    const float a0 = arow[k];
                    const float *b0 = bdata + (kk + k) * n + jj;
                    for (std::size_t j = 0; j < jb; ++j)
                        crow[j] += a0 * b0[j];
                }
            }
        }
    }
}

#if SMARTSAGE_X86_KERNELS

// Register-blocked AVX2+FMA GEMM. One tile is kMR rows x 16 columns of
// C held in 12 ymm accumulators across a whole reduction slice, fed by
// two B loads and kMR A broadcasts per reduction step. Every C element
// is still one _mm256_fmadd_ps chain in reduction order, so the tile
// shape and the row range a call covers never change an output bit.
// The kernels read A through two strides — A(i, k) = a[i * rs + k * ks]
// — so NN (rs = lda, ks = 1) and TN (rs = 1, ks = lda) share the tiles.

constexpr std::size_t kMR = 6;  //!< tile rows
constexpr std::size_t kRB = 64; //!< TN reduction panel (multiple of 4)

/** C[MR x 8*NV] += A[MR x kb] . B[kb x 8*NV], C kept in registers. */
template <std::size_t MR, std::size_t NV>
__attribute__((target("avx2,fma"))) inline void
gemmTileAvx2(const float *a, std::size_t rs, std::size_t ks,
             const float *b, std::size_t ldb, float *c, std::size_t ldc,
             std::size_t kb)
{
    // The pragmas unroll early enough for the accumulator array to be
    // promoted to registers; without them GCC stores it every step.
    __m256 acc[MR][NV];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < MR; ++r)
#pragma GCC unroll 2
        for (std::size_t v = 0; v < NV; ++v)
            acc[r][v] = _mm256_loadu_ps(c + r * ldc + 8 * v);
    for (std::size_t k = 0; k < kb; ++k) {
        __m256 bv[NV];
#pragma GCC unroll 2
        for (std::size_t v = 0; v < NV; ++v)
            bv[v] = _mm256_loadu_ps(b + k * ldb + 8 * v);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < MR; ++r) {
            const __m256 ar = _mm256_broadcast_ss(a + r * rs + k * ks);
#pragma GCC unroll 2
            for (std::size_t v = 0; v < NV; ++v)
                acc[r][v] = _mm256_fmadd_ps(ar, bv[v], acc[r][v]);
        }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < MR; ++r)
#pragma GCC unroll 2
        for (std::size_t v = 0; v < NV; ++v)
            _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
}

/** One MR-row strip: 16-column tiles, then an 8-column strip. */
template <std::size_t MR>
__attribute__((target("avx2,fma"))) void
gemmStripAvx2(const float *a, std::size_t rs, std::size_t ks,
              const float *b, std::size_t ldb, float *c, std::size_t ldc,
              std::size_t kb, std::size_t nv)
{
    std::size_t j = 0;
    for (; j + 16 <= nv; j += 16)
        gemmTileAvx2<MR, 2>(a, rs, ks, b + j, ldb, c + j, ldc, kb);
    if (j < nv)
        gemmTileAvx2<MR, 1>(a, rs, ks, b + j, ldb, c + j, ldc, kb);
}

/** C[rows x nv] += A . B over a kb-long reduction slice; nv % 8 == 0.
 *  Rows go kMR at a time, then one 1-5-row remainder strip. */
__attribute__((target("avx2,fma"))) void
gemmTilesAvx2(const float *a, std::size_t rs, std::size_t ks,
              const float *b, std::size_t ldb, float *c, std::size_t ldc,
              std::size_t rows, std::size_t kb, std::size_t nv)
{
    std::size_t i = 0;
    for (; i + kMR <= rows; i += kMR)
        gemmStripAvx2<kMR>(a + i * rs, rs, ks, b, ldb, c + i * ldc, ldc,
                           kb, nv);
    a += i * rs;
    c += i * ldc;
    switch (rows - i) {
    case 5:
        gemmStripAvx2<5>(a, rs, ks, b, ldb, c, ldc, kb, nv);
        break;
    case 4:
        gemmStripAvx2<4>(a, rs, ks, b, ldb, c, ldc, kb, nv);
        break;
    case 3:
        gemmStripAvx2<3>(a, rs, ks, b, ldb, c, ldc, kb, nv);
        break;
    case 2:
        gemmStripAvx2<2>(a, rs, ks, b, ldb, c, ldc, kb, nv);
        break;
    case 1:
        gemmStripAvx2<1>(a, rs, ks, b, ldb, c, ldc, kb, nv);
        break;
    default:
        break;
    }
}

/**
 * Columns [j0, j1) of C, the ones past the last multiple of 8, over a
 * kb-long reduction slice. They keep the scalar expression of the
 * untiled loops — four reduction steps per statement, in groups that
 * start at the slice start — so they round exactly as before.
 */
__attribute__((target("avx2,fma"))) void
gemmTailAvx2(const float *a, std::size_t rs, std::size_t ks,
             const float *b, std::size_t ldb, float *c, std::size_t ldc,
             std::size_t rows, std::size_t kb, std::size_t j0,
             std::size_t j1)
{
    if (j0 == j1)
        return;
    for (std::size_t i = 0; i < rows; ++i) {
        const float *ai = a + i * rs;
        float *crow = c + i * ldc;
        std::size_t k = 0;
        for (; k + 4 <= kb; k += 4) {
            const float a0 = ai[k * ks], a1 = ai[(k + 1) * ks];
            const float a2 = ai[(k + 2) * ks], a3 = ai[(k + 3) * ks];
            const float *b0 = b + k * ldb;
            const float *b1 = b0 + ldb, *b2 = b1 + ldb, *b3 = b2 + ldb;
            for (std::size_t j = j0; j < j1; ++j)
                crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] +
                           a3 * b3[j];
        }
        for (; k < kb; ++k) {
            const float a0 = ai[k * ks];
            const float *b0 = b + k * ldb;
            for (std::size_t j = j0; j < j1; ++j)
                crow[j] += a0 * b0[j];
        }
    }
}

/**
 * AVX2+FMA NN kernel, same kKB/kJB blocking and row-range contract as
 * matmulScalarRows. It walks C one kMR-row strip at a time, so the
 * strip stays in L1 across every k block while B streams from L2. The
 * fused multiply-adds mean outputs match the scalar kernel to
 * tolerance, not bitwise (still bit-identical across row-block
 * decompositions of itself).
 */
__attribute__((target("avx2,fma"))) void
matmulAvx2Rows(const float *adata, const float *bdata, float *cdata,
               std::size_t i0, std::size_t i1, std::size_t kdim,
               std::size_t n)
{
    for (std::size_t is = i0; is < i1; is += kMR) {
        const std::size_t rows = std::min(kMR, i1 - is);
        for (std::size_t kk = 0; kk < kdim; kk += kKB) {
            const std::size_t kb = std::min(kKB, kdim - kk);
            for (std::size_t jj = 0; jj < n; jj += kJB) {
                const std::size_t jb = std::min(kJB, n - jj);
                const std::size_t jv = jb - jb % 8;
                const float *a = adata + is * kdim + kk;
                const float *b = bdata + kk * n + jj;
                float *c = cdata + is * n + jj;
                gemmTilesAvx2(a, kdim, 1, b, n, c, n, rows, kb, jv);
                gemmTailAvx2(a, kdim, 1, b, n, c, n, rows, kb, jv, jb);
            }
        }
    }
}

#endif // SMARTSAGE_X86_KERNELS

using GemmRowsFn = void (*)(const float *, const float *, float *,
                            std::size_t, std::size_t, std::size_t,
                            std::size_t);

/** Run @p fn over C's rows on parallelRows(). Each block writes a
 *  disjoint row slice, so no reduction across threads exists and the
 *  result equals the serial call bit-for-bit. */
void
runGemmRows(GemmRowsFn fn, const Tensor2D &a, const Tensor2D &b,
            Tensor2D &c)
{
    const std::size_t kdim = a.cols(), n = b.cols();
    const float *adata = a.data().data();
    const float *bdata = b.data().data();
    float *cdata = c.data().data();
    parallelRows(a.rows(), [&](std::size_t i0, std::size_t i1) {
        fn(adata, bdata, cdata, i0, i1, kdim, n);
    });
}

/**
 * Scalar TN kernel over the block rows [i0, i1) x columns [j0, j1) of
 * C (rows of C are columns of A): C[i][j] = sum_r A[r][i] * B[r][j], r
 * the reduction dim. Rows of B are processed four at a time so the
 * panel stays cached across the sweep of A's columns. Each C element
 * is one in-order chain over r whatever the block, so any
 * decomposition of C into row blocks, or into column strips that start
 * on multiples of 8, is bit-identical to a single full-range call.
 */
void
matmulTNScalarBlock(const float *adata, const float *bdata, float *cdata,
                    std::size_t i0, std::size_t i1, std::size_t j0,
                    std::size_t j1, std::size_t rdim, std::size_t m,
                    std::size_t n)
{
    std::size_t r = 0;
    for (; r + 4 <= rdim; r += 4) {
        const float *a0 = adata + r * m;
        const float *a1 = a0 + m, *a2 = a1 + m, *a3 = a2 + m;
        const float *b0 = bdata + r * n;
        const float *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n;
        for (std::size_t i = i0; i < i1; ++i) {
            const float w0 = a0[i], w1 = a1[i], w2 = a2[i], w3 = a3[i];
            float *crow = cdata + i * n;
            for (std::size_t j = j0; j < j1; ++j)
                crow[j] += w0 * b0[j] + w1 * b1[j] + w2 * b2[j] +
                           w3 * b3[j];
        }
    }
    for (; r < rdim; ++r) {
        const float *arow = adata + r * m;
        const float *brow = bdata + r * n;
        for (std::size_t i = i0; i < i1; ++i) {
            const float w = arow[i];
            float *crow = cdata + i * n;
            for (std::size_t j = j0; j < j1; ++j)
                crow[j] += w * brow[j];
        }
    }
}

#if SMARTSAGE_X86_KERNELS

/**
 * AVX2+FMA variant of matmulTNScalarBlock on the register tiles, same
 * block contract, blocked over r in kRB-row panels so the A panel
 * stays cached across the sweep of C. kRB is a multiple of 4, so the
 * tail columns' 4-row groups fall where the unblocked loop put them.
 * @pre j0 is a multiple of 8 or the first tail column
 */
__attribute__((target("avx2,fma"))) void
matmulTNAvx2Block(const float *adata, const float *bdata, float *cdata,
                  std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1, std::size_t rdim, std::size_t m,
                  std::size_t n)
{
    const std::size_t jv = std::min(j1, n - n % 8); // end of the tiles
    float *c = cdata + i0 * n;
    for (std::size_t r0 = 0; r0 < rdim; r0 += kRB) {
        const std::size_t rb = std::min(kRB, rdim - r0);
        const float *ap = adata + r0 * m + i0;
        const float *bp = bdata + r0 * n;
        gemmTilesAvx2(ap, 1, m, bp + j0, n, c + j0, n, i1 - i0, rb,
                      jv - j0);
        gemmTailAvx2(ap, 1, m, bp, n, c, n, i1 - i0, rb, jv, j1);
    }
}

#endif // SMARTSAGE_X86_KERNELS

void
matmulNTTiled(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    // C[i][j] = dot(A row i, B row j). The reduction is split into
    // eight explicit partial-sum lanes so the compiler can map them to
    // vector registers without needing permission to reassociate a
    // single serial chain (no fast-math: NaN/Inf still propagate).
    constexpr std::size_t kLanes = 8;
    const std::size_t m = a.rows(), n = b.rows(), kdim = a.cols();
    const float *adata = a.data().data();
    const float *bdata = b.data().data();
    float *cdata = c.data().data();

    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = adata + i * kdim;
        float *crow = cdata + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = bdata + j * kdim;
            float lane[kLanes] = {};
            std::size_t k = 0;
            for (; k + kLanes <= kdim; k += kLanes)
                for (std::size_t l = 0; l < kLanes; ++l)
                    lane[l] += arow[k + l] * brow[k + l];
            float acc = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                        ((lane[4] + lane[5]) + (lane[6] + lane[7]));
            for (; k < kdim; ++k)
                acc += arow[k] * brow[k];
            crow[j] = acc;
        }
    }
}

#if SMARTSAGE_X86_KERNELS

/** AVX2+FMA variant of matmulNTTiled: two 8-lane FMA accumulators per
 *  dot product, combined in a fixed order before the scalar tail. */
__attribute__((target("avx2,fma"))) void
matmulNTAvx2(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    const std::size_t m = a.rows(), n = b.rows(), kdim = a.cols();
    const float *adata = a.data().data();
    const float *bdata = b.data().data();
    float *cdata = c.data().data();

    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = adata + i * kdim;
        float *crow = cdata + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = bdata + j * kdim;
            __m256 v0 = _mm256_setzero_ps();
            __m256 v1 = _mm256_setzero_ps();
            std::size_t k = 0;
            for (; k + 16 <= kdim; k += 16) {
                v0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + k),
                                     _mm256_loadu_ps(brow + k), v0);
                v1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + k + 8),
                                     _mm256_loadu_ps(brow + k + 8), v1);
            }
            for (; k + 8 <= kdim; k += 8)
                v0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + k),
                                     _mm256_loadu_ps(brow + k), v0);
            const __m256 v = _mm256_add_ps(v0, v1);
            __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                                  _mm256_extractf128_ps(v, 1));
            s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            float acc = _mm_cvtss_f32(s);
            for (; k < kdim; ++k)
                acc += arow[k] * brow[k];
            crow[j] = acc;
        }
    }
}

#endif // SMARTSAGE_X86_KERNELS

} // namespace

Tensor2D
matmul(const Tensor2D &a, const Tensor2D &b)
{
    Tensor2D c;
    matmulInto(a, b, c);
    return c;
}

Tensor2D
matmulTN(const Tensor2D &a, const Tensor2D &b)
{
    Tensor2D c;
    matmulTNInto(a, b, c);
    return c;
}

Tensor2D
matmulNT(const Tensor2D &a, const Tensor2D &b)
{
    Tensor2D c;
    matmulNTInto(a, b, c);
    return c;
}

void
matmulInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.cols() == b.rows(), "matmul shape mismatch: ", a.cols(),
              " vs ", b.rows());
    c.resizeToZero(a.rows(), b.cols());
    matmulAccumulate(a, b, c);
}

void
matmulAccumulate(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.cols() == b.rows() && c.rows() == a.rows() &&
                  c.cols() == b.cols(),
              "matmulAccumulate shape mismatch");
#if SMARTSAGE_X86_KERNELS
    if (resolvedKernelDispatch() == KernelDispatch::Avx2) {
        runGemmRows(matmulAvx2Rows, a, b, c);
        return;
    }
#endif
    runGemmRows(matmulScalarRows, a, b, c);
}

void
matmulTNInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.rows() == b.rows(), "matmulTN shape mismatch");
    c.resizeToZero(a.cols(), b.cols());
    auto kernel = matmulTNScalarBlock;
#if SMARTSAGE_X86_KERNELS
    if (resolvedKernelDispatch() == KernelDispatch::Avx2)
        kernel = matmulTNAvx2Block;
#endif
    // Every element keeps its one in-order reduction chain over r, so
    // neither split below changes a bit.
    const std::size_t rdim = a.rows(), m = a.cols(), n = b.cols();
    const float *adata = a.data().data();
    const float *bdata = b.data().data();
    float *cdata = c.data().data();
    // A C of at most one row block would run on one thread: split it
    // over 16-column strips instead. Strips start on multiples of 8, so
    // the AVX2 tiles cover the same columns, and the tail columns past
    // the last multiple of 8 stay with the last strip.
    const std::size_t strips = std::max<std::size_t>(1, (n / 8 + 1) / 2);
    const unsigned threads = gemmThreads();
    if (m <= kRowBlock && strips > 1 && threads > 1) {
        sim::parallelFor(gemmPool(threads), strips, [&](std::size_t s) {
            const std::size_t j0 = s * 16;
            const std::size_t j1 = s + 1 == strips ? n : j0 + 16;
            kernel(adata, bdata, cdata, 0, m, j0, j1, rdim, m, n);
        });
        return;
    }
    parallelRows(m, [&](std::size_t i0, std::size_t i1) {
        kernel(adata, bdata, cdata, i0, i1, 0, n, rdim, m, n);
    });
}

void
matmulNTInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.cols() == b.cols(), "matmulNT shape mismatch");
    // Both NT kernels overwrite every output element: reshape only.
    c.resizeTo(a.rows(), b.rows());
#if SMARTSAGE_X86_KERNELS
    if (resolvedKernelDispatch() == KernelDispatch::Avx2) {
        matmulNTAvx2(a, b, c);
        return;
    }
#endif
    matmulNTTiled(a, b, c);
}

namespace
{

#if SMARTSAGE_X86_KERNELS

// AVX2 row microkernels use plain add/mul (no FMA, no reassociation),
// so they are bit-identical to the scalar loops element-for-element.

__attribute__((target("avx2"))) void
rowAccumulateAvx2(float *dst, const float *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j,
                         _mm256_add_ps(_mm256_loadu_ps(dst + j),
                                       _mm256_loadu_ps(src + j)));
    for (; j < n; ++j)
        dst[j] += src[j];
}

__attribute__((target("avx2"))) void
rowAccumulateScaleAvx2(float *dst, const float *src, float scale,
                       std::size_t n)
{
    const __m256 s = _mm256_set1_ps(scale);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(
            dst + j,
            _mm256_mul_ps(_mm256_add_ps(_mm256_loadu_ps(dst + j),
                                        _mm256_loadu_ps(src + j)),
                          s));
    for (; j < n; ++j)
        dst[j] = (dst[j] + src[j]) * scale;
}

#endif // SMARTSAGE_X86_KERNELS

} // namespace

void
rowAccumulate(float *dst, const float *src, std::size_t n)
{
#if SMARTSAGE_X86_KERNELS
    if (resolvedKernelDispatch() == KernelDispatch::Avx2) {
        rowAccumulateAvx2(dst, src, n);
        return;
    }
#endif
    for (std::size_t j = 0; j < n; ++j)
        dst[j] += src[j];
}

void
rowAccumulateScale(float *dst, const float *src, float scale,
                   std::size_t n)
{
#if SMARTSAGE_X86_KERNELS
    if (resolvedKernelDispatch() == KernelDispatch::Avx2) {
        rowAccumulateScaleAvx2(dst, src, scale, n);
        return;
    }
#endif
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = (dst[j] + src[j]) * scale;
}

namespace
{

// The ReLU loops are branch-free over restrict-qualified pointers: a
// data-dependent branch would mispredict on about half of the
// elements, and a char store that may alias the floats would keep the
// compiler from vectorizing. Only values > 0 are kept: NaN, -0 and +0
// all become +0 with mask 0.

/** x[i] += bias[i], then the ReLU, for i in [0, n); mask[i] = kept. */
void
biasReluSpan(float *__restrict x, const float *__restrict bias,
             char *__restrict mask, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float v = x[i] + bias[i];
        const bool keep = v > 0.0f;
        mask[i] = keep;
        x[i] = keep ? v : 0.0f;
    }
}

void
reluSpan(float *__restrict x, char *__restrict mask, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float v = x[i];
        const bool keep = v > 0.0f;
        mask[i] = keep;
        x[i] = keep ? v : 0.0f;
    }
}

void
reluMaskSpan(float *__restrict grad, const char *__restrict mask,
             std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        grad[i] = mask[i] ? grad[i] : 0.0f;
}

} // namespace

std::vector<char>
reluForward(Tensor2D &x)
{
    std::vector<char> mask;
    reluForwardInto(x, mask);
    return mask;
}

void
reluForwardInto(Tensor2D &x, std::vector<char> &mask)
{
    mask.resize(x.rows() * x.cols());
    reluSpan(x.data().data(), mask.data(), mask.size());
}

void
addBiasReluInto(Tensor2D &x, const Tensor2D &bias,
                std::vector<char> &mask)
{
    SS_ASSERT(bias.rows() == 1 && bias.cols() == x.cols(),
              "bias shape mismatch");
    const std::size_t cols = x.cols();
    mask.resize(x.rows() * cols);
    float *data = x.data().data();
    const float *b = bias.data().data();
    char *m = mask.data();
    parallelRows(x.rows(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r)
            biasReluSpan(data + r * cols, b, m + r * cols, cols);
    });
}

void
reluBackward(Tensor2D &grad, const std::vector<char> &mask)
{
    auto &d = grad.data();
    SS_ASSERT(d.size() == mask.size(), "relu mask size mismatch");
    reluMaskSpan(d.data(), mask.data(), d.size());
}

void
addBias(Tensor2D &x, const Tensor2D &bias)
{
    SS_ASSERT(bias.rows() == 1 && bias.cols() == x.cols(),
              "bias shape mismatch");
    for (std::size_t i = 0; i < x.rows(); ++i) {
        auto row = x.row(i);
        auto b = bias.row(0);
        for (std::size_t j = 0; j < x.cols(); ++j)
            row[j] += b[j];
    }
}

double
softmaxCrossEntropy(const Tensor2D &logits,
                    const std::vector<std::uint32_t> &labels,
                    Tensor2D &grad)
{
    SS_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    grad.resizeTo(logits.rows(), logits.cols()); // fully written below
    double loss = 0.0;
    const double inv_n = 1.0 / static_cast<double>(logits.rows());

    // One exp per element: stash exp(v - max) per row, then normalize.
    // thread_local so the warm training loop stays allocation-free.
    thread_local std::vector<double> exps;
    exps.resize(logits.cols());
    for (std::size_t i = 0; i < logits.rows(); ++i) {
        auto row = logits.row(i);
        float max_v = *std::max_element(row.begin(), row.end());
        double denom = 0.0;
        for (std::size_t j = 0; j < logits.cols(); ++j) {
            exps[j] = std::exp(static_cast<double>(row[j] - max_v));
            denom += exps[j];
        }
        std::uint32_t y = labels[i];
        SS_ASSERT(y < logits.cols(), "label ", y, " out of range");
        double log_p =
            static_cast<double>(row[y] - max_v) - std::log(denom);
        loss -= log_p * inv_n;
        auto grow = grad.row(i);
        for (std::size_t j = 0; j < logits.cols(); ++j) {
            double p = exps[j] / denom;
            grow[j] = static_cast<float>(
                (p - (j == y ? 1.0 : 0.0)) * inv_n);
        }
    }
    return loss;
}

std::vector<std::uint32_t>
argmaxRows(const Tensor2D &logits)
{
    std::vector<std::uint32_t> out(logits.rows());
    for (std::size_t i = 0; i < logits.rows(); ++i) {
        auto row = logits.row(i);
        out[i] = static_cast<std::uint32_t>(
            std::max_element(row.begin(), row.end()) - row.begin());
    }
    return out;
}

} // namespace smartsage::gnn
