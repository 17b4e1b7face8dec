/**
 * @file
 * Minimal dense 2-D float tensor with the operations GraphSAGE needs.
 *
 * Row-major, CPU-only. The backend GNN stages of the paper run on a
 * GPU; functionally the math is identical, and the *timing* of the GPU
 * is modeled separately (gpu_model.hh), so a simple correct CPU tensor
 * is the right substrate here.
 */

#ifndef SMARTSAGE_GNN_TENSOR_HH
#define SMARTSAGE_GNN_TENSOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/serialize.hh"

namespace smartsage::sim
{
class ThreadPool;
} // namespace smartsage::sim

namespace smartsage::gnn
{

/**
 * std::allocator that default-initializes instead of value-initializing
 * elements constructed without arguments. For float that means a
 * vector's resize() leaves new elements unwritten rather than zeroed;
 * explicit values (resize(n, v), assign, copies) still construct as
 * usual.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };

    using std::allocator<T>::allocator;

    template <typename U>
    void
    construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** Element storage of Tensor2D: grows without zero-filling. */
using TensorStorage = std::vector<float, DefaultInitAllocator<float>>;

/** Row-major dense matrix of floats. */
class Tensor2D
{
  public:
    Tensor2D() = default;

    /** Zero-initialized rows x cols. */
    Tensor2D(std::size_t rows, std::size_t cols);

    /** Xavier/Glorot-style uniform init in [-scale, scale]. */
    static Tensor2D uniform(std::size_t rows, std::size_t cols,
                            float scale, sim::Rng &rng);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    float &at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
    std::span<const float> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

    const TensorStorage &data() const { return data_; }
    TensorStorage &data() { return data_; }

    /** this += other (same shape). */
    Tensor2D &operator+=(const Tensor2D &other);

    /** this *= scalar. */
    Tensor2D &operator*=(float s);

    /** Zero every element, keeping the shape. */
    void zero();

    /**
     * Reshape to rows x cols reusing the existing buffer (contents
     * unspecified afterwards). The workspace-reuse primitive of the
     * training hot loop: steady-state reshapes never allocate once the
     * buffer has grown to the episode's high-water mark, and growth
     * does not zero-fill (TensorStorage), so a caller about to write
     * every element pays for no extra pass over the buffer.
     */
    void
    resizeTo(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

    /** resizeTo, then zero-fill. */
    void
    resizeToZero(std::size_t rows, std::size_t cols)
    {
        resizeTo(rows, cols);
        zero();
    }

    /** Frobenius-norm squared (for tests and gradient clipping). */
    double normSq() const;

    /** Serialize shape + element bit patterns (checkpointing). */
    void saveState(sim::ByteWriter &writer) const;

    /** Restore a tensor saved by saveState(), bit-exactly. */
    void loadState(sim::ByteReader &reader);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    TensorStorage data_;
};

/**
 * Microkernel flavor of the cache-blocked, register-tiled GEMM and
 * aggregate kernels. Scalar keeps the portable loops; Avx2 swaps the
 * inner loops for 8-lane FMA intrinsics (runtime-gated on cpuid, so an
 * Avx2 request on a machine without the ISA silently runs Scalar);
 * Auto, the default, probes cpuid once and picks the fastest available
 * flavor. No configuration sets it: it is a pin for tests and benches
 * (ScopedKernelDispatch), the only way to run Scalar on an AVX2 host.
 * The selection is process-global and atomic — flip it between
 * batches, not mid-kernel.
 *
 * Numerics: the AVX2 GEMMs fuse multiply-add and reorder the k
 * reduction, so outputs match Scalar to tolerance, not bitwise. The
 * row microkernels (rowAccumulate, rowMean) are elementwise and
 * bit-identical across flavors.
 */
enum class KernelDispatch { Auto, Scalar, Avx2 };

/** This CPU (and build) can run the AVX2 microkernels. */
bool cpuSupportsAvx2();

void setKernelDispatch(KernelDispatch dispatch);
/** The configured flavor (possibly Auto). */
KernelDispatch kernelDispatch();
/** The flavor matmuls actually run: Auto and unsupported Avx2
 *  resolve against cpuid; never returns Auto. */
KernelDispatch resolvedKernelDispatch();

/** Display name ("auto", "scalar", "avx2"). */
const char *kernelDispatchName(KernelDispatch dispatch);

/**
 * Threads that run parallelRows(), the calling thread included (it
 * works alongside a sim::ThreadPool of count - 1 workers built on
 * first use); <= 1 runs every kernel inline on the caller. Defaults
 * to the machine's hardware threads (at least 1). parallelRows() cuts
 * work into fixed kRowBlock-row blocks whatever the count, and each
 * block writes a disjoint row slice, so results are bit-identical at
 * any thread count — including 1 — for a given dispatch flavor.
 * The wide TN GEMMs (matmulTNInto, matmulTNPairInto) cut C's rows
 * by the count instead, which moves no bit either: each of their
 * elements is one in-order chain over the reduction, whichever block
 * holds it. Tests and benches pin a count through ScopedGemmThreads.
 */
void setGemmThreads(unsigned threads);
unsigned gemmThreads();

/**
 * The kernel pool: the gemmThreads() - 1 workers that run
 * parallelRows() blocks alongside their caller, and that the pipeline
 * producers (pipeline/producer.hh) hand each simulated worker's
 * functional sample to. Null when gemmThreads() <= 1, so a caller that
 * pins one thread runs everything inline. One pool per thread count,
 * built on first use and never freed: no exit path (std::exit from
 * SS_FATAL included, in a forked death-test child too) ever joins its
 * workers, and a caller still using one pool is never left without it
 * when another caller asks for a different count.
 */
sim::ThreadPool *kernelPool();

/** Row-block size of parallelRows(). Fixed — not derived from the
 *  thread count — so the set of blocks, and therefore every output
 *  bit, is invariant to gemmThreads(). */
constexpr std::size_t kRowBlock = 64;

/**
 * Run @p fn(r0, r1) over [0, rows) in consecutive kRowBlock-row
 * blocks, spread over the kernel pool and waited for. @p fn must write
 * only the output rows [r0, r1) and read nothing another block writes.
 * Inline on the caller, as one fn(0, rows) call, when gemmThreads()
 * <= 1 or the range fits one block. The first exception thrown by @p fn
 * is rethrown here.
 */
void parallelRows(std::size_t rows,
                  const std::function<void(std::size_t, std::size_t)> &fn);

/** RAII guard restoring the previous KernelDispatch. */
class ScopedKernelDispatch
{
  public:
    explicit ScopedKernelDispatch(KernelDispatch dispatch)
        : prev_(kernelDispatch())
    {
        setKernelDispatch(dispatch);
    }
    ~ScopedKernelDispatch() { setKernelDispatch(prev_); }
    ScopedKernelDispatch(const ScopedKernelDispatch &) = delete;
    ScopedKernelDispatch &operator=(const ScopedKernelDispatch &) = delete;

  private:
    KernelDispatch prev_;
};

/** RAII guard restoring the previous GEMM thread count. */
class ScopedGemmThreads
{
  public:
    explicit ScopedGemmThreads(unsigned threads) : prev_(gemmThreads())
    {
        setGemmThreads(threads);
    }
    ~ScopedGemmThreads() { setGemmThreads(prev_); }
    ScopedGemmThreads(const ScopedGemmThreads &) = delete;
    ScopedGemmThreads &operator=(const ScopedGemmThreads &) = delete;

  private:
    unsigned prev_;
};

// Row microkernels for the aggregate path (layers.cc): elementwise,
// dispatch-accelerated, and bit-identical across flavors (no
// reassociation, no FMA).

/** dst[j] += src[j] for j in [0, n). */
void rowAccumulate(float *dst, const float *src, std::size_t n);

/**
 * Mean of @p deg rows into @p dst: for j in [0, n), with s_e the row
 * rows + index[e] * n, dst[j] = s_0[j] when deg == 1, 0 when deg == 0,
 * and otherwise the first row plus each middle row in edge order, then
 * (acc + s_last[j]) * (1 / deg). Rows may repeat. The AVX2 flavor sums
 * each 64-column chunk in registers while the rows stream through, so
 * @p dst is written once; both flavors round every element alike.
 */
void rowMean(float *dst, const float *rows, const std::uint32_t *index,
             std::size_t deg, std::size_t n);

/** C = A * B. @pre A.cols == B.rows */
Tensor2D matmul(const Tensor2D &a, const Tensor2D &b);

/** C = A^T * B. @pre A.rows == B.rows */
Tensor2D matmulTN(const Tensor2D &a, const Tensor2D &b);

/** C = A * B^T. @pre A.cols == B.cols */
Tensor2D matmulNT(const Tensor2D &a, const Tensor2D &b);

// Workspace-reuse variants of the GEMMs: identical math, but the
// output tensor is reshaped in place (no allocation once warm).

/** c = A * B (c reshaped). */
void matmulInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/** c += A * B. @pre c is a.rows x b.cols */
void matmulAccumulate(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/**
 * c = A^T * B (c reshaped). A C of more than kRowBlock rows is cut into
 * one block of whole 6-row strips per kernel thread (at most one per
 * kRowBlock rows), each streaming B once in 64-row panels; a narrower
 * C is split over 16-column strips instead.
 */
void matmulTNInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/**
 * c1 = A1^T * B and c2 = A2^T * B (both reshaped) in one pass over B,
 * bit-identical to two matmulTNInto calls. When either C has more than
 * kRowBlock rows, each row block of matmulTNInto's cut runs A1's then
 * A2's tiles on every panel of B, so B streams once per block for both
 * products. @pre A1.rows == A2.rows == B.rows
 */
void matmulTNPairInto(const Tensor2D &a1, const Tensor2D &a2,
                      const Tensor2D &b, Tensor2D &c1, Tensor2D &c2);

/** c = A * B^T (c reshaped). */
void matmulNTInto(const Tensor2D &a, const Tensor2D &b, Tensor2D &c);

/** In-place ReLU; returns the pre-activation mask needed for backward. */
std::vector<char> reluForward(Tensor2D &x);

/** reluForward writing the mask into @p mask (capacity reused). */
void reluForwardInto(Tensor2D &x, std::vector<char> &mask);

/**
 * addBias then reluForwardInto as one row-parallel pass on the kernel
 * pool: each element gets its bias added, then the ReLU and its mask,
 * so the result is bit-identical to the two serial passes.
 */
void addBiasReluInto(Tensor2D &x, const Tensor2D &bias,
                     std::vector<char> &mask);

/** dX = dY masked by the forward mask. */
void reluBackward(Tensor2D &grad, const std::vector<char> &mask);

/** Add row-vector @p bias (1 x C) to every row of @p x. */
void addBias(Tensor2D &x, const Tensor2D &bias);

/**
 * Softmax + cross-entropy over rows.
 * @param logits  N x C scores
 * @param labels  N class ids
 * @param grad    out: dLoss/dLogits (N x C), averaged over rows
 * @return mean loss
 */
double softmaxCrossEntropy(const Tensor2D &logits,
                           const std::vector<std::uint32_t> &labels,
                           Tensor2D &grad);

/** Row-wise argmax (predictions). */
std::vector<std::uint32_t> argmaxRows(const Tensor2D &logits);

} // namespace smartsage::gnn

#endif // SMARTSAGE_GNN_TENSOR_HH
