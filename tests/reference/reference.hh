/**
 * @file
 * Reference kernels and samplers: the straightforward loops the
 * library's fast paths are checked and timed against. They live in
 * the test/bench-only `smartsage_reference` target, never in the
 * library, so production code keeps exactly one path.
 *
 *  - GEMMs and the mean aggregate: plain triple loops with no blocking,
 *    no SIMD and no threads. The library's tiled kernels reassociate
 *    the reductions, so they match these to tolerance, not bitwise.
 *    The edge-by-edge row mean keeps the library's rounding, so
 *    gnn::rowMean must match it bit for bit.
 *  - Samplers: per-batch `std::unordered_map`/`unordered_set` dedup and
 *    virtual visitor dispatch, the pre-optimization implementation.
 *    The library's samplers must match them bit for bit.
 *  - Set-associative LRU: one array of {line, stamp, valid} ways with
 *    separate lookup and insert scans, the layout before the library
 *    split tags from stamps. Hits, misses and evictions must match.
 *  - Bounded RNG draws: the rejection loop that computes its threshold
 *    on every call. sim::Rng::nextBounded must match it draw for draw.
 */

#ifndef SMARTSAGE_TESTS_REFERENCE_REFERENCE_HH
#define SMARTSAGE_TESTS_REFERENCE_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "gnn/layers.hh"
#include "gnn/sampler.hh"
#include "gnn/subgraph.hh"
#include "gnn/tensor.hh"
#include "graph/csr.hh"
#include "sim/random.hh"

namespace smartsage::ref
{

/** c += A * B. @pre c is a.rows x b.cols */
void matmulNaive(const gnn::Tensor2D &a, const gnn::Tensor2D &b,
                 gnn::Tensor2D &c);

/** A * B into a fresh tensor. @pre A.cols == B.rows */
gnn::Tensor2D matmulNaive(const gnn::Tensor2D &a, const gnn::Tensor2D &b);

/** A^T * B into a fresh tensor. @pre A.rows == B.rows */
gnn::Tensor2D matmulTNNaive(const gnn::Tensor2D &a, const gnn::Tensor2D &b);

/** A * B^T into a fresh tensor. @pre A.cols == B.cols */
gnn::Tensor2D matmulNTNaive(const gnn::Tensor2D &a, const gnn::Tensor2D &b);

/**
 * Mean of each dst's sampled src rows of @p h_src into @p agg, which is
 * reshaped to numDsts x h_src.cols and zeroed first; an isolated dst
 * keeps a zero row. Accumulates, then scales in a second pass.
 */
void aggregateNaive(const gnn::Tensor2D &h_src,
                    const gnn::SampledBlock &block, gnn::Tensor2D &agg);

/**
 * gnn::rowMean computed edge by edge, the layer's aggregate loop
 * before the register-chunk kernel: zero for deg 0, a copy for deg 1,
 * otherwise copy the first row into @p dst, add each middle row into
 * it in edge order, and finish with (dst + last) * (1 / deg). Plain
 * scalar loops, no dispatch.
 */
void rowMeanEdgeByEdge(float *dst, const float *rows,
                       const std::uint32_t *index, std::size_t deg,
                       std::size_t n);

/** Everything one SAGE layer's forward and backward produce. */
struct LayerPass
{
    gnn::Tensor2D out;   //!< forward activations (numDsts x out_dim)
    gnn::Tensor2D d_src; //!< gradient w.r.t. h_src (src_rows x in_dim)
    gnn::SageLayerGrads grads;
};

/**
 * gnn::SageMeanLayer's forward, then its backward from @p d_out with
 * the input gradient, composed from the naive GEMMs and aggregate above
 * with plain loops for the bias, the ReLU (when the layer has one) and
 * the 1/deg scatter.
 */
LayerPass sageLayerNaive(const gnn::SageMeanLayer &layer,
                         const gnn::Tensor2D &h_src,
                         const gnn::SampledBlock &block,
                         const gnn::Tensor2D &d_out);

/** GraphSAGE fanout sampling with the baseline hash containers. */
gnn::Subgraph sampleBaseline(const gnn::SageSampler &sampler,
                             const graph::CsrGraph &graph,
                             const std::vector<graph::LocalNodeId> &targets,
                             sim::Rng &rng,
                             gnn::SampleVisitor *visitor = nullptr);

/** GraphSAINT random walks with the baseline hash containers. */
gnn::Subgraph sampleBaseline(const gnn::SaintSampler &sampler,
                             const graph::CsrGraph &graph,
                             const std::vector<graph::LocalNodeId> &roots,
                             sim::Rng &rng,
                             gnn::SampleVisitor *visitor = nullptr);

/**
 * Set-associative LRU directory as one array of {line, lru, valid}
 * ways: the straightforward layout sim::SetAssocLru is checked against.
 * Same shape rules, set hash and counters.
 */
class SetAssocLruAos
{
  public:
    SetAssocLruAos(std::uint64_t capacity_bytes, std::uint64_t line_bytes,
                   unsigned ways);

    /** lookup() then insert() on a miss. @return true on hit */
    bool access(std::uint64_t line);
    /** Probe + recency update without filling. @return true on hit */
    bool lookup(std::uint64_t line);
    /** Fill the first invalid way, else the set's LRU way. */
    void insert(std::uint64_t line);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t numSets() const { return sets_; }

    /** Drop contents and counters. */
    void reset();

  private:
    struct Way
    {
        std::uint64_t line = ~std::uint64_t(0);
        std::uint64_t lru = 0;
        bool valid = false;
    };

    Way *setBase(std::uint64_t line);

    unsigned ways_;
    std::uint64_t sets_ = 1;
    std::vector<Way> table_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Uniform integer in [0, @p bound) from @p rng: redraw while the raw
 * draw is below 2^64 mod bound, computed up front on every call (two
 * divisions a draw). @pre bound > 0
 */
std::uint64_t nextBoundedTwoDivision(sim::Rng &rng, std::uint64_t bound);

} // namespace smartsage::ref

#endif // SMARTSAGE_TESTS_REFERENCE_REFERENCE_HH
