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
 *  - Samplers: per-batch `std::unordered_map`/`unordered_set` dedup and
 *    virtual visitor dispatch, the pre-optimization implementation.
 *    The library's samplers must match them bit for bit.
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

} // namespace smartsage::ref

#endif // SMARTSAGE_TESTS_REFERENCE_REFERENCE_HH
