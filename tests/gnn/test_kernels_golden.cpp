/**
 * @file
 * Golden equivalence tests for the hot-path rework: tiled GEMM and
 * fused aggregate kernels must match the naive reference kernels
 * (tests/reference) within 1e-5, and the flat-table sampler fast path
 * must be bit-identical to the hash-based reference sampler.
 */

#include <gtest/gtest.h>

#include "gnn/layers.hh"
#include "gnn/sampler.hh"
#include "gnn/tensor.hh"
#include "graph/powerlaw.hh"
#include "reference/reference.hh"
#include "sim/random.hh"

using namespace smartsage::gnn;
using namespace smartsage::graph;
using smartsage::sim::Rng;
namespace ref = smartsage::ref;

namespace
{

CsrGraph
testGraph()
{
    PowerLawParams p;
    p.num_nodes = 4096;
    p.avg_degree = 24;
    p.seed = 11;
    return generatePowerLaw(p);
}

void
expectClose(const Tensor2D &a, const Tensor2D &b, double tol)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            // 1e-5 relative: reduction reordering legitimately
            // perturbs long dot products by ~|value| * eps * terms.
            double scale = std::max(
                1.0, std::max(std::abs(double(a.at(i, j))),
                              std::abs(double(b.at(i, j)))));
            ASSERT_NEAR(a.at(i, j), b.at(i, j), tol * scale)
                << "at (" << i << ", " << j << ")";
        }
    }
}

} // namespace

TEST(KernelGolden, MatmulMatchesNaive)
{
    Rng rng(1);
    // Odd sizes exercise every remainder path of the blocked kernels.
    for (auto [m, k, n] :
         {std::tuple<int, int, int>{1, 1, 1}, {7, 5, 3}, {37, 53, 29},
          {130, 65, 129}, {256, 64, 64}}) {
        Tensor2D a = Tensor2D::uniform(m, k, 1.0f, rng);
        Tensor2D b = Tensor2D::uniform(k, n, 1.0f, rng);
        expectClose(ref::matmulNaive(a, b), matmul(a, b), 1e-5);
    }
}

TEST(KernelGolden, MatmulTNMatchesNaive)
{
    Rng rng(2);
    // Reduction lengths stay layer-realistic (<= a few hundred): the
    // 1e-5 bound is a per-term rounding budget, not a bound on
    // arbitrarily long cancellation-heavy sums.
    for (auto [r, m, n] :
         {std::tuple<int, int, int>{1, 1, 1}, {6, 5, 3}, {129, 37, 65},
          {300, 32, 16}}) {
        Tensor2D a = Tensor2D::uniform(r, m, 1.0f, rng);
        Tensor2D b = Tensor2D::uniform(r, n, 1.0f, rng);
        expectClose(ref::matmulTNNaive(a, b), matmulTN(a, b), 1e-5);
    }
}

TEST(KernelGolden, TailColumnsMatchNaive)
{
    // n = 41 and 65 leave 1-7 columns past the last 8-lane tile; they
    // take the scalar tail in both NN and TN, around the 6-row tiles,
    // the 64-wide k blocks and the TN r-panels.
    Rng rng(8);
    for (auto [m, k, n] :
         {std::tuple<int, int, int>{13, 65, 41}, {7, 129, 65},
          {130, 64, 41}, {65, 129, 65}}) {
        Tensor2D a = Tensor2D::uniform(m, k, 1.0f, rng);
        Tensor2D b = Tensor2D::uniform(k, n, 1.0f, rng);
        Tensor2D c0 = Tensor2D::uniform(m, n, 1.0f, rng);
        Tensor2D at = Tensor2D::uniform(k, m, 1.0f, rng);
        expectClose(ref::matmulNaive(a, b), matmul(a, b), 1e-5);
        Tensor2D naive = c0, tiled = c0;
        ref::matmulNaive(a, b, naive);
        matmulAccumulate(a, b, tiled);
        expectClose(naive, tiled, 1e-5);
        expectClose(ref::matmulTNNaive(at, b), matmulTN(at, b), 1e-5);
    }
}

TEST(KernelGolden, MatmulNTMatchesNaive)
{
    Rng rng(3);
    for (auto [m, n, k] :
         {std::tuple<int, int, int>{1, 1, 1}, {5, 7, 9}, {65, 130, 37},
          {500, 33, 64}}) {
        Tensor2D a = Tensor2D::uniform(m, k, 1.0f, rng);
        Tensor2D b = Tensor2D::uniform(n, k, 1.0f, rng);
        expectClose(ref::matmulNTNaive(a, b), matmulNT(a, b), 1e-5);
    }
}

TEST(KernelGolden, IntoVariantsMatchAllocatingApi)
{
    Rng rng(4);
    Tensor2D a = Tensor2D::uniform(40, 24, 1.0f, rng);
    Tensor2D b = Tensor2D::uniform(24, 18, 1.0f, rng);
    Tensor2D c;
    matmulInto(a, b, c);
    expectClose(c, matmul(a, b), 0.0);

    // Accumulate on top of an existing product doubles it.
    matmulAccumulate(a, b, c);
    Tensor2D doubled = matmul(a, b);
    doubled *= 2.0f;
    expectClose(c, doubled, 1e-5);

    // Reuse with a different (smaller) shape must still be exact.
    Tensor2D a2 = Tensor2D::uniform(9, 8, 1.0f, rng);
    Tensor2D b2 = Tensor2D::uniform(8, 5, 1.0f, rng);
    matmulInto(a2, b2, c);
    expectClose(c, matmul(a2, b2), 0.0);
}

TEST(KernelGolden, LayerForwardBackwardMatchNaive)
{
    CsrGraph g = testGraph();
    SageSampler sampler({12, 6});
    Rng rng(5);
    auto targets = selectTargets(g, 128, rng);
    Subgraph sg = sampler.sample(g, targets, rng);
    const SampledBlock &block = sg.blocks[1];

    Rng wrng(6);
    SageMeanLayer layer(16, 8, true, wrng);
    Rng hrng(7);
    Tensor2D h_src =
        Tensor2D::uniform(sg.frontiers[2].size(), 16, 1.0f, hrng);
    Tensor2D d_out = Tensor2D::uniform(block.numDsts(), 8, 1.0f, hrng);

    SageContext ctx;
    const Tensor2D out_t = layer.forward(h_src, block, ctx);
    SageLayerGrads g_t;
    const Tensor2D d_t = layer.backward(d_out, ctx, g_t);
    const ref::LayerPass naive =
        ref::sageLayerNaive(layer, h_src, block, d_out);

    expectClose(naive.out, out_t, 1e-5);
    expectClose(naive.d_src, d_t, 1e-5);
    expectClose(naive.grads.w_self, g_t.w_self, 1e-5);
    expectClose(naive.grads.w_neigh, g_t.w_neigh, 1e-5);
    expectClose(naive.grads.bias, g_t.bias, 1e-5);
}

TEST(SamplerGolden, SageFastPathBitIdenticalToBaseline)
{
    CsrGraph g = testGraph();
    SageSampler sampler({25, 10});
    Rng r1(42), r2(42);
    auto targets = selectTargets(g, 256, r1);
    auto same = selectTargets(g, 256, r2); // keeps r2 in lockstep
    ASSERT_EQ(targets, same);
    Subgraph fast = sampler.sample(g, targets, r1);
    Subgraph baseline = ref::sampleBaseline(sampler, g, targets, r2);

    ASSERT_EQ(fast.frontiers, baseline.frontiers);
    ASSERT_EQ(fast.blocks.size(), baseline.blocks.size());
    for (std::size_t h = 0; h < fast.blocks.size(); ++h) {
        EXPECT_EQ(fast.blocks[h].offsets, baseline.blocks[h].offsets);
        EXPECT_EQ(fast.blocks[h].src_index,
                  baseline.blocks[h].src_index);
    }
}

TEST(SamplerGolden, SaintFastPathBitIdenticalToBaseline)
{
    CsrGraph g = testGraph();
    SaintSampler sampler(4);
    Rng r1(43), r2(43);
    auto roots = selectTargets(g, 128, r1);
    auto same = selectTargets(g, 128, r2);
    ASSERT_EQ(roots, same);

    Subgraph fast = sampler.sample(g, roots, r1);
    Subgraph baseline = ref::sampleBaseline(sampler, g, roots, r2);
    ASSERT_EQ(fast.frontiers, baseline.frontiers);
    for (std::size_t h = 0; h < fast.blocks.size(); ++h) {
        EXPECT_EQ(fast.blocks[h].offsets, baseline.blocks[h].offsets);
        EXPECT_EQ(fast.blocks[h].src_index,
                  baseline.blocks[h].src_index);
    }
}

TEST(SamplerGolden, DuplicateTargetsStayBitIdenticalToBaseline)
{
    CsrGraph g = testGraph();
    SageSampler sampler({5, 3});
    // Duplicates in the caller-provided batch: the prefix index must
    // resolve the same way on both paths (last occurrence wins).
    std::vector<LocalNodeId> targets = {7, 7, 12, 7, 12, 3};
    Rng r1(17), r2(17);
    Subgraph fast = sampler.sample(g, targets, r1);
    Subgraph baseline = ref::sampleBaseline(sampler, g, targets, r2);
    ASSERT_EQ(fast.frontiers, baseline.frontiers);
    for (std::size_t h = 0; h < fast.blocks.size(); ++h) {
        EXPECT_EQ(fast.blocks[h].offsets, baseline.blocks[h].offsets);
        EXPECT_EQ(fast.blocks[h].src_index,
                  baseline.blocks[h].src_index);
    }
}

TEST(SamplerGolden, ScratchReuseDoesNotChangeOutput)
{
    CsrGraph g = testGraph();
    SageSampler sampler({8, 4});
    SampleScratch scratch;
    Subgraph reused;
    std::vector<Subgraph> fresh;

    for (int i = 0; i < 4; ++i) {
        Rng ra(100 + i), rb(100 + i);
        auto ta = selectTargets(g, 64, ra);
        auto tb = selectTargets(g, 64, rb);
        ASSERT_EQ(ta, tb);
        sampler.sampleInto(g, ta, ra, scratch, reused);
        fresh.push_back(sampler.sample(g, tb, rb));
        EXPECT_EQ(reused.frontiers, fresh.back().frontiers);
        for (std::size_t h = 0; h < reused.blocks.size(); ++h) {
            EXPECT_EQ(reused.blocks[h].offsets,
                      fresh.back().blocks[h].offsets);
            EXPECT_EQ(reused.blocks[h].src_index,
                      fresh.back().blocks[h].src_index);
        }
    }
}

TEST(SelectTargets, DenseBatchUsesEveryNodeAtMostOnce)
{
    CsrGraph g = testGraph();
    // count == numNodes: a full permutation must come back.
    Rng rng(9);
    auto all = selectTargets(g, g.numNodes(), rng);
    std::vector<bool> seen(g.numNodes(), false);
    for (auto u : all) {
        ASSERT_LT(u, g.numNodes());
        ASSERT_FALSE(seen[u]) << "duplicate target " << u;
        seen[u] = true;
    }
    EXPECT_EQ(all.size(), g.numNodes());

    // Near-full batches (the old coupon-collector regime) stay fast
    // and distinct.
    Rng rng2(10);
    auto most = selectTargets(g, g.numNodes() - 1, rng2);
    std::fill(seen.begin(), seen.end(), false);
    for (auto u : most) {
        ASSERT_FALSE(seen[u]);
        seen[u] = true;
    }
}
