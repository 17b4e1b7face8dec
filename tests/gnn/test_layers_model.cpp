/** @file Gradient checks for the SAGE layer and learning tests for the
 *  full model — the functional heart of the reproduction. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "gnn/feature_table.hh"
#include "gnn/layers.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "graph/builder.hh"
#include "graph/powerlaw.hh"
#include "sim/serialize.hh"

using namespace smartsage::gnn;
using namespace smartsage::graph;
using smartsage::sim::Rng;

namespace
{

/** Tiny fixed block: 2 dsts over a 4-node src frontier. */
SampledBlock
tinyBlock()
{
    SampledBlock b;
    b.offsets = {0, 2, 3};    // dst0 <- {src2, src3}, dst1 <- {src1}
    b.src_index = {2, 3, 1};
    return b;
}

double
lossOf(const Tensor2D &out)
{
    // Simple quadratic objective sum(out^2)/2 for gradient checking.
    double l = 0;
    for (float v : out.data())
        l += 0.5 * double(v) * v;
    return l;
}

Tensor2D
lossGrad(const Tensor2D &out)
{
    Tensor2D g = out; // dL/dout = out
    return g;
}

} // namespace

TEST(SageLayer, ForwardShapeAndAggregation)
{
    Rng rng(1);
    SageMeanLayer layer(2, 3, false, rng);
    SampledBlock block = tinyBlock();

    Tensor2D h(4, 2);
    for (std::size_t i = 0; i < 4; ++i) {
        h.at(i, 0) = float(i);
        h.at(i, 1) = float(2 * i);
    }

    SageContext ctx;
    Tensor2D out = layer.forward(h, block, ctx);
    EXPECT_EQ(out.rows(), 2u);
    EXPECT_EQ(out.cols(), 3u);

    // Aggregate of dst0 = mean(rows 2, 3) = (2.5, 5).
    EXPECT_FLOAT_EQ(ctx.h_agg.at(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(ctx.h_agg.at(0, 1), 5.0f);
    // Aggregate of dst1 = row 1 = (1, 2).
    EXPECT_FLOAT_EQ(ctx.h_agg.at(1, 0), 1.0f);
    // Self term is the prefix rows.
    EXPECT_FLOAT_EQ(ctx.h_self.at(1, 0), 1.0f);
}

TEST(SageLayer, IsolatedDstAggregatesZero)
{
    Rng rng(2);
    SageMeanLayer layer(2, 2, false, rng);
    SampledBlock block;
    block.offsets = {0, 0}; // one dst, no srcs
    Tensor2D h(1, 2);
    h.at(0, 0) = 3;
    SageContext ctx;
    Tensor2D out = layer.forward(h, block, ctx);
    EXPECT_FLOAT_EQ(ctx.h_agg.at(0, 0), 0.0f);
    EXPECT_EQ(out.rows(), 1u);
}

/** Numerical gradient check of every parameter and the input. */
class SageLayerGradCheck : public ::testing::TestWithParam<bool>
{
};

TEST_P(SageLayerGradCheck, MatchesNumericalGradients)
{
    bool relu = GetParam();
    Rng rng(3);
    SageMeanLayer layer(3, 2, relu, rng);
    SampledBlock block = tinyBlock();
    Rng drng(4);
    Tensor2D h = Tensor2D::uniform(4, 3, 1.0f, drng);

    SageContext ctx;
    Tensor2D out = layer.forward(h, block, ctx);
    SageLayerGrads grads;
    ASSERT_TRUE(layer.needsInputGrad()); // a standalone layer's default
    Tensor2D d_in = layer.backward(lossGrad(out), ctx, grads);
    ASSERT_EQ(d_in.rows(), h.rows());
    ASSERT_EQ(d_in.cols(), h.cols());

    const float eps = 1e-3f;
    auto check_param = [&](Tensor2D &param, const Tensor2D &grad,
                           const char *name) {
        for (std::size_t i = 0; i < param.rows(); ++i) {
            for (std::size_t j = 0; j < param.cols(); ++j) {
                float saved = param.at(i, j);
                SageContext c1, c2;
                param.at(i, j) = saved + eps;
                double lp = lossOf(layer.forward(h, block, c1));
                param.at(i, j) = saved - eps;
                double lm = lossOf(layer.forward(h, block, c2));
                param.at(i, j) = saved;
                double numeric = (lp - lm) / (2 * eps);
                EXPECT_NEAR(grad.at(i, j), numeric, 2e-2)
                    << name << "[" << i << "," << j << "]";
            }
        }
    };
    check_param(layer.mutableWSelf(), grads.w_self, "w_self");
    check_param(layer.mutableWNeigh(), grads.w_neigh, "w_neigh");
    check_param(layer.mutableBias(), grads.bias, "bias");

    // Input gradient.
    for (std::size_t i = 0; i < h.rows(); ++i) {
        for (std::size_t j = 0; j < h.cols(); ++j) {
            float saved = h.at(i, j);
            SageContext c1, c2;
            h.at(i, j) = saved + eps;
            double lp = lossOf(layer.forward(h, block, c1));
            h.at(i, j) = saved - eps;
            double lm = lossOf(layer.forward(h, block, c2));
            h.at(i, j) = saved;
            double numeric = (lp - lm) / (2 * eps);
            EXPECT_NEAR(d_in.at(i, j), numeric, 2e-2)
                << "h[" << i << "," << j << "]";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LinearAndRelu, SageLayerGradCheck,
                         ::testing::Values(false, true));

TEST(SageLayer, ApplyGradsMovesParameters)
{
    Rng rng(5);
    SageMeanLayer layer(2, 2, false, rng);
    SageLayerGrads g;
    g.w_self = Tensor2D(2, 2);
    g.w_neigh = Tensor2D(2, 2);
    g.bias = Tensor2D(1, 2);
    g.w_self.at(0, 0) = 1.0f;
    float before = layer.wSelf().at(0, 0);
    layer.applyGrads(g, 0.1f);
    EXPECT_FLOAT_EQ(layer.wSelf().at(0, 0), before - 0.1f);
}

TEST(SageLayer, ForwardMacsFormula)
{
    EXPECT_EQ(SageMeanLayer::forwardMacs(10, 4, 8), 2u * 10 * 4 * 8);
}

TEST(SageModel, LayerWidthsChain)
{
    ModelConfig mc;
    mc.in_dim = 12;
    mc.hidden_dim = 7;
    mc.num_classes = 3;
    mc.depth = 3;
    SageModel model(mc);
    ASSERT_EQ(model.layers().size(), 3u);
    EXPECT_EQ(model.layers()[0].inDim(), 12u);
    EXPECT_EQ(model.layers()[0].outDim(), 7u);
    EXPECT_EQ(model.layers()[2].inDim(), 7u);
    EXPECT_EQ(model.layers()[2].outDim(), 3u);
    EXPECT_TRUE(model.layers()[0].hasRelu());
    EXPECT_FALSE(model.layers()[2].hasRelu());
}

TEST(SageModel, ParameterCount)
{
    ModelConfig mc;
    mc.in_dim = 4;
    mc.hidden_dim = 5;
    mc.num_classes = 2;
    mc.depth = 2;
    SageModel model(mc);
    // layer0: 2*4*5 + 5; layer1: 2*5*2 + 2
    EXPECT_EQ(model.parameterCount(), 40u + 5 + 20 + 2);
}

TEST(SageModel, TrainingReducesLoss)
{
    PowerLawParams gp;
    gp.num_nodes = 1024;
    gp.avg_degree = 16;
    CsrGraph g = generatePowerLaw(gp);

    ModelConfig mc;
    mc.in_dim = 16;
    mc.hidden_dim = 24;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.learning_rate = 0.1f;
    SageModel model(mc);
    FeatureTable ft(g.numNodes(), mc.in_dim, mc.num_classes);
    SageSampler sampler({8, 4});
    Rng rng(11);

    double first = 0, avg_late = 0;
    for (int step = 0; step < 40; ++step) {
        auto targets = selectTargets(g, 128, rng);
        Subgraph sg = sampler.sample(g, targets, rng);
        double loss = model.trainStep(sg, ft);
        if (step == 0)
            first = loss;
        if (step >= 35)
            avg_late += loss / 5.0;
    }
    EXPECT_LT(avg_late, first * 0.75);
}

TEST(SageModel, AccuracyBeatsChanceAfterTraining)
{
    PowerLawParams gp;
    gp.num_nodes = 1024;
    gp.avg_degree = 16;
    CsrGraph g = generatePowerLaw(gp);

    ModelConfig mc;
    mc.in_dim = 16;
    mc.hidden_dim = 24;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.learning_rate = 0.1f;
    SageModel model(mc);
    FeatureTable ft(g.numNodes(), mc.in_dim, mc.num_classes);
    SageSampler sampler({8, 4});
    Rng rng(12);

    for (int step = 0; step < 50; ++step) {
        auto targets = selectTargets(g, 128, rng);
        model.trainStep(sampler.sample(g, targets, rng), ft);
    }
    auto targets = selectTargets(g, 512, rng);
    double acc = model.evaluate(sampler.sample(g, targets, rng), ft);
    EXPECT_GT(acc, 0.5); // chance = 0.25
}

namespace
{

/** Copy @p from's parameters into @p to through the checkpoint path. */
void
copyParams(const SageMeanLayer &from, SageMeanLayer &to)
{
    smartsage::sim::ByteWriter writer;
    from.saveState(writer);
    smartsage::sim::ByteReader reader(writer.buffer());
    to.loadState(reader);
}

} // namespace

TEST(SageModel, InputLayerComputesNoInputGradient)
{
    ModelConfig mc;
    mc.in_dim = 8;
    mc.hidden_dim = 16;
    mc.num_classes = 4;
    mc.depth = 2;
    SageModel model(mc);
    EXPECT_FALSE(model.layers()[0].needsInputGrad());
    EXPECT_TRUE(model.layers()[1].needsInputGrad());

    PowerLawParams gp;
    gp.num_nodes = 256;
    CsrGraph g = generatePowerLaw(gp);
    FeatureTable ft(g.numNodes(), mc.in_dim, mc.num_classes);
    SageSampler sampler({5, 3});
    Rng rng(14);
    Subgraph sg = sampler.sample(g, selectTargets(g, 16, rng), rng);
    std::vector<SageContext> ctxs;
    model.forward(sg, ft, &ctxs);

    const SageMeanLayer &layer0 = model.layers()[0];
    Tensor2D d_out(sg.blocks[1].numDsts(), mc.hidden_dim);
    d_out.data().assign(d_out.data().size(), 0.25f);
    Tensor2D sentinel(3, 5);
    sentinel.data().assign(sentinel.data().size(), 7.0f);
    Tensor2D d_src = sentinel;
    SageLayerGrads grads;
    layer0.backwardInto(d_out, ctxs[0], grads, d_src);
    EXPECT_EQ(d_src.rows(), 3u);
    EXPECT_EQ(d_src.cols(), 5u);
    EXPECT_EQ(d_src.data(), sentinel.data());
    // The parameter gradients are still produced.
    EXPECT_EQ(grads.w_self.rows(), mc.in_dim);
    EXPECT_EQ(grads.w_self.cols(), mc.hidden_dim);
    EXPECT_GT(grads.w_neigh.normSq(), 0.0);
    EXPECT_EQ(grads.bias.cols(), mc.hidden_dim);
}

TEST(SageModel, SkippedInputGradientLeavesTrainingBitIdentical)
{
    // Odd widths leave tails in every GEMM: 33 is not a multiple of the
    // 4-way k unroll, 41 not a multiple of the 8-lane tiles.
    ModelConfig mc;
    mc.in_dim = 33;
    mc.hidden_dim = 64;
    mc.num_classes = 41;
    mc.depth = 2;
    SageModel model(mc);

    // Reference: standalone layers that do compute the input gradient,
    // started from the model's weights and stepped by hand.
    Rng unused(0);
    SageMeanLayer ref0(33, 64, true, unused), ref1(64, 41, false, unused);
    ASSERT_TRUE(ref0.needsInputGrad());
    copyParams(model.layers()[0], ref0);
    copyParams(model.layers()[1], ref1);

    PowerLawParams gp;
    gp.num_nodes = 1024;
    gp.avg_degree = 16;
    CsrGraph g = generatePowerLaw(gp);
    FeatureTable ft(g.numNodes(), mc.in_dim, mc.num_classes);
    SageSampler sampler({8, 4});
    Rng rng(15);

    SageContext c0, c1;
    SageLayerGrads grads;
    Tensor2D x, h1, logits, d_logits, d_h1, d_x;
    std::vector<std::uint32_t> labels;
    for (int step = 0; step < 3; ++step) {
        Subgraph sg = sampler.sample(g, selectTargets(g, 64, rng), rng);
        const double loss = model.trainStep(sg, ft);

        ft.gather(sg.inputNodes(), x);
        ref0.forwardInto(x, sg.blocks[1], c0, h1);
        ref1.forwardInto(h1, sg.blocks[0], c1, logits);
        ft.labelsInto(sg.targets(), labels);
        const double ref_loss =
            softmaxCrossEntropy(logits, labels, d_logits);
        ref1.backwardInto(d_logits, c1, grads, d_h1);
        ref1.applyGrads(grads, mc.learning_rate);
        ref0.backwardInto(d_h1, c0, grads, d_x);
        ref0.applyGrads(grads, mc.learning_rate);

        EXPECT_EQ(loss, ref_loss) << "step " << step;
        EXPECT_EQ(d_x.rows(), sg.inputNodes().size());
    }

    SageModel ref_model(mc);
    copyParams(ref0, ref_model.mutableLayers()[0]);
    copyParams(ref1, ref_model.mutableLayers()[1]);
    EXPECT_EQ(model.stateHash(), ref_model.stateHash());
}

namespace
{

/** Bit pattern of a double, so equal-looking losses compare exactly. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/**
 * Hand-built two-hop subgraph: @p targets targets, @p mids layer-0
 * dsts and @p inputs input nodes, each frontier a prefix of the next.
 * Every eleventh dst of each hop is isolated; the rest draw 1-9
 * sources. Node ids are spread over @p num_nodes by a coprime stride.
 */
Subgraph
handBuiltSubgraph(std::size_t targets, std::size_t mids,
                  std::size_t inputs, std::uint64_t num_nodes,
                  std::uint64_t seed)
{
    Rng rng(seed);
    Subgraph sg;
    const std::size_t sizes[] = {targets, mids, inputs};
    for (std::size_t n : sizes) {
        std::vector<LocalNodeId> frontier(n);
        for (std::size_t i = 0; i < n; ++i)
            frontier[i] = static_cast<LocalNodeId>(i * 7919 % num_nodes);
        sg.frontiers.push_back(std::move(frontier));
    }
    for (std::size_t h = 0; h < 2; ++h) {
        SampledBlock b;
        b.offsets.push_back(0);
        for (std::size_t u = 0; u < sizes[h]; ++u) {
            const std::size_t deg = u % 11 == 3 ? 0 : 1 + rng.next() % 9;
            for (std::size_t e = 0; e < deg; ++e)
                b.src_index.push_back(static_cast<std::uint32_t>(
                    rng.next() % sizes[h + 1]));
            b.offsets.push_back(
                static_cast<std::uint32_t>(b.src_index.size()));
        }
        sg.blocks.push_back(std::move(b));
    }
    sg.checkInvariants();
    return sg;
}

/** Kernel flavors this host can run. */
std::vector<KernelDispatch>
runnableFlavors()
{
    std::vector<KernelDispatch> flavors = {KernelDispatch::Scalar};
    if (cpuSupportsAvx2())
        flavors.push_back(KernelDispatch::Avx2);
    return flavors;
}

} // namespace

TEST(SageModel, TrainStepBitIdenticalAtAnyKernelThreadCount)
{
    // 130 layer-0 dsts and 6,001 inputs cross the 64-row block edge in
    // the gather, the self copy, the aggregate, the NN GEMMs and the
    // bias+ReLU epilogue. An in_dim of 65 gives the layer-0 TN GEMMs a
    // 65-row C, which the pair splits by thread count (3 threads cut
    // it into 24, 24 and 17 rows); an in_dim of 32 (Amazon's width)
    // gives them a one-block C, split over column strips.
    for (unsigned in_dim : {65u, 32u}) {
        ModelConfig mc;
        mc.in_dim = in_dim;
        mc.hidden_dim = 64;
        mc.num_classes = 41;
        mc.depth = 2;
        const std::uint64_t num_nodes = 20000;
        FeatureTable ft(num_nodes, mc.in_dim, mc.num_classes);
        const Subgraph batches[] = {
            handBuiltSubgraph(70, 130, 6001, num_nodes, 1),
            handBuiltSubgraph(33, 97, 4001, num_nodes, 2)};

        for (KernelDispatch flavor : runnableFlavors()) {
            ScopedKernelDispatch dispatch(flavor);
            std::uint64_t ref_hash = 0;
            std::vector<std::uint64_t> ref_losses;
            for (unsigned threads : {1u, 2u, 3u, 4u}) {
                ScopedGemmThreads scope(threads);
                SageModel model(mc);
                std::vector<std::uint64_t> losses;
                for (int step = 0; step < 3; ++step)
                    for (const Subgraph &sg : batches)
                        losses.push_back(bitsOf(model.trainStep(sg, ft)));
                if (threads == 1) {
                    ref_hash = model.stateHash();
                    ref_losses = losses;
                    continue;
                }
                EXPECT_EQ(model.stateHash(), ref_hash)
                    << kernelDispatchName(flavor) << " in_dim=" << in_dim
                    << " threads=" << threads;
                EXPECT_EQ(losses, ref_losses)
                    << kernelDispatchName(flavor) << " in_dim=" << in_dim
                    << " threads=" << threads;
            }
        }
    }
}

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    defined(__OPTIMIZE__) && defined(__FMA__)
namespace
{

/** Whether this build fuses a scalar a * b + c into one FMA. The
 *  library and the tests share one set of compile flags, so this tells
 *  whether its scalar loops contract as in the build that recorded the
 *  hashes below (GCC's default -ffp-contract=fast). */
bool
contractsScalarMulAdd()
{
    // (1 + 2^-12)^2 - (1 + 2^-11) is 2^-24 exactly, and 0 once the
    // product is rounded to float.
    volatile float v = 1.0f + 0x1p-12f, w = -(1.0f + 0x1p-11f);
    const float a = v, c = w;
    return a * a + c != 0.0f;
}

} // namespace
#endif

TEST(SageModelPinned, WideInputStepHash)
{
    // An in_dim of 141 runs the aggregate's two 64-column register
    // chunks, one 8-column chunk and a 5-column scalar tail. Its 141-row
    // weight gradients take the split pair TN GEMM, and the 70 targets
    // and 130 layer-0 dsts cross the 64-row blocks. The hashes were
    // recorded before the register-chunk aggregate and the pair GEMM
    // existed, so a kernel change that moves one bit of training fails
    // here. They hold for the build that recorded them: optimizing GCC
    // 12, FMA in the target (-march=native on an AVX2 host) and the
    // default contraction of scalar a * b + c into FMAs. Other compilers,
    // versions or contraction settings round the scalar code
    // differently, so they skip.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    defined(__OPTIMIZE__) && defined(__FMA__)
    if (!contractsScalarMulAdd())
        GTEST_SKIP() << "hashes pinned for builds that contract a * b + c";
    const std::pair<KernelDispatch, std::uint64_t> pinned[] = {
        {KernelDispatch::Scalar, 0x3cc3d63532d4c72bULL},
        {KernelDispatch::Avx2, 0x76bb7ee9f6d2b27aULL}};
    ModelConfig mc;
    mc.in_dim = 141;
    mc.hidden_dim = 64;
    mc.num_classes = 16;
    mc.depth = 2;
    const std::uint64_t num_nodes = 20000;
    FeatureTable ft(num_nodes, mc.in_dim, mc.num_classes);
    const Subgraph batches[] = {
        handBuiltSubgraph(70, 130, 2001, num_nodes, 5),
        handBuiltSubgraph(40, 97, 1501, num_nodes, 6)};
    ScopedGemmThreads four(4);
    for (const auto &[flavor, hash] : pinned) {
        if (flavor == KernelDispatch::Avx2 && !cpuSupportsAvx2())
            GTEST_SKIP() << "host CPU has no AVX2+FMA";
        ScopedKernelDispatch dispatch(flavor);
        SageModel model(mc);
        for (int step = 0; step < 2; ++step)
            for (const Subgraph &sg : batches)
                model.trainStep(sg, ft);
        EXPECT_EQ(smartsage::sim::hashHex(model.stateHash()),
                  smartsage::sim::hashHex(hash))
            << kernelDispatchName(flavor);
    }
#else
    GTEST_SKIP() << "hashes pinned for optimizing GCC 12 builds with FMA";
#endif
}

namespace
{

/**
 * A SAGE layer's math in double, on double copies of its parameters
 * and input (row-major as in Tensor2D), with the objective
 * 0.5 * sum(out^2) the central differences are taken of.
 */
struct DoubleLayer
{
    std::vector<double> w_self, w_neigh, bias, h;
    const SampledBlock *block;
    std::size_t in_dim, out_dim;
    bool relu;
    std::vector<double> agg; //!< mean of each dst's source rows of h

    DoubleLayer(const SageMeanLayer &layer, const Tensor2D &input,
                const SampledBlock &b)
        : w_self(layer.wSelf().data().begin(), layer.wSelf().data().end()),
          w_neigh(layer.wNeigh().data().begin(),
                  layer.wNeigh().data().end()),
          bias(layer.biasRow().data().begin(), layer.biasRow().data().end()),
          h(input.data().begin(), input.data().end()), block(&b),
          in_dim(layer.inDim()), out_dim(layer.outDim()),
          relu(layer.hasRelu())
    {
        aggregate();
    }

    /** Recompute agg from h. */
    void
    aggregate()
    {
        agg.assign(block->numDsts() * in_dim, 0.0);
        for (std::size_t u = 0; u < block->numDsts(); ++u) {
            const std::uint32_t lo = block->offsets[u];
            const std::uint32_t hi = block->offsets[u + 1];
            double *row = agg.data() + u * in_dim;
            for (std::uint32_t e = lo; e < hi; ++e)
                for (std::size_t i = 0; i < in_dim; ++i)
                    row[i] += h[block->src_index[e] * in_dim + i];
            for (std::size_t i = 0; i < in_dim && hi > lo; ++i)
                row[i] /= double(hi - lo);
        }
    }

    /** The objective's terms from output column @p j; a weight or bias
     *  entry of column j moves no other term. */
    double
    columnLoss(std::size_t j) const
    {
        double loss = 0.0;
        for (std::size_t u = 0; u < block->numDsts(); ++u) {
            double z = bias[j];
            for (std::size_t i = 0; i < in_dim; ++i)
                z += h[u * in_dim + i] * w_self[i * out_dim + j] +
                     agg[u * in_dim + i] * w_neigh[i * out_dim + j];
            if (relu && z < 0.0)
                z = 0.0;
            loss += 0.5 * z * z;
        }
        return loss;
    }

    /** The whole objective, with agg rebuilt from h. */
    double
    loss()
    {
        aggregate();
        double sum = 0.0;
        for (std::size_t j = 0; j < out_dim; ++j)
            sum += columnLoss(j);
        return sum;
    }
};

} // namespace

TEST_P(SageLayerGradCheck, MatchesDoubleDifferencesOnWideBlocks)
{
    // The 4x3 check above stays below every chunk, strip and row-block
    // edge. Here 130 dsts split over kRowBlock blocks; in_dim 65 and
    // 141 run the aggregate's 64- and 8-column chunks and scalar tails
    // and the pair TN GEMM; out_dim 19 leaves tail columns. The layer's
    // float gradients are checked against central differences of the
    // layer's math in double. There the loss is piecewise quadratic in
    // each parameter, so a tiny step has no truncation error and
    // crosses no ReLU kink.
    const bool relu = GetParam();
    constexpr std::size_t kOut = 19;
    constexpr double kStep = 1e-6;
    for (std::size_t in_dim : {65u, 141u}) {
        Rng rng(40 + in_dim);
        SageMeanLayer layer(in_dim, kOut, relu, rng);
        layer.mutableBias() = Tensor2D::uniform(1, kOut, 0.5f, rng);
        const Subgraph sg = handBuiltSubgraph(1, 130, 300, 20000, in_dim);
        const SampledBlock &block = sg.blocks[1];
        const Tensor2D h = Tensor2D::uniform(300, in_dim, 1.0f, rng);

        // The entries checked: weight rows and input columns at the
        // chunk edges and in the tails, input rows in and past the dst
        // prefix, every output column.
        constexpr std::size_t kEdges[] = {0,   1,   7,   8,   63,  64,
                                          65,  127, 128, 135, 136, 140};
        std::vector<std::size_t> cols;
        for (std::size_t i : kEdges)
            if (i < in_dim)
                cols.push_back(i);
        DoubleLayer ref(layer, h, block);
        // Central difference in @p x of the objective @p eval computes.
        const auto numeric = [&](double &x, const auto &eval) {
            const double saved = x;
            x = saved + kStep;
            const double lp = eval();
            x = saved - kStep;
            const double lm = eval();
            x = saved;
            return (lp - lm) / (2 * kStep);
        };
        enum Which { kWSelf, kWNeigh, kBias, kInput };
        const char *const names[] = {"w_self", "w_neigh", "bias", "h"};
        struct Entry
        {
            Which which;
            std::size_t i, j;
            double want;
        };
        std::vector<Entry> entries;
        for (std::size_t j = 0; j < kOut; ++j) {
            const auto column = [&] { return ref.columnLoss(j); };
            for (std::size_t i : cols) {
                double &ws = ref.w_self[i * kOut + j];
                double &wn = ref.w_neigh[i * kOut + j];
                entries.push_back({kWSelf, i, j, numeric(ws, column)});
                entries.push_back({kWNeigh, i, j, numeric(wn, column)});
            }
            entries.push_back({kBias, 0, j, numeric(ref.bias[j], column)});
        }
        // An input entry moves every column and, through agg, every dst
        // it feeds: row 0 is a dst and a source, 129 the last dst.
        const auto whole = [&] { return ref.loss(); };
        for (std::size_t r : {0, 129, 130, 299})
            for (std::size_t i : cols)
                entries.push_back(
                    {kInput, r, i, numeric(ref.h[r * in_dim + i], whole)});

        double scale = 0.0;
        for (const Entry &e : entries)
            scale = std::max(scale, std::abs(e.want));
        ASSERT_GT(scale, 0.0);
        for (KernelDispatch flavor : runnableFlavors()) {
            ScopedKernelDispatch dispatch(flavor);
            for (unsigned threads : {1u, 4u}) {
                ScopedGemmThreads scope(threads);
                SageContext ctx;
                const Tensor2D out = layer.forward(h, block, ctx);
                SageLayerGrads grads;
                const Tensor2D d_in =
                    layer.backward(lossGrad(out), ctx, grads);
                const Tensor2D *const got[] = {&grads.w_self,
                                               &grads.w_neigh,
                                               &grads.bias, &d_in};
                for (const Entry &e : entries) {
                    const Tensor2D &g = *got[e.which];
                    // Relative to the entry, with a floor at 1e-3 of
                    // the largest so near-zero entries are not judged
                    // on float noise alone.
                    const double err = std::abs(g.at(e.i, e.j) - e.want);
                    EXPECT_LE(err, 3e-4 * std::max(std::abs(e.want),
                                                   1e-3 * scale))
                        << kernelDispatchName(flavor)
                        << " threads=" << threads << " in_dim=" << in_dim
                        << " " << names[e.which] << "[" << e.i << ","
                        << e.j << "] got " << g.at(e.i, e.j)
                        << " want " << e.want;
                }
            }
        }
    }
}

namespace
{

/** A layer's outputs and gradients, from the layer or the reference. */
struct EpilogueResult
{
    Tensor2D out, dz, bias, w_self, w_neigh;
    std::vector<char> mask;
};

/**
 * The composition the fused epilogue replaced, on the h_self and h_agg
 * a forward left in @p ctx: matmulInto + matmulAccumulate + addBias +
 * reluForwardInto forward, reluBackward + a row-order bias sum and the
 * two TN GEMMs backward, all on one kernel thread.
 */
EpilogueResult
twoPassEpilogue(const SageMeanLayer &layer, const SageContext &ctx,
                const Tensor2D &d_out)
{
    ScopedGemmThreads one(1);
    EpilogueResult r;
    matmulInto(ctx.h_self, layer.wSelf(), r.out);
    matmulAccumulate(ctx.h_agg, layer.wNeigh(), r.out);
    addBias(r.out, layer.biasRow());
    r.dz = d_out;
    if (layer.hasRelu()) {
        reluForwardInto(r.out, r.mask);
        reluBackward(r.dz, r.mask);
    }
    r.bias = Tensor2D(1, layer.outDim());
    for (std::size_t u = 0; u < r.dz.rows(); ++u)
        for (std::size_t j = 0; j < r.dz.cols(); ++j)
            r.bias.at(0, j) += r.dz.at(u, j);
    matmulTNInto(ctx.h_self, r.dz, r.w_self);
    matmulTNInto(ctx.h_agg, r.dz, r.w_neigh);
    return r;
}

} // namespace

TEST(SageLayer, EpilogueBitIdenticalToTwoPassComposition)
{
    // 63/64/65 dsts straddle the 64-row block; in_dim 32 runs the TN
    // column split, 65 the row split; out_dim 41 leaves vector tails.
    struct Shape
    {
        unsigned in_dim, out_dim;
        bool relu;
    };
    const Shape shapes[] = {{32, 64, true}, {65, 41, true}, {32, 41, false}};
    for (KernelDispatch flavor : runnableFlavors()) {
        ScopedKernelDispatch dispatch(flavor);
        for (const Shape &shape : shapes) {
            Rng rng(21);
            SageMeanLayer layer(shape.in_dim, shape.out_dim, shape.relu,
                                rng);
            layer.mutableBias() =
                Tensor2D::uniform(1, shape.out_dim, 0.5f, rng);
            for (std::size_t dsts : {1u, 63u, 64u, 65u, 6001u}) {
                const Subgraph sg =
                    handBuiltSubgraph(1, dsts, dsts + 50, 20000, dsts);
                const Tensor2D h_src =
                    Tensor2D::uniform(dsts + 50, shape.in_dim, 1.0f, rng);
                const Tensor2D d_out =
                    Tensor2D::uniform(dsts, shape.out_dim, 1.0f, rng);
                for (unsigned threads : {1u, 4u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << kernelDispatchName(flavor) << " "
                                 << shape.in_dim << "->" << shape.out_dim
                                 << " dsts=" << dsts
                                 << " threads=" << threads);
                    ScopedGemmThreads scope(threads);
                    SageContext ctx;
                    EpilogueResult got;
                    layer.forwardInto(h_src, sg.blocks[1], ctx, got.out);
                    got.dz = d_out;
                    SageLayerGrads grads;
                    Tensor2D d_src;
                    layer.backwardInto(got.dz, ctx, grads, d_src);

                    const EpilogueResult want =
                        twoPassEpilogue(layer, ctx, d_out);
                    EXPECT_EQ(got.out.data(), want.out.data());
                    EXPECT_EQ(ctx.relu_mask, want.mask);
                    EXPECT_EQ(got.dz.data(), want.dz.data());
                    EXPECT_EQ(grads.bias.data(), want.bias.data());
                    EXPECT_EQ(grads.w_self.data(), want.w_self.data());
                    EXPECT_EQ(grads.w_neigh.data(), want.w_neigh.data());
                }
            }
        }
    }
}

TEST(FeatureTable, GatherBitIdenticalAtAnyKernelThreadCount)
{
    FeatureTable ft(5000, 37, 7);
    for (std::size_t n : {1u, 63u, 64u, 65u, 257u}) {
        std::vector<LocalNodeId> nodes(n);
        for (std::size_t i = 0; i < n; ++i)
            nodes[i] = static_cast<LocalNodeId>(i * 613 % 5000);
        Tensor2D serial;
        {
            ScopedGemmThreads one(1);
            ft.gather(nodes, serial);
        }
        ASSERT_EQ(serial.rows(), n);
        for (unsigned threads : {2u, 4u}) {
            ScopedGemmThreads scope(threads);
            Tensor2D out;
            ft.gather(nodes, out);
            EXPECT_EQ(out.rows(), n);
            EXPECT_EQ(out.data(), serial.data())
                << "n=" << n << " threads=" << threads;
        }
    }
}

TEST(SageModel, WarmWorkspacesNeedNoZeroFilledGrowth)
{
    // Workspaces grow without zero-filling, so every kernel must write
    // each element it later reads. Poison the buffers, shrink them,
    // run a small batch and then a larger one through them: the logits
    // must equal forward()'s from fresh buffers, and a warm trainStep
    // must equal one on a freshly loaded model.
    ModelConfig mc;
    mc.in_dim = 65;
    mc.hidden_dim = 64;
    mc.num_classes = 41;
    mc.depth = 2;
    const std::uint64_t num_nodes = 20000;
    FeatureTable ft(num_nodes, mc.in_dim, mc.num_classes);
    const Subgraph small = handBuiltSubgraph(9, 20, 300, num_nodes, 3);
    const Subgraph large = handBuiltSubgraph(70, 130, 6001, num_nodes, 4);

    for (unsigned threads : {1u, 4u}) {
        ScopedGemmThreads scope(threads);
        SageModel model(mc);
        const auto &layers = model.layers();

        std::vector<SageContext> ctxs(2);
        Tensor2D act_a, act_b;
        const float nan = std::numeric_limits<float>::quiet_NaN();
        for (Tensor2D *t : {&act_a, &act_b, &ctxs[0].h_self,
                            &ctxs[0].h_agg, &ctxs[1].h_self,
                            &ctxs[1].h_agg}) {
            t->data().assign(8000 * 65, nan);
            t->resizeTo(1, 1);
        }
        for (const Subgraph *sg : {&small, &large}) {
            ft.gather(sg->inputNodes(), act_a);
            layers[0].forwardInto(act_a, sg->blocks[1], ctxs[0], act_b);
            layers[1].forwardInto(act_b, sg->blocks[0], ctxs[1], act_a);
        }
        const Tensor2D fresh = model.forward(large, ft, nullptr);
        EXPECT_EQ(act_a.rows(), fresh.rows());
        EXPECT_EQ(act_a.data(), fresh.data()) << "threads=" << threads;

        model.trainStep(small, ft);
        SageModel cold(mc);
        smartsage::sim::ByteWriter state;
        model.saveState(state);
        smartsage::sim::ByteReader reader(state.buffer());
        cold.loadState(reader);
        EXPECT_EQ(bitsOf(model.trainStep(large, ft)),
                  bitsOf(cold.trainStep(large, ft)))
            << "threads=" << threads;
        EXPECT_EQ(model.stateHash(), cold.stateHash())
            << "threads=" << threads;
    }
}

TEST(SageModelDeath, DepthMismatchPanics)
{
    PowerLawParams gp;
    gp.num_nodes = 256;
    CsrGraph g = generatePowerLaw(gp);
    ModelConfig mc;
    mc.in_dim = 8;
    mc.depth = 2;
    SageModel model(mc);
    FeatureTable ft(g.numNodes(), 8, mc.num_classes);
    SageSampler sampler({4}); // depth 1 != model depth 2
    Rng rng(13);
    auto targets = selectTargets(g, 8, rng);
    Subgraph sg = sampler.sample(g, targets, rng);
    EXPECT_DEATH(model.trainStep(sg, ft), "depth");
}
