/** @file Gradient checks for the SAGE layer and learning tests for the
 *  full model — the functional heart of the reproduction. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

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
    // 65-row C, one full block plus one row; an in_dim of 32 (Amazon's
    // width) gives them a one-block C, split over column strips.
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
            for (unsigned threads : {1u, 2u, 4u}) {
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
