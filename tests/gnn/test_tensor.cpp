/** @file Unit tests for the dense tensor mini-library. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "gnn/tensor.hh"
#include "sim/random.hh"

using namespace smartsage::gnn;
using smartsage::sim::Rng;

TEST(Tensor, ZeroInitialized)
{
    Tensor2D t(2, 3);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(t.at(i, j), 0.0f);
    }
}

TEST(Tensor, UniformWithinScale)
{
    Rng rng(1);
    Tensor2D t = Tensor2D::uniform(8, 8, 0.5f, rng);
    for (float v : t.data()) {
        EXPECT_GE(v, -0.5f);
        EXPECT_LE(v, 0.5f);
    }
}

TEST(Tensor, MatmulHandValues)
{
    Tensor2D a(2, 2), b(2, 2);
    a.at(0, 0) = 1; a.at(0, 1) = 2;
    a.at(1, 0) = 3; a.at(1, 1) = 4;
    b.at(0, 0) = 5; b.at(0, 1) = 6;
    b.at(1, 0) = 7; b.at(1, 1) = 8;
    Tensor2D c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Tensor, MatmulTNEqualsExplicitTranspose)
{
    Rng rng(2);
    Tensor2D a = Tensor2D::uniform(4, 3, 1.0f, rng);
    Tensor2D b = Tensor2D::uniform(4, 5, 1.0f, rng);
    Tensor2D c = matmulTN(a, b); // A^T (3x4) * B (4x5)
    ASSERT_EQ(c.rows(), 3u);
    ASSERT_EQ(c.cols(), 5u);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            float want = 0;
            for (std::size_t k = 0; k < 4; ++k)
                want += a.at(k, i) * b.at(k, j);
            EXPECT_NEAR(c.at(i, j), want, 1e-5);
        }
    }
}

TEST(Tensor, MatmulNTEqualsExplicitTranspose)
{
    Rng rng(3);
    Tensor2D a = Tensor2D::uniform(4, 3, 1.0f, rng);
    Tensor2D b = Tensor2D::uniform(5, 3, 1.0f, rng);
    Tensor2D c = matmulNT(a, b); // A (4x3) * B^T (3x5)
    ASSERT_EQ(c.rows(), 4u);
    ASSERT_EQ(c.cols(), 5u);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            float want = 0;
            for (std::size_t k = 0; k < 3; ++k)
                want += a.at(i, k) * b.at(j, k);
            EXPECT_NEAR(c.at(i, j), want, 1e-5);
        }
    }
}

TEST(Tensor, ReluForwardBackward)
{
    Tensor2D x(1, 4);
    x.at(0, 0) = -1;
    x.at(0, 1) = 2;
    x.at(0, 2) = 0;
    x.at(0, 3) = 3;
    auto mask = reluForward(x);
    EXPECT_EQ(mask, (std::vector<char>{0, 1, 0, 1}));
    EXPECT_FLOAT_EQ(x.at(0, 0), 0);
    EXPECT_FLOAT_EQ(x.at(0, 1), 2);
    EXPECT_FLOAT_EQ(x.at(0, 2), 0);
    EXPECT_FLOAT_EQ(x.at(0, 3), 3);

    Tensor2D g(1, 4);
    for (std::size_t j = 0; j < 4; ++j)
        g.at(0, j) = 1.0f;
    reluBackward(g, mask);
    EXPECT_FLOAT_EQ(g.at(0, 0), 0);
    EXPECT_FLOAT_EQ(g.at(0, 1), 1);
    EXPECT_FLOAT_EQ(g.at(0, 2), 0);
    EXPECT_FLOAT_EQ(g.at(0, 3), 1);
}

namespace
{

/** The branchy ReLU the kernels replaced, kept as the bit reference. */
void
reluReference(TensorStorage &d, std::vector<char> &mask)
{
    mask.resize(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
        mask[i] = d[i] > 0.0f;
        if (!mask[i])
            d[i] = 0.0f;
    }
}

std::vector<std::uint32_t>
bitsOf(const TensorStorage &v)
{
    std::vector<std::uint32_t> bits(v.size());
    std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
    return bits;
}

/** A rows x cols tensor of random values with NaNs of both signs,
 *  +-0, +-denormals, +-inf and the extremes scattered through it. */
Tensor2D
specialValues(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    using limits = std::numeric_limits<float>;
    const float specials[] = {
        limits::quiet_NaN(),
        -limits::quiet_NaN(),
        0.0f,
        -0.0f,
        limits::denorm_min(),
        -limits::denorm_min(),
        limits::infinity(),
        -limits::infinity(),
        limits::max(),
        -limits::max(),
        limits::min(),
        -limits::min(),
    };
    Rng rng(seed);
    Tensor2D t = Tensor2D::uniform(rows, cols, 1.0f, rng);
    auto &d = t.data();
    for (std::size_t i = 0; i < d.size(); i += 1 + rng.next() % 3)
        d[i] = specials[rng.next() % std::size(specials)];
    return t;
}

} // namespace

TEST(Tensor, ReluBitsMatchBranchyReference)
{
    // Lengths below, at and past the vector widths, so every vector
    // tail runs. One mask vector is reused from the largest shape down,
    // so a stale mask tail would show.
    std::vector<char> mask;
    for (std::size_t n : {6001u, 33u, 8u, 7u, 1u}) {
        Tensor2D x = specialValues(1, n, n);
        TensorStorage want = x.data();
        std::vector<char> want_mask;
        reluReference(want, want_mask);

        reluForwardInto(x, mask);
        EXPECT_EQ(bitsOf(x.data()), bitsOf(want)) << "n=" << n;
        EXPECT_EQ(mask, want_mask) << "n=" << n;

        Tensor2D g = specialValues(1, n, n + 1);
        TensorStorage want_g = g.data();
        for (std::size_t i = 0; i < n; ++i) {
            if (!want_mask[i])
                want_g[i] = 0.0f;
        }
        reluBackward(g, mask);
        EXPECT_EQ(bitsOf(g.data()), bitsOf(want_g)) << "n=" << n;
    }
}

TEST(Tensor, AddBiasReluMatchesTwoPassesAtAnyThreadCount)
{
    // Rows on both sides of the 64-row block; 7 and 33 columns leave
    // vector tails in every row.
    for (std::size_t rows : {1u, 64u, 65u, 6001u}) {
        for (std::size_t cols : {7u, 33u}) {
            const Tensor2D x = specialValues(rows, cols, rows * cols);
            const Tensor2D bias = specialValues(1, cols, cols);
            Tensor2D want = x;
            addBias(want, bias);
            std::vector<char> want_mask;
            reluReference(want.data(), want_mask);
            for (unsigned threads : {1u, 4u}) {
                ScopedGemmThreads scope(threads);
                Tensor2D got = x;
                std::vector<char> mask(3 * rows * cols, 1);
                addBiasReluInto(got, bias, mask);
                EXPECT_EQ(bitsOf(got.data()), bitsOf(want.data()))
                    << rows << "x" << cols << " threads=" << threads;
                EXPECT_EQ(mask, want_mask)
                    << rows << "x" << cols << " threads=" << threads;
            }
        }
    }
}

TEST(Tensor, AddBiasBroadcastsRows)
{
    Tensor2D x(2, 2);
    Tensor2D b(1, 2);
    b.at(0, 0) = 1;
    b.at(0, 1) = -1;
    addBias(x, b);
    EXPECT_FLOAT_EQ(x.at(0, 0), 1);
    EXPECT_FLOAT_EQ(x.at(1, 1), -1);
}

TEST(Tensor, SoftmaxCrossEntropyUniformLogits)
{
    Tensor2D logits(1, 4); // all zero -> uniform
    Tensor2D grad;
    double loss = softmaxCrossEntropy(logits, {2}, grad);
    EXPECT_NEAR(loss, std::log(4.0), 1e-6);
    EXPECT_NEAR(grad.at(0, 2), 0.25 - 1.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 0), 0.25, 1e-6);
}

TEST(Tensor, SoftmaxGradientMatchesNumerical)
{
    Rng rng(5);
    Tensor2D logits = Tensor2D::uniform(3, 5, 1.0f, rng);
    std::vector<std::uint32_t> labels = {1, 4, 0};
    Tensor2D grad;
    softmaxCrossEntropy(logits, labels, grad);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            Tensor2D plus = logits, minus = logits;
            plus.at(i, j) += eps;
            minus.at(i, j) -= eps;
            Tensor2D dummy;
            double lp = softmaxCrossEntropy(plus, labels, dummy);
            double lm = softmaxCrossEntropy(minus, labels, dummy);
            double numeric = (lp - lm) / (2 * eps);
            EXPECT_NEAR(grad.at(i, j), numeric, 1e-3);
        }
    }
}

TEST(Tensor, ArgmaxRows)
{
    Tensor2D x(2, 3);
    x.at(0, 1) = 5;
    x.at(1, 2) = 7;
    auto am = argmaxRows(x);
    EXPECT_EQ(am[0], 1u);
    EXPECT_EQ(am[1], 2u);
}

TEST(Tensor, PlusEqualsAndScale)
{
    Tensor2D a(1, 2), b(1, 2);
    a.at(0, 0) = 1;
    b.at(0, 0) = 2;
    a += b;
    a *= 3.0f;
    EXPECT_FLOAT_EQ(a.at(0, 0), 9);
    EXPECT_GT(a.normSq(), 0.0);
    a.zero();
    EXPECT_EQ(a.normSq(), 0.0);
}

TEST(TensorDeath, ShapeMismatchPanics)
{
    Tensor2D a(2, 3), b(2, 3);
    EXPECT_DEATH(matmul(a, b), "mismatch");
}
