/** @file Unit and property tests for the xoshiro256** RNG wrapper. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "reference/reference.hh"
#include "sim/random.hh"

using namespace smartsage::sim;

TEST(Random, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Random, BoundedStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Random, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, BernoulliExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Random, ForkedStreamsAreIndependent)
{
    Rng base(123);
    Rng s0 = base.fork(0);
    Rng s1 = base.fork(1);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (s0.next() == s1.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Random, ForkIsDeterministic)
{
    Rng base(123);
    Rng a = base.fork(5);
    Rng b = Rng(123).fork(5);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, SaveRestoreRoundTripsMidStream)
{
    Rng rng(0xfeedULL);
    for (int i = 0; i < 37; ++i)
        rng.next();

    const RngState state = rng.save();
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 50; ++i)
        expected.push_back(rng.next());

    Rng restored(1); // unrelated seed; restore overwrites everything
    restored.restore(state);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(restored.next(), expected[i]);

    // A restored generator forks the same child streams too.
    Rng a(0xfeedULL), b(1);
    b.restore(a.save());
    Rng fa = a.fork(9), fb = b.fork(9);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(fa.next(), fb.next());
}

TEST(Random, SavedStatesCompareByValue)
{
    Rng a(5), b(5), c(6);
    EXPECT_TRUE(a.save() == b.save());
    EXPECT_FALSE(a.save() == c.save());
    a.next();
    EXPECT_FALSE(a.save() == b.save());
}

/**
 * nextBounded skips the rejection threshold's division whenever the draw
 * is at least the bound; it must still return the same values and
 * consume the same raw draws as the form that computes the threshold
 * every call. Edge bounds (1, powers of two and their neighbours, where
 * up to half the raw draws are rejected), then a fresh random bound of
 * random width per draw.
 */
TEST(Random, BoundedMatchesTwoDivisionReference)
{
    // 1, 2, 3, 2^64 - 1, then 2^32 and 2^63 with both neighbours.
    std::vector<std::uint64_t> edges = {1, 2, 3, ~0ull};
    for (int shift : {32, 63}) {
        for (std::uint64_t delta : {~0ull, 0ull, 1ull})
            edges.push_back((1ull << shift) + delta);
    }
    std::uint64_t draws = 0;
    for (std::uint64_t seed : {1ull, 0x5eedull, 0xb0b0ull}) {
        Rng fast(seed), ref(seed);
        for (std::uint64_t bound : edges) {
            for (int i = 0; i < 40000; ++i, ++draws)
                ASSERT_EQ(fast.nextBounded(bound),
                          smartsage::ref::nextBoundedTwoDivision(ref,
                                                                 bound))
                    << "bound " << bound << " draw " << i;
        }
        Rng bounds(seed + 1);
        for (int i = 0; i < 100000; ++i, ++draws) {
            std::uint64_t bound =
                std::max<std::uint64_t>(1, bounds.next() >>
                                               bounds.nextBounded(64));
            ASSERT_EQ(fast.nextBounded(bound),
                      smartsage::ref::nextBoundedTwoDivision(ref, bound))
                << "bound " << bound << " draw " << i;
        }
        EXPECT_EQ(fast.next(), ref.next()) << "seed " << seed;
        EXPECT_EQ(fast.save(), ref.save()) << "seed " << seed;
    }
    EXPECT_GE(draws, 1000000u);
}

/** Property sweep: bounded draws look uniform for several bounds. */
class RandomUniformity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomUniformity, RoughlyUniform)
{
    std::uint64_t bound = GetParam();
    Rng rng(bound * 31 + 1);
    std::vector<std::uint64_t> counts(bound, 0);
    const std::uint64_t draws = 20000;
    for (std::uint64_t i = 0; i < draws; ++i)
        ++counts[rng.nextBounded(bound)];
    double expect = static_cast<double>(draws) / bound;
    for (std::uint64_t c : counts) {
        EXPECT_GT(c, expect * 0.7);
        EXPECT_LT(c, expect * 1.3);
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RandomUniformity,
                         ::testing::Values(2, 3, 7, 16, 33));

TEST(Random, MeanOfDoublesNearHalf)
{
    Rng rng(77);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}
