/** @file Unit tests for units, RNG and the stats package. */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace carve {
namespace {

// ---- units ----------------------------------------------------------

TEST(Units, DivCeil)
{
    EXPECT_EQ(divCeil<std::uint64_t>(10, 3), 4u);
    EXPECT_EQ(divCeil<std::uint64_t>(9, 3), 3u);
    EXPECT_EQ(divCeil<std::uint64_t>(1, 128), 1u);
    EXPECT_EQ(divCeil<std::uint64_t>(0, 7), 0u);
}

TEST(Units, PowerOfTwoPredicate)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(6));
}

TEST(Units, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(7), 2u);
    EXPECT_EQ(floorLog2(1ull << 33), 33u);
}

TEST(Units, DivisorMatchesDivisionForAnyDivisor)
{
    // Powers of two take the shift/mask path, the rest divide.
    for (const std::uint64_t d : {1ull, 2ull, 3ull, 7ull, 16ull, 24ull,
                                  128ull, 1000ull, 1ull << 33}) {
        const Divisor div(d);
        EXPECT_EQ(div.value(), d);
        for (const std::uint64_t x :
             {0ull, 1ull, 5ull, 127ull, 128ull, 4095ull, 123456789ull,
              (1ull << 40) + 17, ~0ull}) {
            EXPECT_EQ(div.div(x), x / d) << x << " / " << d;
            EXPECT_EQ(div.mod(x), x % d) << x << " % " << d;
        }
    }
}

TEST(Units, Alignment)
{
    EXPECT_EQ(alignDown(0x12345, 0x1000), 0x12000u);
    EXPECT_EQ(alignUp(0x12345, 0x1000), 0x13000u);
    EXPECT_EQ(alignDown(0x12000, 0x1000), 0x12000u);
    EXPECT_EQ(alignUp(0x12000, 0x1000), 0x12000u);
}

TEST(Units, SizeConstants)
{
    EXPECT_EQ(KiB, 1024u);
    EXPECT_EQ(MiB, 1024u * 1024u);
    EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
}

// ---- rng ------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

class RngBoundTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBoundTest, BelowStaysInRange)
{
    Rng rng(GetParam());
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST_P(RngBoundTest, UniformIsInUnitInterval)
{
    Rng rng(GetParam());
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBoundTest,
                         ::testing::Values(1, 7, 12345, 999999937));

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.1) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.1, 0.01);
}

TEST(Rng, ZipfStaysInRange)
{
    Rng rng(5);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.zipf(1000, 0.8), 1000u);
}

TEST(Rng, ZipfSkewsTowardLowIndices)
{
    Rng rng(5);
    std::uint64_t low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.zipf(100000, 1.2) < 1000)
            ++low;
    }
    // Uniform would put ~1% below 1000; a 1.2-skewed zipf puts the
    // majority there.
    EXPECT_GT(low, static_cast<std::uint64_t>(n) / 2);
}

TEST(Rng, ZipfZeroSkewIsRoughlyUniform)
{
    Rng rng(5);
    std::uint64_t low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.zipf(1000, 0.0) < 100)
            ++low;
    }
    EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.02);
}

TEST(Rng, ZipfDegenerateSizes)
{
    Rng rng(9);
    EXPECT_EQ(rng.zipf(0, 1.0), 0u);
    EXPECT_EQ(rng.zipf(1, 1.0), 0u);
}

// ---- stats ----------------------------------------------------------

TEST(Stats, ScalarCountsAndResets)
{
    stats::Scalar s;
    ++s;
    s += 10;
    EXPECT_EQ(s.value(), 11u);
    s = 0;
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageComputesMean)
{
    stats::Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(Stats, GroupDottedNamesFlatten)
{
    stats::StatGroup root("sys");
    stats::StatGroup child("gpu0", &root);
    stats::Scalar hits;
    hits += 7;
    child.addScalar("hits", &hits);
    EXPECT_EQ(child.fullName(), "sys.gpu0");

    const auto flat = stats::flattenStats(root);
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_EQ(flat[0].name, "sys.gpu0.hits");
    EXPECT_EQ(flat[0].u64, 7u);
}

} // namespace
} // namespace carve
