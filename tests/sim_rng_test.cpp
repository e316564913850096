#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sim/rng.hpp"

namespace skv::sim {
namespace {

TEST(Rng, SameSeedSameStream) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
    Rng r(7);
    for (int i = 0; i < 10'000; ++i) {
        EXPECT_LT(r.next_below(17), 17u);
    }
}

TEST(Rng, NextBelowOneIsZero) {
    Rng r(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusiveBounds) {
    Rng r(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 20'000; ++i) {
        const auto v = r.next_range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    // Spans as wide as the whole int64 range must not overflow.
    bool saw_negative = false;
    bool saw_positive = false;
    for (int i = 0; i < 1'000; ++i) {
        ASSERT_GE(r.next_range(-10, INT64_MAX), -10);
        const auto v = r.next_range(INT64_MIN, INT64_MAX);
        saw_negative |= v < 0;
        saw_positive |= v > 0;
    }
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_positive);
}

TEST(Rng, NextDoubleInHalfOpenUnit) {
    Rng r(11);
    for (int i = 0; i < 10'000; ++i) {
        const double v = r.next_double();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(Rng, NextBoolExtremes) {
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.next_bool(0.0));
        EXPECT_TRUE(r.next_bool(1.0));
    }
}

TEST(Rng, NextBoolRoughFrequency) {
    Rng r(17);
    int hits = 0;
    constexpr int kTrials = 100'000;
    for (int i = 0; i < kTrials; ++i) {
        if (r.next_bool(0.25)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.01);
}

TEST(Rng, ExponentialMean) {
    Rng r(19);
    double sum = 0;
    constexpr int kTrials = 200'000;
    for (int i = 0; i < kTrials; ++i) sum += r.next_exponential(5.0);
    EXPECT_NEAR(sum / kTrials, 5.0, 0.1);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
    Rng a(42);
    Rng b(42);
    Rng fa = a.fork();
    Rng fb = b.fork();
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(fa.next_u64(), fb.next_u64());
    }
    // The fork advanced the parent identically.
    ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformityChiSquaredish) {
    Rng r(23);
    std::vector<int> buckets(16, 0);
    constexpr int kTrials = 160'000;
    for (int i = 0; i < kTrials; ++i) {
        ++buckets[r.next_below(16)];
    }
    for (const int b : buckets) {
        EXPECT_NEAR(b, kTrials / 16, kTrials / 16 / 10); // within 10%
    }
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, InRangeAndSkewed) {
    const double theta = GetParam();
    constexpr std::uint64_t kN = 1000;
    ZipfianGenerator z(kN, theta);
    Rng r(29);
    std::vector<std::uint64_t> counts(kN, 0);
    constexpr int kTrials = 200'000;
    for (int i = 0; i < kTrials; ++i) {
        const auto v = z.next(r);
        ASSERT_LT(v, kN);
        ++counts[v];
    }
    // Rank 0 must be the most popular when skewed; roughly uniform at 0.
    if (theta > 0.5) {
        EXPECT_GT(counts[0], counts[kN / 2] * 5);
    }
    if (theta == 0.0) {
        EXPECT_NEAR(static_cast<double>(counts[0]),
                    static_cast<double>(kTrials) / kN,
                    static_cast<double>(kTrials) / kN); // loose
    }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfTest, ::testing::Values(0.0, 0.5, 0.99));

} // namespace
} // namespace skv::sim
