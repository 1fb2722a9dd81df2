// Unit tests for util: deterministic RNG and string helpers.

#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <set>

namespace seqlearn::util {
namespace {

TEST(Rng, SameSeedSameStream) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInBounds) {
    Rng rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero) {
    Rng rng(5);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeCoversEndpoints) {
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform01();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceRoughlyCalibrated) {
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Strings, TrimBothEnds) {
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\t\nabc"), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitDropsEmptyAndTrims) {
    const auto parts = split("a, b ,, c", ",");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitMultipleSeparators) {
    const auto parts = split("a b\tc", " \t");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitEmptyInput) {
    EXPECT_TRUE(split("", ",").empty());
    EXPECT_TRUE(split(" , , ", ",").empty());
}

TEST(Strings, CaseHelpers) {
    EXPECT_TRUE(iequals("DFF", "dff"));
    EXPECT_FALSE(iequals("DFF", "df"));
    EXPECT_TRUE(starts_with("OUTPUT(x)", "OUTPUT"));
    EXPECT_FALSE(starts_with("OUT", "OUTPUT"));
}

TEST(Strings, Format) {
    EXPECT_EQ(format("%s=%d", "x", 42), "x=42");
    EXPECT_EQ(format("%.2f", 1.005), "1.00");
    EXPECT_EQ(format("no args"), "no args");
}

TEST(Timer, MeasuresNonNegativeMonotonicTime) {
    Timer t;
    const double a = t.seconds();
    const double b = t.seconds();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
    t.reset();
    EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace seqlearn::util
