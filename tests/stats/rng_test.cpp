#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

using relperf::stats::Rng;
using relperf::stats::SplitMix64;
using relperf::stats::Xoshiro256pp;

TEST(SplitMix64, KnownSequenceFromSeedZero) {
    // Reference values from the published splitmix64 algorithm.
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro, DeterministicForEqualSeeds) {
    Xoshiro256pp a(42);
    Xoshiro256pp b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
    Xoshiro256pp a(1);
    Xoshiro256pp b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Xoshiro, JumpChangesStream) {
    Xoshiro256pp a(7);
    Xoshiro256pp b(7);
    b.jump();
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIsInUnitInterval) {
    Rng rng(123);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
    Rng rng(99);
    constexpr std::uint64_t n = 10;
    std::vector<int> counts(n, 0);
    constexpr int draws = 100000;
    for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(n)];
    // Every bucket within 10% of the expected count (very loose, 5+ sigma).
    for (const int c : counts) {
        EXPECT_NEAR(c, draws / static_cast<int>(n), draws / static_cast<int>(n) / 10);
    }
}

TEST(Rng, UniformIndexZeroAndOne) {
    Rng rng(1);
    EXPECT_EQ(rng.uniform_index(0), 0u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalMomentsAreCorrect) {
    Rng rng(2024);
    constexpr int n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, LognormalMeanMatchesFormula) {
    Rng rng(77);
    const double sigma = 0.5;
    const double mu = -0.5 * sigma * sigma; // makes E[X] = 1
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
    Rng rng(31);
    const double lambda = 4.0;
    double sum = 0.0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(lambda);
    EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Rng, ParetoRespectsScaleAndMean) {
    Rng rng(13);
    const double xm = 1.0;
    const double alpha = 3.0;
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.pareto(xm, alpha);
        EXPECT_GE(x, xm);
        sum += x;
    }
    // E[X] = alpha * xm / (alpha - 1) = 1.5.
    EXPECT_NEAR(sum / n, 1.5, 0.05);
}

TEST(Rng, BernoulliRateIsRespected) {
    Rng rng(8);
    const double p = 0.3;
    int hits = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(Rng, ShuffleProducesPermutation) {
    Rng rng(44);
    std::vector<int> v(20);
    std::iota(v.begin(), v.end(), 0);
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleIsSeedDeterministic) {
    std::vector<int> a(50);
    std::vector<int> b(50);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    Rng ra(9);
    Rng rb(9);
    ra.shuffle(a);
    rb.shuffle(b);
    EXPECT_EQ(a, b);
}

TEST(Rng, ChildStreamsAreIndependent) {
    const Rng parent(1234);
    Rng c0 = parent.child(0);
    Rng c1 = parent.child(1);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (c0.bits() == c1.bits()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, ChildIsDeterministic) {
    const Rng parent(1234);
    Rng a = parent.child(7);
    Rng b = parent.child(7);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(a.bits(), b.bits());
}

namespace {

/// The first outputs of each draw, recorded from the stream as first
/// released, under two seeds: the second is the generator's default. Every
/// seeded result in relperf (measurements, scores, clusterings, goldens)
/// depends on this stream not drifting.
constexpr std::uint64_t kSeeds[] = {42, 0x853c49e6748fea9bULL};

} // namespace

TEST(Xoshiro, KnownSequences) {
    const std::uint64_t expected[2][8] = {
        {0xd0764d4f4476689fULL, 0x519e4174576f3791ULL, 0xfbe07cfb0c24ed8cULL,
         0xb37d9f600cd835b8ULL, 0xcb231c3874846a73ULL, 0x968d9f004e50de7dULL,
         0x201718ff221a3556ULL, 0x9ae94e070ed8cb46ULL},
        {0x4045deb82e7b587bULL, 0x3accf928c48d641eULL, 0xd35d0e6ebd47b807ULL,
         0x6f39e5822134ff3fULL, 0xbe4d2994a59740e1ULL, 0xb26a2492460ab9bbULL,
         0x7d06b3f4dd1cc745ULL, 0xaab765f91b68a10fULL}};
    for (int s = 0; s < 2; ++s) {
        Xoshiro256pp gen(kSeeds[s]);
        for (int i = 0; i < 8; ++i) EXPECT_EQ(gen(), expected[s][i]) << s << ":" << i;
    }
}

TEST(Rng, UniformKnownSequences) {
    const double unit[2][8] = {
        {0x1.a0ec9a9e88ecdp-1, 0x1.467905d15dbccp-2, 0x1.f7c0f9f61849dp-1,
         0x1.66fb3ec019b06p-1, 0x1.96463870e908dp-1, 0x1.2d1b3e009ca1bp-1,
         0x1.00b8c7f910d18p-3, 0x1.35d29c0e1db19p-1},
        {0x1.01177ae0b9ed6p-2, 0x1.d667c946246bp-3, 0x1.a6ba1cdd7a8f7p-1,
         0x1.bce7960884d3ep-2, 0x1.7c9a53294b2e8p-1, 0x1.64d449248c157p-1,
         0x1.f41acfd37473p-2, 0x1.556ecbf236d14p-1}};
    const double two_three[2][8] = {
        {0x1.683b26a7a23b3p+1, 0x1.28cf20ba2bb7ap+1, 0x1.7df03e7d86127p+1,
         0x1.59becfb0066c2p+1, 0x1.65918e1c3a423p+1, 0x1.4b46cf8027287p+1,
         0x1.100b8c7f910d2p+1, 0x1.4d74a703876c6p+1},
        {0x1.2022ef5c173dbp+1, 0x1.1d667c946246bp+1, 0x1.69ae87375ea3ep+1,
         0x1.379cf2c1109a8p+1, 0x1.5f2694ca52cbap+1, 0x1.5935124923056p+1,
         0x1.3e8359fa6e8e6p+1, 0x1.555bb2fc8db45p+1}};
    for (int s = 0; s < 2; ++s) {
        Rng a(kSeeds[s]);
        Rng b(kSeeds[s]);
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(a.uniform(), unit[s][i]) << s << ":" << i;
            EXPECT_EQ(b.uniform(2.0, 3.0), two_three[s][i]) << s << ":" << i;
        }
    }
}

TEST(Rng, UniformIndexKnownSequences) {
    const std::uint64_t bounds[] = {1, 7, 30, (std::uint64_t{1} << 40) + 3};
    const std::uint64_t expected[2][4][8] = {
        {{0, 0, 0, 0, 0, 0, 0, 0},
         {5, 2, 6, 4, 5, 4, 0, 4},
         {24, 9, 29, 21, 23, 17, 3, 18},
         {895337975622ULL, 350547440728ULL, 1081803078415ULL, 770906742798ULL,
          872467413110ULL, 646621102160ULL, 137826467618ULL, 665339168528ULL}},
        {{0, 0, 0, 0, 0, 0, 0, 0},
         {1, 1, 5, 3, 5, 4, 3, 4},
         {7, 6, 24, 13, 22, 20, 14, 20},
         {276050130991ULL, 252546984133ULL, 907799326399ULL, 477712712226ULL,
          817338356903ULL, 766284960328ULL, 536983368926ULL, 733221353757ULL}}};
    // The word after the eighth draw pins how many words the draws consumed.
    const std::uint64_t next_bits[2] = {0x352cf3daf095ccc7ULL, 0x436afe2a6a2a581fULL};
    for (int s = 0; s < 2; ++s) {
        for (int k = 0; k < 4; ++k) {
            Rng rng(kSeeds[s]);
            for (int i = 0; i < 8; ++i) {
                EXPECT_EQ(rng.uniform_index(bounds[k]), expected[s][k][i])
                    << s << ":" << bounds[k] << ":" << i;
            }
            EXPECT_EQ(rng.bits(), next_bits[s]) << s << ":" << bounds[k];
        }
    }
}
