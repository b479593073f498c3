#include "core/bootstrap_comparator.hpp"

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace core = relperf::core;
using core::BootstrapComparator;
using core::BootstrapComparatorConfig;
using core::Ordering;
using relperf::stats::Rng;

namespace {

std::vector<double> lognormal_sample(double median, double sigma, int n,
                                     std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) out.push_back(median * rng.lognormal(0.0, sigma));
    return out;
}

} // namespace

TEST(BootstrapComparator, ClearlyFasterWins) {
    const auto fast = lognormal_sample(1.0, 0.05, 50, 1);
    const auto slow = lognormal_sample(2.0, 0.05, 50, 2);
    const BootstrapComparator cmp;
    Rng rng(3);
    EXPECT_EQ(cmp.compare(fast, slow, rng), Ordering::Better);
    EXPECT_EQ(cmp.compare(slow, fast, rng), Ordering::Worse);
}

TEST(BootstrapComparator, IdenticalSamplesAreEquivalent) {
    const auto xs = lognormal_sample(1.0, 0.1, 60, 4);
    const BootstrapComparator cmp;
    Rng rng(5);
    EXPECT_EQ(cmp.compare(xs, xs, rng), Ordering::Equivalent);
}

TEST(BootstrapComparator, HeavilyOverlappingSamplesAreEquivalent) {
    // 0.3% median difference, 10% spread: far inside the tie band.
    const auto a = lognormal_sample(1.000, 0.10, 100, 6);
    const auto b = lognormal_sample(1.003, 0.10, 100, 7);
    const BootstrapComparator cmp;
    Rng rng(8);
    EXPECT_EQ(cmp.compare(a, b, rng), Ordering::Equivalent);
}

TEST(BootstrapComparator, ScoreIsBoundedAndSigned) {
    const auto fast = lognormal_sample(1.0, 0.05, 50, 9);
    const auto slow = lognormal_sample(1.5, 0.05, 50, 10);
    const BootstrapComparator cmp;
    Rng rng(11);
    const double s_fast = cmp.score(fast, slow, rng);
    const double s_slow = cmp.score(slow, fast, rng);
    EXPECT_GT(s_fast, 0.9);
    EXPECT_LE(s_fast, 1.0);
    EXPECT_LT(s_slow, -0.9);
    EXPECT_GE(s_slow, -1.0);
}

TEST(BootstrapComparator, AntisymmetryProperty) {
    // The two directions are evaluated with independent bootstrap draws, so
    // borderline pairs may legitimately flip between Equivalent and a
    // direction. The hard invariants: the directions never BOTH claim a win,
    // and clearly-separated pairs reverse exactly.
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng gen(seed);
        const double shift = gen.uniform(0.9, 1.15);
        const auto a = lognormal_sample(1.0, 0.08, 30, 100 + seed);
        const auto b = lognormal_sample(shift, 0.08, 30, 200 + seed);
        const BootstrapComparator cmp;
        Rng r1(300 + seed);
        Rng r2(301 + seed);
        const Ordering ab = cmp.compare(a, b, r1);
        const Ordering ba = cmp.compare(b, a, r2);
        EXPECT_FALSE(ab == Ordering::Better && ba == Ordering::Better);
        EXPECT_FALSE(ab == Ordering::Worse && ba == Ordering::Worse);
        if (shift > 1.10) {
            EXPECT_EQ(ab, Ordering::Better) << "seed " << seed;
            EXPECT_EQ(ba, Ordering::Worse) << "seed " << seed;
        }
    }
}

TEST(BootstrapComparator, DeterministicGivenSeed) {
    const auto a = lognormal_sample(1.0, 0.1, 40, 12);
    const auto b = lognormal_sample(1.05, 0.1, 40, 13);
    const BootstrapComparator cmp;
    Rng r1(14);
    Rng r2(14);
    EXPECT_EQ(cmp.compare(a, b, r1), cmp.compare(a, b, r2));
}

TEST(BootstrapComparator, WiderTieBandMakesMorePairsEquivalent) {
    const auto a = lognormal_sample(1.00, 0.02, 60, 15);
    const auto b = lognormal_sample(1.08, 0.02, 60, 16);

    BootstrapComparatorConfig narrow;
    narrow.tie_epsilon = 0.0;
    BootstrapComparatorConfig wide;
    wide.tie_epsilon = 0.25;

    Rng r1(17);
    Rng r2(17);
    EXPECT_EQ(BootstrapComparator(narrow).compare(a, b, r1), Ordering::Better);
    EXPECT_EQ(BootstrapComparator(wide).compare(a, b, r2), Ordering::Equivalent);
}

TEST(BootstrapComparator, SmallSamplesBlurBorderlinePairs) {
    // ~6% apart with 8% noise: decisive at N = 500, not at N = 10.
    const auto big_a = lognormal_sample(1.00, 0.08, 500, 18);
    const auto big_b = lognormal_sample(1.06, 0.08, 500, 19);
    const BootstrapComparator cmp;
    Rng rng(20);
    EXPECT_EQ(cmp.compare(big_a, big_b, rng), Ordering::Better);

    // With N = 10, count equivalents across independent draws: should be
    // frequent (the comparator refuses to call a winner).
    int equivalents = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        const auto small_a = lognormal_sample(1.00, 0.08, 10, 400 + seed);
        const auto small_b = lognormal_sample(1.06, 0.08, 10, 500 + seed);
        Rng r(600 + seed);
        if (cmp.compare(small_a, small_b, r) == Ordering::Equivalent) ++equivalents;
    }
    EXPECT_GE(equivalents, 8);
}

TEST(BootstrapComparator, EmptySamplesThrow) {
    const std::vector<double> empty;
    const std::vector<double> xs = {1.0, 2.0};
    const BootstrapComparator cmp;
    Rng rng(21);
    EXPECT_THROW((void)cmp.compare(empty, xs, rng), relperf::InvalidArgument);
    EXPECT_THROW((void)cmp.compare(xs, empty, rng), relperf::InvalidArgument);
}

TEST(BootstrapComparatorConfig, ValidationCatchesBadKnobs) {
    BootstrapComparatorConfig cfg;
    cfg.rounds = 0;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.quantile_lo = 0.7;
    cfg.quantile_hi = 0.3;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.tie_epsilon = -0.1;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg.tie_epsilon = std::numeric_limits<double>::infinity();
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg.tie_epsilon = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.decision_threshold = 0.0;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.decision_threshold = 1.1;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
}

namespace {

/// The value-selecting kernel the counting kernel replaced, verbatim: every
/// round's resamples and quantile are drawn into slabs in the per-round rng
/// order (a-resample, b-resample, quantile), then each round selects both
/// quantiles with stats::quantile_partial and tallies its verdict.
double slab_oracle_score(const BootstrapComparatorConfig& config,
                         std::span<const double> a, std::span<const double> b,
                         Rng& rng) {
    const std::size_t rounds = config.rounds;
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    std::vector<double> slab_a(rounds * na);
    std::vector<double> slab_b(rounds * nb);
    std::vector<double> quantiles(rounds);
    for (std::size_t r = 0; r < rounds; ++r) {
        double* row_a = slab_a.data() + r * na;
        for (std::size_t i = 0; i < na; ++i) {
            row_a[i] = a[static_cast<std::size_t>(rng.uniform_index(na))];
        }
        double* row_b = slab_b.data() + r * nb;
        for (std::size_t i = 0; i < nb; ++i) {
            row_b[i] = b[static_cast<std::size_t>(rng.uniform_index(nb))];
        }
        quantiles[r] = rng.uniform(config.quantile_lo, config.quantile_hi);
    }
    long wins_a = 0;
    long wins_b = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        const double q = quantiles[r];
        const double qa = relperf::stats::quantile_partial(
            std::span<double>(slab_a.data() + r * na, na), q);
        const double qb = relperf::stats::quantile_partial(
            std::span<double>(slab_b.data() + r * nb, nb), q);

        const double band = config.tie_epsilon * std::min(std::fabs(qa), std::fabs(qb));
        if (std::fabs(qa - qb) <= band) continue; // tie
        if (qa < qb) {
            ++wins_a; // lower is better
        } else {
            ++wins_b;
        }
    }
    return static_cast<double>(wins_a - wins_b) / static_cast<double>(config.rounds);
}

/// n values drawn from only `levels` distinct timings, so most values tie.
std::vector<double> tied_sample(int n, int levels, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
        out.push_back(1.0 + 0.01 * static_cast<double>(rng.uniform_index(levels)));
    }
    return out;
}

} // namespace

TEST(BootstrapComparator, CountingKernelMatchesTheSlabOracleBitForBit) {
    // Scores and the rng state after the call must both match the slab +
    // quantile_partial kernel exactly: every clustering, golden and cache
    // entry depends on the comparator's stream position as well as its value.
    struct Case {
        int na;
        int nb;
    };
    const Case sizes[] = {{1, 1}, {1, 3}, {2, 2}, {3, 7}, {7, 2},
                          {30, 30}, {30, 17}, {100, 257}, {257, 100}};
    const std::pair<double, double> quantile_bounds[] = {
        {0.35, 0.65}, {0.0, 0.0}, {1.0, 1.0}};
    const std::size_t round_counts[] = {1, 100, 400};

    // The seed's mixed-radix digits pick the case, so 324 seeds run every
    // size x bounds x rounds x tied combination twice: once with the default
    // tie band and once with none, where every quantile difference counts.
    core::BootstrapScratch scratch;
    for (std::uint64_t seed = 0; seed < 324; ++seed) {
        const Case& size = sizes[seed % 9];
        const auto& [q_lo, q_hi] = quantile_bounds[(seed / 9) % 3];
        BootstrapComparatorConfig config;
        config.rounds = round_counts[(seed / 27) % 3];
        config.quantile_lo = q_lo;
        config.quantile_hi = q_hi;
        config.tie_epsilon = seed < 162 ? 0.02 : 0.0;
        const bool tied = (seed / 81) % 2 == 0;
        const auto a = tied ? tied_sample(size.na, 3, seed * 2 + 1)
                            : lognormal_sample(1.0, 0.1, size.na, seed * 2 + 1);
        const auto b = tied ? tied_sample(size.nb, 4, seed * 2 + 2)
                            : lognormal_sample(1.02, 0.1, size.nb, seed * 2 + 2);

        Rng rng_kernel(seed + 1000);
        Rng rng_oracle(seed + 1000);
        const double kernel = BootstrapComparator(config).score(a, b, rng_kernel, scratch);
        const double oracle = slab_oracle_score(config, a, b, rng_oracle);
        EXPECT_EQ(kernel, oracle) << "seed " << seed;
        EXPECT_EQ(rng_kernel.bits(), rng_oracle.bits()) << "seed " << seed;
    }
}

TEST(BootstrapComparator, NaNSamplesThrow) {
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    const std::vector<double> with_nan = {1.0, std::nan(""), 3.0};
    const BootstrapComparator cmp;
    Rng rng(22);
    EXPECT_THROW((void)cmp.score(with_nan, xs, rng), relperf::InvalidArgument);
    EXPECT_THROW((void)cmp.score(xs, with_nan, rng), relperf::InvalidArgument);
}

TEST(BootstrapComparator, CallerOwnedScratchMatchesThreadLocalPath) {
    const BootstrapComparator cmp(BootstrapComparatorConfig{});
    const auto a = lognormal_sample(1.0, 0.2, 25, 7);
    const auto b = lognormal_sample(1.1, 0.2, 25, 8);
    core::BootstrapScratch scratch;
    for (int call = 0; call < 3; ++call) { // reuse exercises stale contents
        Rng rng_plain(42 + call);
        Rng rng_scratch(42 + call);
        EXPECT_EQ(cmp.score(a, b, rng_plain),
                  cmp.score(a, b, rng_scratch, scratch));
    }
}

TEST(BootstrapComparator, NameIsStable) {
    EXPECT_EQ(BootstrapComparator{}.name(), "bootstrap");
}
