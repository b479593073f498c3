#include "core/bootstrap_comparator.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace relperf::core {

namespace {

/// Fills `table` for one sample: its values in ascending order, and the sorted
/// position of every original index (ties broken by index). `counts` serves
/// as the index permutation here and is zeroed before every round.
void build_rank_table(BootstrapScratch::RankTable& table, std::span<const double> x) {
    const std::size_t n = x.size();
    table.sorted.resize(n);
    table.rank_of.resize(n);
    table.counts.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        RELPERF_REQUIRE(!std::isnan(x[i]), "BootstrapComparator: NaN in sample");
        table.counts[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(table.counts.begin(), table.counts.end(),
              [x](std::uint32_t i, std::uint32_t j) {
                  return x[i] < x[j] || (x[i] == x[j] && i < j);
              });
    for (std::size_t k = 0; k < n; ++k) {
        table.sorted[k] = x[table.counts[k]];
        table.rank_of[table.counts[k]] = static_cast<std::uint32_t>(k);
    }
}

/// Draws one with-replacement resample of the table's sample as per-rank
/// counts, consuming the rng exactly as drawing the values would.
void draw_resample(BootstrapScratch::RankTable& table, stats::Rng& rng) {
    const std::size_t n = table.sorted.size();
    std::fill(table.counts.begin(), table.counts.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
        ++table.counts[table.rank_of[static_cast<std::size_t>(rng.uniform_index(n))]];
    }
}

/// stats::quantile_partial of the drawn resample, bit for bit: the order
/// statistics lo and lo+1 come from one cumulative walk over the counts.
double resample_quantile(const BootstrapScratch::RankTable& table, double p) {
    const std::size_t n = table.sorted.size();
    if (n == 1) return table.sorted[0];
    const double h = p * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = h - static_cast<double>(lo);
    std::size_t k = 0;
    std::size_t seen = table.counts[0];
    while (seen <= lo) seen += table.counts[++k];
    const double v_lo = table.sorted[k];
    while (seen <= hi) seen += table.counts[++k];
    const double v_hi = table.sorted[k];
    return v_lo + frac * (v_hi - v_lo);
}

} // namespace

void BootstrapComparatorConfig::validate() const {
    RELPERF_REQUIRE(rounds > 0, "BootstrapComparator: rounds must be positive");
    RELPERF_REQUIRE(0.0 <= quantile_lo && quantile_lo <= quantile_hi && quantile_hi <= 1.0,
                    "BootstrapComparator: need 0 <= quantile_lo <= quantile_hi <= 1");
    // An infinite band would tie every pair and put all algorithms in C1.
    RELPERF_REQUIRE(std::isfinite(tie_epsilon) && tie_epsilon >= 0.0,
                    "BootstrapComparator: tie_epsilon must be finite and >= 0");
    RELPERF_REQUIRE(decision_threshold > 0.0 && decision_threshold <= 1.0,
                    "BootstrapComparator: decision_threshold must be in (0, 1]");
}

BootstrapComparator::BootstrapComparator(BootstrapComparatorConfig config)
    : config_(config) {
    config_.validate();
}

double BootstrapComparator::score(std::span<const double> a, std::span<const double> b,
                                  stats::Rng& rng) const {
    static thread_local BootstrapScratch scratch;
    return score(a, b, rng, scratch);
}

double BootstrapComparator::score(std::span<const double> a, std::span<const double> b,
                                  stats::Rng& rng, BootstrapScratch& scratch) const {
    RELPERF_REQUIRE(!a.empty() && !b.empty(), "BootstrapComparator: empty sample");

    // Counter only, no span: score() sits inside the clusterer's sort inner
    // loop, where even an unarmed span's ctor/dtor pair would be noise.
    obs::metrics().bootstrap_resamples_total.inc(2 * config_.rounds);

    // A resample's order statistics depend only on which indices it drew,
    // so each round counts draws per sorted rank instead of copying and
    // selecting values. The per-round rng order (a-resample, b-resample,
    // quantile) must not change: every seeded score, clustering and golden
    // depends on it.
    build_rank_table(scratch.a, a);
    build_rank_table(scratch.b, b);
    long wins_a = 0;
    long wins_b = 0;
    for (std::size_t r = 0; r < config_.rounds; ++r) {
        draw_resample(scratch.a, rng);
        draw_resample(scratch.b, rng);
        const double q = rng.uniform(config_.quantile_lo, config_.quantile_hi);
        const double qa = resample_quantile(scratch.a, q);
        const double qb = resample_quantile(scratch.b, q);

        const double band =
            config_.tie_epsilon * std::min(std::fabs(qa), std::fabs(qb));
        if (std::fabs(qa - qb) <= band) continue; // tie
        if (qa < qb) {
            ++wins_a; // lower is better
        } else {
            ++wins_b;
        }
    }
    return static_cast<double>(wins_a - wins_b) /
           static_cast<double>(config_.rounds);
}

Ordering BootstrapComparator::compare(std::span<const double> a,
                                      std::span<const double> b,
                                      stats::Rng& rng) const {
    const double s = score(a, b, rng);
    if (s > config_.decision_threshold) return Ordering::Better;
    if (s < -config_.decision_threshold) return Ordering::Worse;
    return Ordering::Equivalent;
}

} // namespace relperf::core
