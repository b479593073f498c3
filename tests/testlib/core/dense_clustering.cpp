#include "core/dense_clustering.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

namespace relperf::test {

core::Clustering cluster_dense(const core::Comparator& comparator,
                               const core::ClustererConfig& config,
                               const core::MeasurementSet& measurements) {
    RELPERF_REQUIRE(!measurements.empty(), "cluster_dense: no algorithms");
    const std::size_t p = measurements.size();
    const core::RelativeClusterer clusterer(comparator, config);
    const stats::Rng master(config.seed);

    // counts[alg][rank - 1] = repetitions that gave `alg` that rank.
    std::vector<std::vector<std::size_t>> counts(p, std::vector<std::size_t>(p, 0));
    std::size_t ranks_seen = 0;
    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
        stats::Rng rng = master.child(rep);
        std::vector<std::size_t> order(p);
        std::iota(order.begin(), order.end(), std::size_t{0});
        rng.shuffle(order);
        const core::RankedSequence seq =
            clusterer.sort_once(measurements, std::move(order), rng);
        for (std::size_t pos = 0; pos < p; ++pos) {
            const auto rank = static_cast<std::size_t>(seq.ranks[pos]);
            RELPERF_REQUIRE(rank >= 1 && rank <= p, "cluster_dense: rank out of range");
            ++counts[seq.order[pos]][rank - 1];
            ranks_seen = std::max(ranks_seen, rank);
        }
    }

    const double reps = static_cast<double>(config.repetitions);
    core::Clustering out;
    out.repetitions = config.repetitions;

    // Cluster r lists every algorithm ranked r at least once, by descending
    // score; the stable sort keeps ascending ids among equal scores.
    out.clusters.resize(ranks_seen);
    for (std::size_t r = 0; r < ranks_seen; ++r) {
        for (std::size_t alg = 0; alg < p; ++alg) {
            if (counts[alg][r] > 0) {
                out.clusters[r].push_back(core::ClusterEntry{
                    alg, static_cast<double>(counts[alg][r]) / reps});
            }
        }
        std::stable_sort(out.clusters[r].begin(), out.clusters[r].end(),
                         [](const core::ClusterEntry& a, const core::ClusterEntry& b) {
                             return a.score > b.score;
                         });
    }

    // Final assignment: the most frequent rank, the best such rank on a tie
    // (scanning from the worst rank, `>=` lets a better rank take over), its
    // score summed over that rank and every better one.
    out.memberships.resize(p);
    out.final_assignment.resize(p);
    for (std::size_t alg = 0; alg < p; ++alg) {
        for (std::size_t r = 0; r < ranks_seen; ++r) {
            if (counts[alg][r] > 0) {
                out.memberships[alg].push_back(core::RankScore{
                    static_cast<int>(r + 1),
                    static_cast<double>(counts[alg][r]) / reps});
            }
        }
        std::size_t best = 0;
        std::size_t best_count = 0;
        for (std::size_t r = ranks_seen; r-- > 0;) {
            if (counts[alg][r] > 0 && counts[alg][r] >= best_count) {
                best_count = counts[alg][r];
                best = r;
            }
        }
        double cumulated = 0.0;
        for (std::size_t r = 0; r <= best; ++r) {
            cumulated += static_cast<double>(counts[alg][r]) / reps;
        }
        out.final_assignment[alg] =
            core::FinalAssignment{alg, static_cast<int>(best + 1), cumulated};
    }
    return out;
}

} // namespace relperf::test
