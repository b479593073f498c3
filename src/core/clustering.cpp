#include "core/clustering.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace relperf::core {

double Clustering::score_of(std::size_t alg, int rank) const {
    RELPERF_REQUIRE(alg < final_assignment.size(),
                    "Clustering: algorithm out of range");
    if (rank < 1 || rank > cluster_count()) return 0.0;
    if (!memberships.empty()) {
        // Index-backed: the algorithm's own (rank, score) list, at most one
        // entry per distinct rank observed (<= min(Rep, cluster count)).
        for (const RankScore& m : memberships[alg]) {
            if (m.rank == rank) return m.score;
            if (m.rank > rank) break; // ascending
        }
        return 0.0;
    }
    // Hand-built Clustering without the index: scan the cluster.
    for (const ClusterEntry& e : clusters[static_cast<std::size_t>(rank - 1)]) {
        if (e.alg == alg) return e.score;
    }
    return 0.0;
}

int Clustering::final_rank(std::size_t alg) const {
    RELPERF_REQUIRE(alg < final_assignment.size(), "Clustering: algorithm out of range");
    return final_assignment[alg].rank;
}

void ClustererConfig::validate() const {
    RELPERF_REQUIRE(repetitions > 0, "ClustererConfig: repetitions must be positive");
}

RelativeClusterer::RelativeClusterer(const Comparator& comparator,
                                     ClustererConfig config)
    : comparator_(comparator), config_(config) {
    config_.validate();
}

RankedSequence RelativeClusterer::sort_once(const MeasurementSet& measurements,
                                            std::vector<std::size_t> initial_order,
                                            stats::Rng& rng) const {
    ThreeWaySorter sorter([&](std::size_t a, std::size_t b) {
        return comparator_.compare(measurements.samples(a), measurements.samples(b),
                                   rng);
    });
    return sorter.sort(std::move(initial_order));
}

RankedSequence RelativeClusterer::sort_once_traced(const MeasurementSet& measurements,
                                                   std::vector<std::size_t> initial_order,
                                                   stats::Rng& rng,
                                                   std::vector<SortStep>& trace) const {
    ThreeWaySorter sorter([&](std::size_t a, std::size_t b) {
        return comparator_.compare(measurements.samples(a), measurements.samples(b),
                                   rng);
    });
    return sorter.sort_traced(std::move(initial_order), trace);
}

Clustering RelativeClusterer::cluster(const MeasurementSet& measurements) const {
    RELPERF_REQUIRE(!measurements.empty(), "RelativeClusterer: no algorithms");
    const std::size_t p = measurements.size();
    obs::Span span("clusterer.cluster", "core");
    span.arg("algorithms", static_cast<std::uint64_t>(p))
        .arg("repetitions", static_cast<std::uint64_t>(config_.repetitions));
    obs::metrics().clusterings_total.inc();
    const stats::Rng master(config_.seed);

    // counts[alg] = ascending (rank, count) pairs actually observed — at
    // most min(Rep, cluster count) entries, never p.
    std::vector<std::vector<std::pair<int, std::size_t>>> counts(p);
    int max_rank_seen = 0;
    std::vector<std::size_t> order(p);

    for (std::size_t rep = 0; rep < config_.repetitions; ++rep) {
        stats::Rng rng = master.child(rep);
        // Procedure 4 line 4: Shuffle(A).
        std::iota(order.begin(), order.end(), std::size_t{0});
        rng.shuffle(order);
        // Procedure 4 line 5: SortAlgs(A).
        const RankedSequence seq = sort_once(measurements, order, rng);

        for (std::size_t pos = 0; pos < p; ++pos) {
            const int rank = seq.ranks[pos];
            RELPERF_ASSERT(rank >= 1 && rank <= static_cast<int>(p),
                           "RelativeClusterer: rank out of range");
            auto& per_alg = counts[seq.order[pos]];
            auto it = std::find_if(per_alg.begin(), per_alg.end(),
                                   [rank](const auto& rc) {
                                       return rc.first == rank;
                                   });
            if (it == per_alg.end()) {
                per_alg.emplace_back(rank, std::size_t{1});
            } else {
                ++it->second;
            }
            max_rank_seen = std::max(max_rank_seen, rank);
        }
    }

    for (auto& per_alg : counts) {
        std::sort(per_alg.begin(), per_alg.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
    }

    Clustering out;
    out.repetitions = config_.repetitions;
    out.clusters.resize(static_cast<std::size_t>(max_rank_seen));
    out.memberships.resize(p);

    // Relative scores (Procedure 4 lines 10-12).
    const double reps = static_cast<double>(config_.repetitions);
    for (std::size_t alg = 0; alg < p; ++alg) {
        for (const auto& [rank, w] : counts[alg]) {
            const double score = static_cast<double>(w) / reps;
            out.clusters[static_cast<std::size_t>(rank - 1)].push_back(
                ClusterEntry{alg, score});
            out.memberships[alg].push_back(RankScore{rank, score});
        }
    }
    for (auto& cluster : out.clusters) {
        std::sort(cluster.begin(), cluster.end(),
                  [](const ClusterEntry& a, const ClusterEntry& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.alg < b.alg;
                  });
    }

    // Final unique assignment (Sec. III): max-score rank, ties towards the
    // better rank, score cumulated over better-or-equal ranks.
    out.final_assignment.resize(p);
    for (std::size_t alg = 0; alg < p; ++alg) {
        int best_rank = 1;
        std::size_t best_count = 0;
        for (const auto& [rank, w] : counts[alg]) {
            if (w > best_count) {
                best_count = w;
                best_rank = rank;
            }
        }
        RELPERF_ASSERT(best_count > 0, "RelativeClusterer: algorithm never ranked");
        double cumulated = 0.0;
        for (const auto& [rank, w] : counts[alg]) {
            if (rank > best_rank) break; // ascending rank order
            cumulated += static_cast<double>(w) / reps;
        }
        out.final_assignment[alg] = FinalAssignment{alg, best_rank, cumulated};
    }
    return out;
}

} // namespace relperf::core
