#pragma once
//! \file dense_clustering.hpp
//! The dense reference implementation of Procedure 4: the oracle the sparse
//! RelativeClusterer::cluster is equivalence-tested against. It tallies the
//! ranks in a dense p x p counts matrix (O(p^2) memory, so keep p small) and
//! derives the relative scores, the cluster order and the final unique
//! assignment with its own arithmetic. It shares only the public sort pass
//! (RelativeClusterer::sort_once) and the documented per-repetition streams
//! with the production path.

#include "core/clustering.hpp"

namespace relperf::test {

/// Clusters `measurements` as RelativeClusterer(comparator, config).cluster
/// is specified to: repetition r shuffles the identity order and sorts it on
/// Rng(config.seed).child(r).
[[nodiscard]] core::Clustering cluster_dense(const core::Comparator& comparator,
                                             const core::ClustererConfig& config,
                                             const core::MeasurementSet& measurements);

} // namespace relperf::test
