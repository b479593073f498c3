#pragma once
//! \file pipeline.hpp
//! End-to-end analysis pipeline: measure every device assignment of a task
//! chain (simulated or real executor), then cluster the resulting
//! distributions into performance classes. This is the library's main entry
//! point — the examples and most benches go through it.
//!
//! Every measure-then-cluster run goes through analyze_source: it measures a
//! SampleSource under an AnalysisConfig and decides, in that one place,
//! between fixed N (measure_all, then one clustering) and the adaptive
//! MeasurementEngine (AnalysisConfig::adaptive). analyze_chain and every
//! one-host campaign (campaign::measure_campaign, cold or cached) call it. measure_assignments and
//! measure_assignments_real measure a fixed N over measure_all without
//! clustering; their output is bit-identical to the pre-engine batch loops.

#include "core/bootstrap_comparator.hpp"
#include "core/clustering.hpp"
#include "core/measurement.hpp"
#include "core/measurement_engine.hpp"
#include "sim/executor.hpp"
#include "sim/real_executor.hpp"
#include "workloads/chain.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace relperf::core {

/// Seed of the independent measurement stream used for the assignment at
/// position `index` when the master rng was constructed from `master_seed`.
/// This is the sharding contract: a campaign shard that measures assignment
/// `index` with `stats::Rng(assignment_stream_seed(seed, index))` reproduces
/// the unsharded run bit-for-bit, regardless of which shard runs it or when.
/// It is also the adaptive-measurement contract: each assignment's sample is
/// a deterministic prefix-extensible sequence of its own stream, so early
/// stopping on one algorithm cannot perturb another's values.
[[nodiscard]] std::uint64_t assignment_stream_seed(std::uint64_t master_seed,
                                                   std::size_t index) noexcept;

/// Measures each assignment `n` times with the simulated executor.
/// Algorithm names follow the paper's convention ("algDDA").
///
/// Each assignment is measured on its own independent RNG stream derived from
/// the master rng's *construction seed* and the assignment's position in the
/// list (see assignment_stream_seed). Measurements of one assignment are thus
/// independent of every other assignment — the property the campaign sharder
/// relies on to split the list across shards without changing any value.
[[nodiscard]] MeasurementSet measure_assignments(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::DeviceAssignment>& assignments, std::size_t n,
    stats::Rng& rng);

/// Measured variant via the RealExecutor (wall-clock on this machine).
/// Uses the same per-assignment stream derivation as measure_assignments.
[[nodiscard]] MeasurementSet measure_assignments_real(
    const sim::RealExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::DeviceAssignment>& assignments, std::size_t n,
    stats::Rng& rng, std::size_t warmup = 1);

/// Analysis configuration bundling the paper's N and Rep with the comparator
/// knobs.
struct AnalysisConfig {
    std::size_t measurements_per_alg = 30; ///< Paper's N (fixed-N path).
    BootstrapComparatorConfig comparator;  ///< Comparison strategy knobs.
    ClustererConfig clustering;            ///< Rep + seed.
    std::uint64_t measurement_seed = 0xFEEDULL;
    /// When set, analyze_chain measures through the adaptive
    /// MeasurementEngine under these knobs (measurements_per_alg is ignored;
    /// the engine's min_n/max_n govern). `max_n == min_n` reproduces the
    /// fixed-N path bit for bit.
    std::optional<AdaptiveConfig> adaptive;
};

/// Result bundle: the raw distributions plus the clustering.
struct AnalysisResult {
    MeasurementSet measurements;
    Clustering clustering;
    /// Per-algorithm sample counts (all equal to N on the fixed path).
    std::vector<std::size_t> samples_per_alg;
    std::size_t total_samples = 0; ///< Sum of samples_per_alg.
    /// What the fixed-N plan would have cost (count * max_n);
    /// total_samples < fixed_n_samples quantifies the adaptive savings.
    /// analyze_measurements cannot know the cap of an externally measured
    /// set and defaults this to total_samples (zero savings); analyze_chain
    /// and campaign::run_campaign fill in the true plan cost.
    std::size_t fixed_n_samples = 0;
    /// Engine rounds (clusterings consulted) of an adaptive run; 0 when the
    /// set was measured fixed-N or came from elsewhere.
    std::size_t rounds = 0;
};

/// The one measure-then-cluster path: measures every algorithm of `source`
/// under `config` and clusters the result. With config.adaptive set the
/// MeasurementEngine runs its rounds and its published clustering and round
/// count are taken as is; otherwise every algorithm gets
/// config.measurements_per_alg samples and is clustered once.
/// fixed_n_samples is the plan's true cap either way.
[[nodiscard]] AnalysisResult analyze_source(SampleSource& source,
                                            const AnalysisConfig& config);

/// One-call pipeline over a simulated platform: analyze_source over the
/// assignments' executor-backed source.
[[nodiscard]] AnalysisResult analyze_chain(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::DeviceAssignment>& assignments,
    const AnalysisConfig& config);

/// One-call pipeline over an existing MeasurementSet (any source).
[[nodiscard]] AnalysisResult analyze_measurements(MeasurementSet measurements,
                                                  const AnalysisConfig& config);

} // namespace relperf::core
