#pragma once
//! \file runner.hpp
//! Shard execution. run_shard() measures exactly the assignments a shard
//! owns, on per-assignment RNG streams derived from the campaign's
//! measurement seed and each assignment's *global* index
//! (core::assignment_stream_seed) — so the union of all shards reproduces
//! the single-process pipeline bit-for-bit, no matter where or in which
//! order the shards ran. LocalShardRunner fans the shards of one campaign
//! out across worker threads on this machine.

#include "campaign/shard_io.hpp"
#include "campaign/sharder.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

namespace relperf::campaign {

/// Measures shard `shard_index` of `spec`'s plan split into `shard_count`
/// shards. Pass shard_count = 0 to use spec.shards. The result's manifest
/// carries the spec hash, the shard reference and this host's name.
[[nodiscard]] ShardResult run_shard(const CampaignSpec& spec,
                                    std::size_t shard_index,
                                    std::size_t shard_count = 0);

/// Outcome of a coordinated adaptive campaign: the merged analysis plus the
/// per-shard results (for shard-file emission) and the coordinator's
/// broadcast history.
struct CoordinatedCampaignResult {
    /// Final merged analysis — measurements in global enumeration order,
    /// clustering identical to analyze_measurements on them, with
    /// fixed_n_samples restored to the plan's true cap.
    core::AnalysisResult analysis;
    /// Per-shard slices of the coordinated run, ordered by shard index. Each
    /// manifest records the coordinated plan and the broadcast history, so
    /// the files a coordinated campaign writes re-merge like any others.
    std::vector<ShardResult> shards;
    /// Cumulative global stop-set size after each coordinator round.
    std::vector<std::size_t> stopset_rounds;
    std::size_t rounds = 0; ///< Coordinator rounds (clusterings consulted).
};

/// Runs an adaptive campaign with cross-shard coordinated stopping: between
/// rounds the coordinator re-clusters the *merged* measurements of all
/// shards and broadcasts the global stop-set, so stop decisions watch the
/// same statistic the final analysis reports. Because every variant draws
/// from the stream derived from its global index and the stop-set is global,
/// per-algorithm sample counts are K-invariant: shard_count only changes how
/// the results are sliced into shard files, never a measured value — and
/// with shard_count = 1 the run is bit-identical to the shard-local engine.
/// Requires an adaptive spec with adaptive_coordinated set (the key is
/// measurement-determining, so the manifests and the plan hash must record
/// it; relperf_cli --coordinated sets it on the loaded spec). shard_count =
/// 0 uses spec.shards.
[[nodiscard]] CoordinatedCampaignResult run_coordinated_campaign(
    const CampaignSpec& spec, std::size_t shard_count = 0);

/// As above, but drawing from `source` instead of building the spec's
/// executor-backed source internally. `source` must enumerate the spec's
/// full global variant list in order, on the per-assignment streams of
/// core::assignment_stream_seed — the seam the result cache's
/// prefix-extension path uses to serve already-measured draws from disk
/// while fresh draws fall through to the real executor.
[[nodiscard]] CoordinatedCampaignResult run_coordinated_campaign(
    const CampaignSpec& spec, std::size_t shard_count,
    core::SampleSource& source);

/// Owns the spec's executor plus the engine sample source over the spec's
/// variants, each drawing from the stream derived from its *global* index
/// (core::assignment_stream_seed). By default the source enumerates the
/// full global variant list; given a ShardPlan it enumerates only that
/// shard's variants, in plan order. This is the one place a campaign's
/// executor and source are built: run_shard measures its plan through it,
/// the coordinator and the result cache's prefix-extension path the full
/// list. The executor lives as long as the bundle, so the source reference
/// stays valid. Throws before measuring anything when this build lacks one
/// of the plan's backends.
class GlobalSampleSource {
public:
    explicit GlobalSampleSource(const CampaignSpec& spec,
                                std::optional<ShardPlan> plan = std::nullopt);
    ~GlobalSampleSource();
    GlobalSampleSource(const GlobalSampleSource&) = delete;
    GlobalSampleSource& operator=(const GlobalSampleSource&) = delete;

    [[nodiscard]] core::SampleSource& source();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Runs every shard of a campaign on this machine.
class LocalShardRunner {
public:
    /// `workers` = maximum concurrent shard threads; 0 means one per
    /// hardware thread. Campaigns with ExecutorKind::Real always run their
    /// shards sequentially regardless of `workers`: concurrent wall-clock
    /// measurement on one machine would contend for the CPUs being measured.
    explicit LocalShardRunner(std::size_t workers = 0);

    /// Runs all `shard_count` (0 = spec.shards) shards; returns them ordered
    /// by shard index. The first worker exception, if any, is rethrown.
    [[nodiscard]] std::vector<ShardResult> run(const CampaignSpec& spec,
                                               std::size_t shard_count = 0) const;

private:
    std::size_t workers_;
};

} // namespace relperf::campaign
