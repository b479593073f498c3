#pragma once
//! \file runner.hpp
//! Campaign execution on this host. Every variant draws from the RNG stream
//! derived from the campaign's measurement seed and its *global* index
//! (core::assignment_stream_seed), so splitting a plan into K shards changes
//! no measured value. A one-host run therefore measures the plan whole and
//! takes no shard count: measure_campaign runs one core::analyze_source
//! call over the full variant list, and run_campaign,
//! run_coordinated_campaign and the result cache all go through it.
//! run_shard measures the assignments one shard of a fixed-N plan owns (the
//! `--shard i/K` step of a multi-host campaign, where K means something);
//! it refuses adaptive plans, whose stop decisions watch the clustering of
//! all algorithms and so need the whole plan on one host.

#include "campaign/shard_io.hpp"
#include "campaign/sharder.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <cstddef>
#include <memory>
#include <optional>

namespace relperf::campaign {

/// Measures shard `shard_index` of `spec`'s fixed-N plan split into
/// `shard_count` shards (the `--shard i/K` step). Pass shard_count = 0 to
/// use spec.shards. The result's manifest is plan_manifest's. Throws
/// InvalidArgument on an adaptive spec: its stop decisions watch the
/// clustering of all algorithms, so it runs whole through run_campaign
/// (relperf_cli --run).
[[nodiscard]] ShardResult run_shard(const CampaignSpec& spec,
                                    std::size_t shard_index,
                                    std::size_t shard_count = 0);

/// The manifest of shard `shard_index` of `shard_count` holding
/// `measured`: the plan hash, the shard reference, this host, the backends,
/// the provenance record and, for adaptive plans, the stopping knobs and the
/// per-algorithm counts. The provenance record is a pure function of build,
/// host and spec, so shard files stay byte-identical with obs on or off.
/// Shard files and result-cache entries (shard 0 of 1) both carry it.
[[nodiscard]] ShardManifest plan_manifest(const CampaignSpec& spec,
                                          std::size_t shard_index,
                                          std::size_t shard_count,
                                          const core::MeasurementSet& measured);

/// An adaptive campaign's analysis plus the engine's round count.
struct CoordinatedCampaignResult {
    /// Measurements in global enumeration order, the engine's clustering,
    /// fixed_n_samples set to the plan's true cap.
    core::AnalysisResult analysis;
    std::size_t rounds = 0; ///< Engine rounds (clusterings consulted).
};

/// The one-host measurement of a plan: one core::analyze_source call over
/// `source`, which must enumerate the spec's full global variant list on
/// the per-assignment streams of core::assignment_stream_seed
/// (GlobalSampleSource, or a decorator over it such as the result cache's
/// replaying source). fixed_n_samples is the plan's true cap, and an
/// adaptive plan's result carries the engine's round count.
[[nodiscard]] core::AnalysisResult measure_campaign(const CampaignSpec& spec,
                                                    core::SampleSource& source);

/// Measures an adaptive spec through measure_campaign over `source` and
/// reports the engine's round count alongside. `shard_count` must be a
/// valid split of the plan (1 <= K <= algorithms); it changes no measured
/// value. Throws InvalidArgument on a fixed-N spec.
[[nodiscard]] CoordinatedCampaignResult run_coordinated_campaign(
    const CampaignSpec& spec, std::size_t shard_count,
    core::SampleSource& source);

/// Owns the spec's executor plus the engine sample source over the spec's
/// variants, each drawing from the stream derived from its *global* index
/// (core::assignment_stream_seed). By default the source enumerates the
/// full global variant list; given a ShardPlan it enumerates only that
/// shard's variants, in plan order. This is the one place a campaign's
/// executor and source are built: run_shard measures its plan through it,
/// measure_campaign's callers the full list. The executor lives as long as
/// the bundle, so the source reference stays valid. Throws before measuring
/// anything when this build lacks one of the plan's backends.
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

} // namespace relperf::campaign
