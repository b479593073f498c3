#pragma once
//! \file merge.hpp
//! Merge-then-cluster for shard files, and the one-host campaign entry
//! point. merge_shards validates a set of shard results against the
//! campaign spec and stitches them back into the unsharded MeasurementSet:
//! the collect step of the fixed-N `--shard`/`--merge` flow and the result
//! cache's entry check (an entry is shard 0 of 1). Validation is strict —
//! a merge over shards from a different plan (spec hash mismatch), a
//! duplicate shard, a missing shard or a shard whose contents disagree with
//! its plan is a hard error, because a silently wrong merge would produce a
//! confidently wrong clustering.

#include "campaign/shard_io.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <vector>

namespace relperf::campaign {

/// Validates `shards` against `spec` and returns the merged MeasurementSet
/// in global enumeration order — bit-identical to what the single-process
/// pipeline measures. Shards may arrive in any order. Throws relperf::Error
/// on: empty input, spec-hash mismatch, inconsistent or duplicate shard
/// indices, missing shards, or per-shard contents that do not match the
/// shard's plan (wrong algorithms or sample counts).
[[nodiscard]] core::MeasurementSet merge_shards(
    const CampaignSpec& spec, const std::vector<ShardResult>& shards);

/// Single-host campaign: the whole plan measured once through
/// measure_campaign over the full variant list, fixed-N and adaptive alike.
[[nodiscard]] core::AnalysisResult run_campaign(const CampaignSpec& spec);

} // namespace relperf::campaign
