#pragma once
//! \file shard_slices.hpp
//! Shard results cut from a whole-campaign measurement. run_shard measures
//! fixed-N plans only, so tests that feed merge_shards adaptive shards build
//! them here: each shard holds its plan's slice of a run_campaign result,
//! and its manifest is campaign::plan_manifest's, exactly as the result
//! cache builds its entries (shard 0 of 1).

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/measurement.hpp"

#include <cstddef>
#include <vector>

namespace relperf::test {

/// The `shard_count` shard results of `spec`'s split holding `measured`
/// (the full plan, in global enumeration order), ordered by shard index.
[[nodiscard]] std::vector<campaign::ShardResult> slice_shards(
    const campaign::CampaignSpec& spec, const core::MeasurementSet& measured,
    std::size_t shard_count);

} // namespace relperf::test
