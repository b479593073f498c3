#pragma once
//! \file cached_campaign.hpp
//! The cache-aware campaign entry point: a SampleSource decorator plus a
//! store around the one-host measurement path (campaign::measure_campaign).
//!
//! Outcomes (see result_cache.hpp for the lookup tiers):
//!
//!  - **Exact hit** — the entry's samples are re-clustered under the spec's
//!    analysis knobs and returned with zero executor draws
//!    (relperf_samples_total stays 0: only the executor-backed leaf sources
//!    count drawn samples).
//!  - **Prefix extension**, **miss** and **disabled cache** make the same
//!    call: measure_campaign over a CachedSampleSource
//!    (cached_source.hpp) wrapping the spec's source, which replays the
//!    entry's samples as each algorithm's stream prefix (nothing on a miss).
//!    The run sees the values a cold run would, so the result is
//!    bit-identical to one while only draws beyond the prefix reach the
//!    executor. The result is then stored (a no-op when the cache is
//!    disabled), creating or upgrading the entry.
//!
//! Cacheability: every plan. A one-host run measures the plan whole and
//! takes no shard count, and the plan hash excludes the spec's `shards`, so
//! one entry serves every value of it.

#include "cache/result_cache.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <cstddef>

namespace relperf::cache {

/// Outcome of a cache-aware campaign run.
struct CachedRunResult {
    core::AnalysisResult analysis;
    HitKind cache = HitKind::Miss; ///< Lookup tier that produced `analysis`.
    /// Samples served from the cache instead of the executor (all of them on
    /// an exact hit, the reused prefix on an extension, 0 on a miss).
    std::size_t samples_from_cache = 0;
};

/// campaign::run_campaign with the cache consulted first. A disabled cache
/// (empty dir) measures exactly as a miss does, without storing.
[[nodiscard]] CachedRunResult run_campaign_cached(
    const campaign::CampaignSpec& spec, ResultCache& cache);

} // namespace relperf::cache
