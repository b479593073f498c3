#include "cache/cached_campaign.hpp"

#include "cache/cached_source.hpp"
#include "campaign/runner.hpp"
#include "obs/metrics.hpp"

#include <utility>

namespace relperf::cache {

CachedRunResult run_campaign_cached(const campaign::CampaignSpec& spec,
                                    ResultCache& cache) {
    spec.validate();
    CacheLookup lookup;
    if (cache.config().enabled()) lookup = cache.lookup(spec);
    if (lookup.kind == HitKind::Exact) {
        // Re-cluster the cached samples under the spec's analysis knobs —
        // byte-identical to the original analysis, zero executor draws.
        CachedRunResult out;
        out.analysis = core::analyze_measurements(std::move(lookup.merged),
                                                  spec.analysis_config());
        out.analysis.fixed_n_samples =
            out.analysis.measurements.size() * spec.measurements;
        out.cache = HitKind::Exact;
        out.samples_from_cache = out.analysis.total_samples;
        obs::metrics().cache_extension_samples_saved_total.inc(
            out.samples_from_cache);
        return out;
    }

    // Miss, prefix extension and disabled cache make the same call: the one
    // engine over the spec's source, with whatever the entry holds replayed
    // as each algorithm's stream prefix (nothing on a miss). Identical
    // values in identical order make every decision identical to a cold
    // run, and only draws beyond the prefix reach the executor.
    campaign::GlobalSampleSource bundle(spec);
    CachedSampleSource replay(bundle.source(), lookup.merged);
    CachedRunResult out;
    out.analysis = campaign::measure_campaign(spec, replay);
    out.cache = lookup.kind;
    out.samples_from_cache = replay.served();
    cache.store(spec, out.analysis.measurements);
    return out;
}

} // namespace relperf::cache
