#include "cache/cached_source.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <span>

namespace relperf::cache {

CachedSampleSource::CachedSampleSource(core::SampleSource& inner,
                                       const core::MeasurementSet& cached)
    : inner_(inner),
      cached_(cached),
      consumed_(inner.count(), 0),
      inner_skipped_(inner.count(), 0) {
    RELPERF_REQUIRE(cached_.empty() || cached_.size() == inner_.count(),
                    "CachedSampleSource: cached entry enumerates " +
                        std::to_string(cached_.size()) +
                        " algorithms, the source " +
                        std::to_string(inner_.count()));
    for (std::size_t i = 0; i < cached_.size(); ++i) {
        RELPERF_REQUIRE(cached_.name(i) == inner_.name(i),
                        "CachedSampleSource: algorithm order mismatch at "
                        "index " +
                            std::to_string(i) + ": cached '" + cached_.name(i) +
                            "' vs source '" + inner_.name(i) + "'");
    }
}

std::size_t CachedSampleSource::count() const { return inner_.count(); }

std::string CachedSampleSource::name(std::size_t index) const {
    return inner_.name(index);
}

std::span<const double> CachedSampleSource::prefix(std::size_t index) const {
    if (cached_.empty()) return {};
    return cached_.samples(index);
}

void CachedSampleSource::sync_inner(std::size_t index) {
    const std::size_t cached_consumed =
        std::min(consumed_[index], prefix(index).size());
    if (inner_skipped_[index] < cached_consumed) {
        inner_.skip(index, cached_consumed - inner_skipped_[index]);
        inner_skipped_[index] = cached_consumed;
    }
}

std::vector<double> CachedSampleSource::draw(std::size_t index,
                                             std::size_t n) {
    std::vector<double> out;
    out.reserve(n);
    const std::span<const double> cached = prefix(index);
    std::size_t& pos = consumed_[index];
    // Serve as much as possible from the cached prefix — the samples the
    // original run already paid for.
    const std::size_t from_cache =
        pos < cached.size() ? std::min(n, cached.size() - pos) : 0;
    if (from_cache > 0) {
        out.insert(out.end(), cached.begin() + static_cast<std::ptrdiff_t>(pos),
                   cached.begin() + static_cast<std::ptrdiff_t>(pos + from_cache));
        pos += from_cache;
        served_ += from_cache;
        obs::metrics().cache_extension_samples_saved_total.inc(from_cache);
    }
    const std::size_t remainder = n - from_cache;
    if (remainder > 0) {
        // First draw beyond the prefix: bring the inner stream to where the
        // original run's would be, then measure only the delta.
        sync_inner(index);
        const std::vector<double> fresh = inner_.draw(index, remainder);
        out.insert(out.end(), fresh.begin(), fresh.end());
        pos += remainder;
    }
    return out;
}

void CachedSampleSource::skip(std::size_t index, std::size_t n) {
    const std::size_t cached = prefix(index).size();
    std::size_t& pos = consumed_[index];
    const std::size_t in_prefix =
        pos < cached ? std::min(n, cached - pos) : 0;
    // Skipping within the prefix is free: the inner stream is fast-forwarded
    // lazily if a later draw ever goes beyond it.
    pos += in_prefix;
    const std::size_t beyond = n - in_prefix;
    if (beyond > 0) {
        sync_inner(index);
        inner_.skip(index, beyond);
        pos += beyond;
    }
}

} // namespace relperf::cache
