//! The result cache's contract, end to end:
//!
//!  * exact hit — zero executor draws, byte-identical re-clustering, whatever
//!    shard count the spec names (the entry is keyed by the plan);
//!  * prefix extension — bit-identical to a cold full run (fixed-N,
//!    single-shard adaptive and coordinated adaptive), only the budget delta
//!    drawn, and the entry upgraded in place;
//!  * the CachedSampleSource replay/skip stream algebra;
//!  * every plan is cacheable whatever its spec's K (adaptive counts never
//!    depend on it);
//!  * failure modes: truncated payloads, tampered manifests, dropped rows,
//!    garbage sidecars, unusable directories, leftover temp files — all
//!    degrade to a miss (and self-repair on the next store), never an error;
//!  * deterministic logical-clock LRU eviction.

#include "cache/cached_campaign.hpp"

#include "cache/cached_source.hpp"
#include "cache/result_cache.hpp"
#include "campaign/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

#include "temp_path.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace cache = relperf::cache;
namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace obs = relperf::obs;
namespace fs = std::filesystem;

namespace {

campaign::CampaignSpec small_spec() {
    campaign::CampaignSpec spec;
    spec.name = "gtest-cache";
    spec.sizes = {32, 64, 128};
    spec.iters = 4;
    spec.platform = "paper-cpu-gpu";
    spec.measurements = 15;
    spec.measurement_seed = 1234;
    spec.clustering_repetitions = 50;
    spec.clustering_seed = 99;
    return spec;
}

campaign::CampaignSpec adaptive_spec() {
    campaign::CampaignSpec spec = small_spec();
    spec.measurements = 20;
    spec.adaptive_min = 6;
    spec.adaptive_batch = 4;
    spec.adaptive_stability = 2;
    return spec;
}

campaign::CampaignSpec coordinated_spec() {
    campaign::CampaignSpec spec = adaptive_spec();
    spec.adaptive_coordinated = true;
    return spec;
}

void expect_sets_identical(const core::MeasurementSet& a,
                           const core::MeasurementSet& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.name(i), b.name(i));
        const auto sa = a.samples(i);
        const auto sb = b.samples(i);
        ASSERT_EQ(sa.size(), sb.size()) << a.name(i);
        for (std::size_t k = 0; k < sa.size(); ++k) {
            EXPECT_EQ(sa[k], sb[k]) << a.name(i) << " sample " << k;
        }
    }
}

void expect_clusterings_identical(const core::Clustering& a,
                                  const core::Clustering& b) {
    ASSERT_EQ(a.cluster_count(), b.cluster_count());
    ASSERT_EQ(a.final_assignment.size(), b.final_assignment.size());
    for (std::size_t alg = 0; alg < a.final_assignment.size(); ++alg) {
        EXPECT_EQ(a.final_assignment[alg].rank, b.final_assignment[alg].rank)
            << "alg " << alg;
        EXPECT_DOUBLE_EQ(a.final_assignment[alg].score,
                         b.final_assignment[alg].score)
            << "alg " << alg;
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
}

/// Fresh cache directory per test, obs off and zeroed around each case.
class CacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_metrics_enabled(false);
        obs::set_tracing_enabled(false);
        obs::registry().reset_values();
        dir_ = relperf::test::temp_path("cache");
        fs::remove_all(dir_);
    }
    void TearDown() override {
        fs::remove_all(dir_);
        obs::set_metrics_enabled(false);
        obs::registry().reset_values();
    }

    [[nodiscard]] cache::ResultCache make_cache() const {
        return cache::ResultCache(cache::CacheConfig{dir_, 0, 0});
    }

    /// The single on-disk file with `extension` ("csv"/"meta") — entries are
    /// content-addressed, so tests locate them by suffix, not by hash.
    [[nodiscard]] std::string only_file(const std::string& extension) const {
        std::vector<std::string> matches;
        for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
            if (entry.path().extension() == "." + extension) {
                matches.push_back(entry.path().string());
            }
        }
        EXPECT_EQ(matches.size(), 1u) << "*." << extension << " in " << dir_;
        return matches.empty() ? std::string() : matches.front();
    }

    std::string dir_;
};

} // namespace

TEST_F(CacheTest, ExactHitDrawsNothingAndReclustersByteIdentically) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();

    const cache::CachedRunResult cold =
        cache::run_campaign_cached(spec, result_cache);
    EXPECT_EQ(cold.cache, cache::HitKind::Miss);
    EXPECT_EQ(cold.samples_from_cache, 0u);
    EXPECT_EQ(result_cache.stats().entries, 1u);

    obs::set_metrics_enabled(true);
    obs::registry().reset_values();
    const obs::Metrics& m = obs::metrics();
    // Served to a spec naming a different shard count: the entry is keyed
    // by the plan hash, which does not include K.
    campaign::CampaignSpec resharded = spec;
    resharded.shards = 3;
    const cache::CachedRunResult warm =
        cache::run_campaign_cached(resharded, result_cache);
    EXPECT_EQ(warm.cache, cache::HitKind::Exact);
    EXPECT_EQ(m.samples_total.value(), 0u) << "an exact hit must not draw";
    EXPECT_EQ(m.executions_total.value(), 0u);
    EXPECT_EQ(m.cache_hits_total.value(), 1u);
    EXPECT_EQ(warm.samples_from_cache, warm.analysis.total_samples);
    EXPECT_EQ(m.cache_extension_samples_saved_total.value(),
              warm.samples_from_cache);

    expect_sets_identical(warm.analysis.measurements,
                          cold.analysis.measurements);
    expect_clusterings_identical(warm.analysis.clustering,
                                 cold.analysis.clustering);
    EXPECT_EQ(warm.analysis.fixed_n_samples, cold.analysis.fixed_n_samples);
}

TEST_F(CacheTest, FixedNPrefixExtensionIsBitIdenticalToAColdRun) {
    campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);

    campaign::CampaignSpec bigger = spec;
    bigger.measurements = 25;
    obs::set_metrics_enabled(true);
    obs::registry().reset_values();
    const obs::Metrics& m = obs::metrics();
    const cache::CachedRunResult extended =
        cache::run_campaign_cached(bigger, result_cache);
    EXPECT_EQ(extended.cache, cache::HitKind::Prefix);
    EXPECT_EQ(m.cache_extensions_total.value(), 1u);
    // Exactly the cached prefix was served and exactly the delta drawn.
    const std::size_t algorithms = extended.analysis.measurements.size();
    EXPECT_EQ(extended.samples_from_cache, algorithms * spec.measurements);
    EXPECT_EQ(m.samples_total.value(),
              algorithms * (bigger.measurements - spec.measurements));

    const core::AnalysisResult cold = campaign::run_campaign(bigger);
    expect_sets_identical(extended.analysis.measurements, cold.measurements);
    expect_clusterings_identical(extended.analysis.clustering,
                                 cold.clustering);

    // The extended result was published under its own plan hash: the bigger
    // budget now hits exactly, and the original entry stays valid for its
    // budget (the byte/entry caps bound the accumulation).
    EXPECT_EQ(result_cache.stats().entries, 2u);
    EXPECT_EQ(result_cache.lookup(bigger).kind, cache::HitKind::Exact);
    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
}

TEST_F(CacheTest, AdaptivePrefixExtensionReplaysTheEngineBitIdentically) {
    // The engine re-runs from scratch over the replayed prefix: identical
    // values in identical order force identical stop decisions, so the
    // extended result equals a cold engine run of the bigger cap.
    campaign::CampaignSpec spec = adaptive_spec();
    spec.measurements = 12;
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);

    campaign::CampaignSpec bigger = spec;
    bigger.measurements = 20;
    const cache::CachedRunResult extended =
        cache::run_campaign_cached(bigger, result_cache);
    EXPECT_EQ(extended.cache, cache::HitKind::Prefix);

    const core::AnalysisResult cold = campaign::run_campaign(bigger);
    expect_sets_identical(extended.analysis.measurements, cold.measurements);
    expect_clusterings_identical(extended.analysis.clustering,
                                 cold.clustering);
    EXPECT_EQ(extended.analysis.samples_per_alg, cold.samples_per_alg);
    EXPECT_EQ(extended.analysis.fixed_n_samples, cold.fixed_n_samples);
}

TEST_F(CacheTest, CoordinatedPrefixExtensionMatchesAColdCoordinatedRun) {
    campaign::CampaignSpec spec = coordinated_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);

    campaign::CampaignSpec bigger = spec;
    bigger.measurements = 30;
    const cache::CachedRunResult extended =
        cache::run_campaign_cached(bigger, result_cache);
    EXPECT_EQ(extended.cache, cache::HitKind::Prefix);

    const core::AnalysisResult cold = campaign::run_campaign(bigger);
    expect_sets_identical(extended.analysis.measurements, cold.measurements);
    expect_clusterings_identical(extended.analysis.clustering,
                                 cold.clustering);
    EXPECT_EQ(extended.analysis.rounds, cold.rounds);
}

TEST_F(CacheTest, ShardLocalAdaptiveAtFourShardsHitsTheSingleShardEntry) {
    // A shard-local adaptive plan stops on the clustering of all algorithms
    // whatever K its spec names, so the entry a K = 1 spec stores is exactly
    // what a K = 4 spec would measure: the plan hash (which excludes K) may
    // serve it.
    const campaign::CampaignSpec spec = adaptive_spec();
    cache::ResultCache result_cache = make_cache();
    const cache::CachedRunResult cold =
        cache::run_campaign_cached(spec, result_cache);
    EXPECT_EQ(cold.cache, cache::HitKind::Miss);
    EXPECT_EQ(result_cache.stats().entries, 1u);

    obs::set_metrics_enabled(true);
    obs::registry().reset_values();
    campaign::CampaignSpec four_shards = spec;
    four_shards.shards = 4;
    const cache::CachedRunResult warm =
        cache::run_campaign_cached(four_shards, result_cache);
    EXPECT_EQ(warm.cache, cache::HitKind::Exact);
    EXPECT_EQ(obs::metrics().samples_total.value(), 0u);
    EXPECT_EQ(warm.samples_from_cache, cold.analysis.total_samples);
    EXPECT_EQ(warm.analysis.samples_per_alg, cold.analysis.samples_per_alg);
    expect_sets_identical(warm.analysis.measurements,
                          campaign::run_campaign(four_shards).measurements);
    expect_clusterings_identical(warm.analysis.clustering,
                                 cold.analysis.clustering);
}

TEST_F(CacheTest, TruncatedPayloadDegradesToAMissAndSelfRepairs) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    const cache::CachedRunResult cold =
        cache::run_campaign_cached(spec, result_cache);

    const std::string payload = only_file("csv");
    const std::string content = read_file(payload);
    write_file(payload, content.substr(0, content.size() / 2));

    const cache::CachedRunResult repaired =
        cache::run_campaign_cached(spec, result_cache);
    EXPECT_EQ(repaired.cache, cache::HitKind::Miss)
        << "a truncated entry must never be served";
    expect_sets_identical(repaired.analysis.measurements,
                          cold.analysis.measurements);
    // The miss re-measured and re-published; the entry works again.
    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
}

TEST_F(CacheTest, TamperedManifestHashFailsValidation) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);

    const std::string payload = only_file("csv");
    std::string content = read_file(payload);
    const std::size_t pos = content.find("# spec_hash = ");
    ASSERT_NE(pos, std::string::npos);
    // Flip one nibble of the recorded hash: merge_shards must reject the
    // entry as foreign.
    const std::size_t digit = pos + std::string("# spec_hash = ").size();
    content[digit] = content[digit] == '0' ? '1' : '0';
    write_file(payload, content);

    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Miss);
}

TEST_F(CacheTest, DroppedSampleRowFailsTheCountCheck) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);

    const std::string payload = only_file("csv");
    const std::string content = read_file(payload);
    // Remove the final data row (keep the trailing newline shape intact).
    const std::size_t last_break =
        content.find_last_of('\n', content.size() - 2);
    ASSERT_NE(last_break, std::string::npos);
    write_file(payload, content.substr(0, last_break + 1));

    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Miss);
}

TEST_F(CacheTest, GarbageSidecarIsAdvisoryAndGetsRewritten) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);
    write_file(only_file("meta"), "not a sidecar at all\n");

    // The payload still validates, so the exact tier still serves — and the
    // touch rewrites a well-formed sidecar.
    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
    const std::string rewritten = read_file(only_file("meta"));
    EXPECT_NE(rewritten.find("plan_hash = "), std::string::npos);
    EXPECT_NE(rewritten.find("budget = 15"), std::string::npos);
}

TEST_F(CacheTest, OrphanPayloadWithoutSidecarStillHitsExactly) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);
    fs::remove(only_file("meta"));
    EXPECT_EQ(result_cache.stats().entries, 0u) << "orphan: no sidecar";

    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
    EXPECT_EQ(result_cache.stats().entries, 1u) << "sidecar recreated";
}

TEST_F(CacheTest, UnusableDirectoryDegradesToPassThrough) {
    // The configured path is an existing regular file, so neither the
    // directory scan nor the store can ever succeed — the campaign must
    // still run to completion with a plain miss, twice.
    const std::string blocker = relperf::test::temp_path("cache_blocker");
    write_file(blocker, "in the way\n");
    cache::ResultCache result_cache(cache::CacheConfig{blocker, 0, 0});

    const campaign::CampaignSpec spec = small_spec();
    const core::AnalysisResult reference = campaign::run_campaign(spec);
    for (int round = 0; round < 2; ++round) {
        cache::CachedRunResult run;
        ASSERT_NO_THROW(run = cache::run_campaign_cached(spec, result_cache));
        EXPECT_EQ(run.cache, cache::HitKind::Miss);
        expect_sets_identical(run.analysis.measurements,
                              reference.measurements);
    }
    EXPECT_EQ(result_cache.stats().entries, 0u);
    fs::remove(blocker);
}

TEST_F(CacheTest, RacingWritersOfTheSamePlanLeaveAValidEntry) {
    // Two independent cache handles publish the same plan back to back (the
    // worst interleaving two processes can produce, since temp names are
    // per-process and renames are atomic): last publish wins, and the entry
    // must validate. A stray temp file from a third, crashed writer is inert.
    const campaign::CampaignSpec spec = small_spec();
    const core::AnalysisResult result = campaign::run_campaign(spec);
    cache::ResultCache first = make_cache();
    cache::ResultCache second = make_cache();
    first.store(spec, result.measurements);
    second.store(spec, result.measurements);
    write_file(dir_ + "/deadbeefdeadbeef.csv.tmp.999", "partial");

    EXPECT_EQ(first.stats().entries, 1u);
    const cache::CacheLookup hit = second.lookup(spec);
    EXPECT_EQ(hit.kind, cache::HitKind::Exact);
    expect_sets_identical(hit.merged, result.measurements);
}

TEST_F(CacheTest, EvictionIsLeastRecentlyUsedOnTheLogicalClock) {
    campaign::CampaignSpec a = small_spec();
    campaign::CampaignSpec b = small_spec();
    b.measurement_seed += 1;
    campaign::CampaignSpec c = small_spec();
    c.measurement_seed += 2;
    const core::AnalysisResult run_a = campaign::run_campaign(a);
    const core::AnalysisResult run_b = campaign::run_campaign(b);
    const core::AnalysisResult run_c = campaign::run_campaign(c);

    cache::ResultCache result_cache(cache::CacheConfig{dir_, 2, 0});
    result_cache.store(a, run_a.measurements);
    result_cache.store(b, run_b.measurements);
    EXPECT_EQ(result_cache.stats().entries, 2u);

    // Touch `a` so `b` becomes the oldest, then overflow with `c`.
    EXPECT_EQ(result_cache.lookup(a).kind, cache::HitKind::Exact);
    result_cache.store(c, run_c.measurements);
    EXPECT_EQ(result_cache.stats().entries, 2u);
    EXPECT_EQ(result_cache.lookup(b).kind, cache::HitKind::Miss)
        << "the least recently used entry is the victim";
    EXPECT_EQ(result_cache.lookup(a).kind, cache::HitKind::Exact);
    EXPECT_EQ(result_cache.lookup(c).kind, cache::HitKind::Exact);
}

TEST_F(CacheTest, ByteCapEvictsDownToTheBudget) {
    campaign::CampaignSpec a = small_spec();
    campaign::CampaignSpec b = small_spec();
    b.measurement_seed += 1;
    const core::AnalysisResult run_a = campaign::run_campaign(a);
    const core::AnalysisResult run_b = campaign::run_campaign(b);

    // Measure one entry's on-disk footprint, then cap the cache at one and
    // a half of it: room for one entry, never for two.
    const std::size_t one_entry = [&] {
        cache::ResultCache probe = make_cache();
        probe.store(a, run_a.measurements);
        const std::size_t bytes = probe.stats().bytes;
        fs::remove_all(dir_);
        return bytes;
    }();
    ASSERT_GT(one_entry, 0u);

    const std::size_t cap = one_entry + one_entry / 2;
    cache::ResultCache result_cache(cache::CacheConfig{dir_, 0, cap});
    result_cache.store(a, run_a.measurements);
    result_cache.store(b, run_b.measurements);
    EXPECT_EQ(result_cache.stats().entries, 1u);
    EXPECT_LE(result_cache.stats().bytes, cap);
    EXPECT_EQ(result_cache.lookup(b).kind, cache::HitKind::Exact)
        << "the just-stored entry survives; the older one was evicted";
}

TEST_F(CacheTest, SkipThenDrawEqualsAPureDrawOnTheGlobalSource) {
    // The SampleSource::skip contract the replay path stands on: skipping k
    // samples then drawing m yields exactly samples [k, k+m) of a pure draw.
    const campaign::CampaignSpec spec = small_spec();
    campaign::GlobalSampleSource reference_bundle(spec);
    campaign::GlobalSampleSource skipped_bundle(spec);
    core::SampleSource& reference = reference_bundle.source();
    core::SampleSource& skipped = skipped_bundle.source();
    ASSERT_EQ(reference.count(), skipped.count());
    for (std::size_t i = 0; i < reference.count(); ++i) {
        const std::vector<double> pure = reference.draw(i, 10);
        skipped.skip(i, 4);
        const std::vector<double> tail = skipped.draw(i, 6);
        ASSERT_EQ(tail.size(), 6u);
        for (std::size_t k = 0; k < tail.size(); ++k) {
            EXPECT_EQ(tail[k], pure[4 + k]) << "alg " << i << " sample " << k;
        }
    }
}

TEST_F(CacheTest, CachedSourceReplaysThePrefixAndExtendsSeamlessly) {
    const campaign::CampaignSpec spec = small_spec(); // budget 15
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache);
    const cache::CacheLookup hit = result_cache.lookup(spec);
    ASSERT_EQ(hit.kind, cache::HitKind::Exact);

    campaign::GlobalSampleSource cold_bundle(spec);
    campaign::GlobalSampleSource warm_bundle(spec);
    cache::CachedSampleSource replay(warm_bundle.source(), hit.merged);
    core::SampleSource& cold = cold_bundle.source();
    ASSERT_EQ(replay.count(), cold.count());

    std::size_t expected_served = 0;
    for (std::size_t i = 0; i < cold.count(); ++i) {
        const std::vector<double> pure = cold.draw(i, 20);
        if (i % 2 == 0) {
            // Straight through the prefix (15 cached) into fresh territory.
            const std::vector<double> replayed = replay.draw(i, 20);
            ASSERT_EQ(replayed.size(), 20u);
            for (std::size_t k = 0; k < 20; ++k) {
                EXPECT_EQ(replayed[k], pure[k]) << "alg " << i << " at " << k;
            }
            expected_served += 15;
        } else {
            // skip() inside the prefix is free; the draw crosses the
            // boundary and must still line up sample for sample.
            replay.skip(i, 5);
            const std::vector<double> replayed = replay.draw(i, 15);
            ASSERT_EQ(replayed.size(), 15u);
            for (std::size_t k = 0; k < 15; ++k) {
                EXPECT_EQ(replayed[k], pure[5 + k])
                    << "alg " << i << " at " << k;
            }
            expected_served += 10;
        }
    }
    EXPECT_EQ(replay.served(), expected_served);
}

TEST_F(CacheTest, CachedSourceRejectsAMismatchedEntry) {
    const campaign::CampaignSpec spec = small_spec();
    campaign::GlobalSampleSource bundle(spec);
    core::MeasurementSet wrong_count;
    wrong_count.add("algDDD", {1.0});
    EXPECT_THROW(cache::CachedSampleSource(bundle.source(), wrong_count),
                 relperf::Error);
}
