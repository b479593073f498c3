//! The adaptive refactor's hard invariant, asserted end to end: with
//! adaptive off (`max_n == min_n`, i.e. spec.adaptive_min == measurements)
//! the engine-backed paths reproduce the legacy fixed-N batch bit for bit —
//! through core::analyze_chain, the one-host campaign run and the file
//! round trip of a three-shard split, on the simulated and the real
//! executor, over plain assignments and placement x backend variants.
//! (Real-executor *values* are wall-clock and can never be compared across
//! runs; there the invariant is the structure: same algorithms, same
//! counts, same stream consumption.)

#include "campaign/campaign.hpp"
#include "campaign/shard_slices.hpp"
#include "core/pipeline.hpp"
#include "sim/analytic.hpp"
#include "sim/profile.hpp"
#include "support/error.hpp"

#include "temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;

namespace {

struct Axis {
    bool variants = false;
    const char* label = "assignments";
};

campaign::CampaignSpec base_spec(campaign::ExecutorKind executor,
                                 bool variants) {
    campaign::CampaignSpec spec;
    spec.name = "adaptive-invariant";
    spec.executor = executor;
    spec.iters = executor == campaign::ExecutorKind::Real ? 1 : 3;
    spec.measurement_seed = 2024;
    spec.clustering_repetitions = 25;
    spec.bootstrap_rounds = 40;
    spec.clustering_seed = 7;
    if (variants) {
        spec.sizes = {24, 40}; // (2*2)^2 = 16 variants
        spec.variant_backends = {"portable", "reference"};
    } else {
        spec.sizes = {24, 40, 56}; // 2^3 = 8 assignments
    }
    if (executor == campaign::ExecutorKind::Real) {
        spec.measurements = 3;
        spec.device_threads = 1;
        spec.accelerator_threads = 1;
        spec.dispatch_delay_us = 0.0;
        spec.switch_delay_us = 0.0;
    } else {
        spec.measurements = 8;
    }
    return spec;
}

/// The same plan with the engine forced on but early stopping impossible
/// (min == max). Hash and manifests differ — the measurements must not.
campaign::CampaignSpec engine_off_spec(campaign::CampaignSpec spec) {
    spec.adaptive_min = spec.measurements;
    return spec;
}

void expect_sets_identical(const core::MeasurementSet& legacy,
                           const core::MeasurementSet& engine,
                           bool compare_values) {
    ASSERT_EQ(legacy.size(), engine.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(legacy.name(i), engine.name(i));
        const auto a = legacy.samples(i);
        const auto b = engine.samples(i);
        ASSERT_EQ(a.size(), b.size()) << legacy.name(i);
        if (!compare_values) continue;
        for (std::size_t k = 0; k < a.size(); ++k) {
            EXPECT_EQ(a[k], b[k]) << legacy.name(i) << " sample " << k;
        }
    }
}

void expect_clusterings_identical(const core::Clustering& a,
                                  const core::Clustering& b) {
    ASSERT_EQ(a.cluster_count(), b.cluster_count());
    ASSERT_EQ(a.final_assignment.size(), b.final_assignment.size());
    for (std::size_t alg = 0; alg < a.final_assignment.size(); ++alg) {
        EXPECT_EQ(a.final_assignment[alg].rank, b.final_assignment[alg].rank);
        EXPECT_DOUBLE_EQ(a.final_assignment[alg].score,
                         b.final_assignment[alg].score);
    }
}

/// run_coordinated_campaign over the spec's own source.
campaign::CoordinatedCampaignResult run_coordinated(
    const campaign::CampaignSpec& spec, std::size_t shard_count) {
    campaign::GlobalSampleSource bundle(spec);
    return campaign::run_coordinated_campaign(spec, shard_count,
                                              bundle.source());
}

} // namespace

TEST(AdaptiveOffInvariant, CampaignMergeIsBitIdenticalOnSim) {
    for (const Axis axis : {Axis{false, "assignments"}, Axis{true, "variants"}}) {
        const campaign::CampaignSpec legacy =
            base_spec(campaign::ExecutorKind::Sim, axis.variants);
        const campaign::CampaignSpec engine = engine_off_spec(legacy);
        EXPECT_NE(legacy.hash(), engine.hash()); // different plans on paper...
        const core::AnalysisResult a = campaign::run_campaign(legacy);
        const core::AnalysisResult b = campaign::run_campaign(engine);
        SCOPED_TRACE(axis.label);
        expect_sets_identical(a.measurements, b.measurements, true);
        expect_clusterings_identical(a.clustering, b.clustering);
    }
}

TEST(AdaptiveOffInvariant, CampaignMergeKeepsStructureOnReal) {
    for (const Axis axis : {Axis{false, "assignments"}, Axis{true, "variants"}}) {
        const campaign::CampaignSpec legacy =
            base_spec(campaign::ExecutorKind::Real, axis.variants);
        const campaign::CampaignSpec engine = engine_off_spec(legacy);
        const core::AnalysisResult a = campaign::run_campaign(legacy);
        const core::AnalysisResult b = campaign::run_campaign(engine);
        SCOPED_TRACE(axis.label);
        // Wall-clock values differ run to run by nature; names and
        // per-algorithm counts must agree exactly.
        expect_sets_identical(a.measurements, b.measurements, false);
    }
}

TEST(AdaptiveOffInvariant, ShardFileRoundTripIsBitIdentical) {
    // The CSV persistence of an engine-backed shard (manifest adaptive lines
    // included) merges to the same bytes as the in-memory path. run_shard
    // refuses adaptive plans, so the shards are cut from the engine run.
    const campaign::CampaignSpec spec =
        engine_off_spec(base_spec(campaign::ExecutorKind::Sim, false));
    const std::vector<campaign::ShardResult> in_memory =
        relperf::test::slice_shards(
            spec, campaign::run_campaign(spec).measurements, 3);
    std::vector<campaign::ShardResult> reloaded;
    for (std::size_t i = 0; i < 3; ++i) {
        const std::string path = relperf::test::temp_path(
            "shard_" + std::to_string(i) + ".csv");
        campaign::write_shard_csv(in_memory[i], path);
        reloaded.push_back(campaign::read_shard_csv(path));
        std::remove(path.c_str());
    }
    const core::MeasurementSet a = campaign::merge_shards(spec, in_memory);
    const core::MeasurementSet b = campaign::merge_shards(spec, reloaded);
    expect_sets_identical(a, b, true);
}

TEST(AdaptiveOffInvariant, AnalyzeChainMatchesLegacyBitForBit) {
    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto assignments = workloads::enumerate_assignments(3);

    core::AnalysisConfig legacy;
    legacy.measurements_per_alg = 12;
    legacy.clustering.repetitions = 25;

    core::AnalysisConfig engine = legacy;
    core::AdaptiveConfig off;
    off.min_n = off.max_n = 12;
    engine.adaptive = off;

    const core::AnalysisResult a =
        core::analyze_chain(executor, chain, assignments, legacy);
    const core::AnalysisResult b =
        core::analyze_chain(executor, chain, assignments, engine);
    expect_sets_identical(a.measurements, b.measurements, true);
    expect_clusterings_identical(a.clustering, b.clustering);
    EXPECT_EQ(b.total_samples, b.fixed_n_samples);
    EXPECT_EQ(a.samples_per_alg, b.samples_per_alg);
}

TEST(AdaptiveCampaign, ShardedRunIsDeterministicAndPrefixOfFixed) {
    campaign::CampaignSpec fixed =
        base_spec(campaign::ExecutorKind::Sim, false);
    fixed.measurements = 20;
    campaign::CampaignSpec adaptive = fixed;
    adaptive.adaptive_min = 6;
    adaptive.adaptive_batch = 4;
    adaptive.adaptive_stability = 2;

    const core::AnalysisResult full = campaign::run_campaign(fixed);
    const core::AnalysisResult once = campaign::run_campaign(adaptive);
    adaptive.shards = 3; // names a split; changes no measured value
    const core::AnalysisResult twice = campaign::run_campaign(adaptive);

    // Deterministic: the same adaptive plan keeps the same counts + values.
    expect_sets_identical(once.measurements, twice.measurements, true);

    // Prefix: every algorithm's adaptive sample is the head of its fixed-N
    // sample — early stopping can shorten, never perturb.
    ASSERT_EQ(once.measurements.size(), full.measurements.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < full.measurements.size(); ++i) {
        const auto grown = once.measurements.samples(i);
        const auto reference = full.measurements.samples(i);
        ASSERT_GE(grown.size(), adaptive.adaptive_min);
        ASSERT_LE(grown.size(), reference.size());
        total += grown.size();
        for (std::size_t k = 0; k < grown.size(); ++k) {
            EXPECT_EQ(grown[k], reference[k])
                << full.measurements.name(i) << " sample " << k;
        }
    }
    EXPECT_EQ(total, once.measurements.total_samples());
}

TEST(CoordinatedCampaign, DeterministicAcrossRunsAndShardCounts) {
    // A coordinated plan is one global engine run; the K it names changes
    // nothing. Same plan -> same bits, for any K, every time.
    campaign::CampaignSpec spec = base_spec(campaign::ExecutorKind::Sim, false);
    spec.measurements = 20;
    spec.adaptive_min = 6;
    spec.adaptive_batch = 4;
    spec.adaptive_stability = 2;
    spec.adaptive_coordinated = true;

    const campaign::CoordinatedCampaignResult first =
        run_coordinated(spec, 1);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
        const campaign::CoordinatedCampaignResult again =
            run_coordinated(spec, k);
        SCOPED_TRACE("K=" + std::to_string(k));
        expect_sets_identical(first.analysis.measurements,
                              again.analysis.measurements, true);
        expect_clusterings_identical(first.analysis.clustering,
                                     again.analysis.clustering);
        EXPECT_EQ(again.rounds, first.rounds);
        EXPECT_EQ(again.analysis.samples_per_alg,
                  first.analysis.samples_per_alg);
    }
}

TEST(CoordinatedCampaign, SamplesStayAPrefixOfTheFixedNPlan) {
    // Adaptive stopping changes *when* algorithms stop, never the stream
    // an algorithm draws from: each sample list is the head of the fixed-N
    // list, for the stability rule and the confidence rule alike.
    campaign::CampaignSpec fixed =
        base_spec(campaign::ExecutorKind::Sim, false);
    fixed.measurements = 20;
    const core::AnalysisResult full = campaign::run_campaign(fixed);

    campaign::CampaignSpec coordinated = fixed;
    coordinated.adaptive_min = 6;
    coordinated.adaptive_batch = 4;
    coordinated.adaptive_stability = 2;
    coordinated.adaptive_coordinated = true;
    for (const double confidence : {0.0, 0.95}) {
        coordinated.adaptive_confidence = confidence;
        const campaign::CoordinatedCampaignResult coord =
            run_coordinated(coordinated, 3);
        SCOPED_TRACE(confidence == 0.0 ? "stability" : "confidence");
        ASSERT_EQ(coord.analysis.measurements.size(), full.measurements.size());
        EXPECT_LT(coord.analysis.total_samples, full.total_samples);
        for (std::size_t i = 0; i < full.measurements.size(); ++i) {
            const auto grown = coord.analysis.measurements.samples(i);
            const auto reference = full.measurements.samples(i);
            ASSERT_GE(grown.size(), coordinated.adaptive_min);
            ASSERT_LE(grown.size(), reference.size());
            for (std::size_t k = 0; k < grown.size(); ++k) {
                EXPECT_EQ(grown[k], reference[k])
                    << full.measurements.name(i) << " sample " << k;
            }
        }
    }
}

TEST(CoordinatedCampaign, SingleShardMatchesShardLocalStopping) {
    // Both plans stop on the clustering of all algorithms; the coordination
    // label changes no decision, so the runs coincide.
    campaign::CampaignSpec local = base_spec(campaign::ExecutorKind::Sim, false);
    local.measurements = 20;
    local.adaptive_min = 6;
    local.adaptive_batch = 4;
    local.adaptive_stability = 2;
    campaign::CampaignSpec coordinated = local;
    coordinated.adaptive_coordinated = true;

    const core::AnalysisResult shard_local = campaign::run_campaign(local);
    const campaign::CoordinatedCampaignResult coord =
        run_coordinated(coordinated, 1);
    expect_sets_identical(coord.analysis.measurements,
                          shard_local.measurements, true);
}
