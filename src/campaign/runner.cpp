#include "campaign/runner.hpp"

#include "campaign/sharder.hpp"
#include "linalg/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/analytic.hpp"
#include "sim/executor.hpp"
#include "sim/real_executor.hpp"
#include "support/error.hpp"

#include <optional>

namespace relperf::campaign {

ShardResult run_shard(const CampaignSpec& spec, std::size_t shard_index,
                      std::size_t shard_count) {
    spec.validate();
    // A lone shard cannot honor an adaptive plan: its stop decisions watch
    // the clustering of all algorithms, which no shard sees.
    RELPERF_REQUIRE(!spec.adaptive(),
                    "run_shard: the spec is adaptive, and its stop decisions "
                    "watch the clustering of all algorithms, which no single "
                    "shard sees — measure the whole plan on one host with "
                    "--run (run_campaign) instead of per-shard execution");
    const std::size_t count = shard_count == 0 ? spec.shards : shard_count;
    const Sharder sharder(spec.variants().size(), count);

    obs::Span span("shard.run", "campaign");
    span.arg("shard", static_cast<std::uint64_t>(shard_index))
        .arg("of", static_cast<std::uint64_t>(count));
    const obs::ScopedHistogramTimer shard_timer(
        obs::metrics().shard_seconds);
    obs::metrics().shards_total.inc();

    ShardResult result;
    GlobalSampleSource bundle(spec, sharder.plan(shard_index));
    result.measurements = core::measure_all(bundle.source(), spec.measurements);
    result.manifest =
        plan_manifest(spec, shard_index, count, result.measurements);
    return result;
}

ShardManifest plan_manifest(const CampaignSpec& spec, std::size_t shard_index,
                            std::size_t shard_count,
                            const core::MeasurementSet& measured) {
    ShardManifest m;
    m.spec_hash = spec.hash();
    m.shard_index = shard_index;
    m.shard_count = shard_count;
    m.campaign = spec.name;
    m.host = host_name();
    m.backend = spec.backend;
    m.variant_backends = spec.variant_backends;
    for (const obs::ProvenanceEntry& e : obs::provenance()) {
        m.provenance.emplace_back(e.key, e.value);
    }
    if (spec.adaptive()) {
        m.adaptive_min = spec.adaptive_min;
        m.adaptive_batch = spec.adaptive_batch;
        m.adaptive_stability = spec.adaptive_stability;
        // Counts stopped by the confidence rule are not counts the
        // stability rule produced, so the rule is part of the record.
        m.adaptive_confidence = spec.adaptive_confidence;
        m.samples_per_algorithm.reserve(measured.size());
        for (std::size_t i = 0; i < measured.size(); ++i) {
            m.samples_per_algorithm.push_back(measured.samples(i).size());
        }
    }
    return m;
}

struct GlobalSampleSource::Impl {
    workloads::TaskChain chain;
    std::vector<workloads::VariantAssignment> variants;
    // Construction order matters: the executors hold references into the
    // model, and the sources into the executors.
    std::optional<sim::AnalyticCostModel> model;
    std::optional<sim::SimulatedExecutor> sim_executor;
    std::optional<sim::RealExecutor> real_executor;
    std::optional<core::SimSampleSource> sim_source;
    std::optional<core::RealSampleSource> real_source;
};

GlobalSampleSource::GlobalSampleSource(const CampaignSpec& spec,
                                       std::optional<ShardPlan> plan)
    : impl_(std::make_unique<Impl>()) {
    spec.validate();
    // This object measures, so fail before measuring anything when this
    // build cannot honor the plan's backends (validate() deliberately does
    // not check availability: a collecting host without the backends must
    // still be able to merge).
    (void)linalg::backend(spec.backend);
    for (const std::string& name : spec.variant_backends) {
        (void)linalg::backend(name);
    }
    impl_->chain = spec.chain();
    std::vector<workloads::VariantAssignment> all = spec.variants();
    const std::uint64_t seed = spec.measurement_seed;
    core::StreamFactory streams;
    if (plan) {
        impl_->variants.reserve(plan->assignment_indices.size());
        for (const std::size_t global : plan->assignment_indices) {
            RELPERF_REQUIRE(global < all.size(),
                            "GlobalSampleSource: plan index out of range");
            impl_->variants.push_back(all[global]);
        }
        streams = [seed, globals = std::move(plan->assignment_indices)](
                      std::size_t local) {
            return stats::Rng(
                core::assignment_stream_seed(seed, globals[local]));
        };
    } else {
        impl_->variants = std::move(all);
        streams = [seed](std::size_t global) {
            return stats::Rng(core::assignment_stream_seed(seed, global));
        };
    }
    if (spec.executor == ExecutorKind::Sim) {
        impl_->model.emplace(platform_preset(spec.platform));
        impl_->sim_executor.emplace(*impl_->model, sim::NoiseModel{});
        impl_->sim_source.emplace(*impl_->sim_executor, impl_->chain,
                                  impl_->variants, streams);
        return;
    }
    const sim::EmulatedDevice device{spec.device_threads, 0.0, 0.0};
    const sim::EmulatedDevice accelerator{spec.accelerator_threads,
                                          spec.dispatch_delay_us * 1e-6,
                                          spec.switch_delay_us * 1e-6};
    impl_->real_executor.emplace(device, accelerator);
    impl_->real_source.emplace(*impl_->real_executor, impl_->chain,
                               impl_->variants, streams, spec.warmup);
}

GlobalSampleSource::~GlobalSampleSource() = default;

core::SampleSource& GlobalSampleSource::source() {
    if (impl_->sim_source) return *impl_->sim_source;
    return *impl_->real_source;
}

core::AnalysisResult measure_campaign(const CampaignSpec& spec,
                                      core::SampleSource& source) {
    spec.validate();
    RELPERF_REQUIRE(source.count() == spec.variants().size(),
                    "measure_campaign: the sample source must enumerate the "
                    "spec's full global variant list");
    return core::analyze_source(source, spec.analysis_config());
}

CoordinatedCampaignResult run_coordinated_campaign(const CampaignSpec& spec,
                                                   std::size_t shard_count,
                                                   core::SampleSource& source) {
    RELPERF_REQUIRE(spec.adaptive(),
                    "run_coordinated_campaign: spec is fixed-N — it needs an "
                    "adaptive plan (adaptive_min_measurements)");
    (void)Sharder(spec.variants().size(), shard_count);
    CoordinatedCampaignResult out;
    out.analysis = measure_campaign(spec, source);
    out.rounds = out.analysis.rounds;
    return out;
}

} // namespace relperf::campaign
