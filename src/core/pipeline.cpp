#include "core/pipeline.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace relperf::core {

namespace {

std::vector<workloads::VariantAssignment> to_variants(
    const std::vector<workloads::DeviceAssignment>& assignments) {
    std::vector<workloads::VariantAssignment> out;
    out.reserve(assignments.size());
    for (const workloads::DeviceAssignment& assignment : assignments) {
        out.emplace_back(assignment);
    }
    return out;
}

/// The legacy per-assignment stream derivation: position i measures on
/// rng.child(i) (a pure function of the master rng's construction seed, see
/// assignment_stream_seed).
StreamFactory child_streams(const stats::Rng& rng) {
    return [&rng](std::size_t index) { return rng.child(index); };
}

} // namespace

std::uint64_t assignment_stream_seed(std::uint64_t master_seed,
                                     std::size_t index) noexcept {
    return stats::Rng(master_seed).child(index).seed();
}

MeasurementSet measure_assignments(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::DeviceAssignment>& assignments, std::size_t n,
    stats::Rng& rng) {
    RELPERF_REQUIRE(!assignments.empty(), "measure_assignments: no assignments");
    SimSampleSource source(executor, chain, to_variants(assignments),
                           child_streams(rng));
    obs::metrics().samples_fixed_n_total.inc(assignments.size() * n);
    return measure_all(source, n);
}

MeasurementSet measure_assignments_real(
    const sim::RealExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::DeviceAssignment>& assignments, std::size_t n,
    stats::Rng& rng, std::size_t warmup) {
    RELPERF_REQUIRE(!assignments.empty(), "measure_assignments_real: no assignments");
    RealSampleSource source(executor, chain, to_variants(assignments),
                            child_streams(rng), warmup);
    obs::metrics().samples_fixed_n_total.inc(assignments.size() * n);
    return measure_all(source, n);
}

AnalysisResult analyze_source(SampleSource& source,
                              const AnalysisConfig& config) {
    if (!config.adaptive) {
        obs::metrics().samples_fixed_n_total.inc(
            source.count() * config.measurements_per_alg);
        return analyze_measurements(
            measure_all(source, config.measurements_per_alg), config);
    }
    const MeasurementEngine engine(*config.adaptive, config.comparator,
                                   config.clustering);
    EngineResult measured = engine.run(source);
    AnalysisResult out;
    out.measurements = std::move(measured.measurements);
    out.clustering = std::move(measured.clustering);
    out.samples_per_alg = std::move(measured.samples_per_alg);
    out.total_samples = measured.total_samples;
    out.fixed_n_samples = measured.fixed_n_samples;
    out.rounds = measured.rounds;
    return out;
}

AnalysisResult analyze_chain(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::DeviceAssignment>& assignments,
    const AnalysisConfig& config) {
    RELPERF_REQUIRE(!assignments.empty(), "analyze_chain: no assignments");
    const stats::Rng rng(config.measurement_seed);
    SimSampleSource source(executor, chain, to_variants(assignments),
                           child_streams(rng));
    return analyze_source(source, config);
}

AnalysisResult analyze_measurements(MeasurementSet measurements,
                                    const AnalysisConfig& config) {
    const BootstrapComparator comparator(config.comparator);
    const RelativeClusterer clusterer(comparator, config.clustering);
    Clustering clustering = clusterer.cluster(measurements);
    AnalysisResult out;
    out.samples_per_alg.reserve(measurements.size());
    for (std::size_t i = 0; i < measurements.size(); ++i) {
        out.samples_per_alg.push_back(measurements.samples(i).size());
    }
    out.total_samples = measurements.total_samples();
    out.fixed_n_samples = out.total_samples;
    out.measurements = std::move(measurements);
    out.clustering = std::move(clustering);
    return out;
}

} // namespace relperf::core
