#include "workloads.hpp"

#include "cache/cached_campaign.hpp"
#include "cache/cached_source.hpp"
#include "cache/result_cache.hpp"
#include "campaign/campaign.hpp"
#include "core/bootstrap_comparator.hpp"
#include "core/clustering.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "workloads/chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using relperf::campaign::CampaignSpec;
using relperf::core::AnalysisResult;
using relperf::core::Clustering;
using relperf::core::MeasurementSet;

/// Counters of relperf's obs registry, read around a traced pass to
/// cross-check the benchmark's decorators.
struct ObsCounts {
    std::uint64_t samples = 0;
    std::uint64_t clusterings = 0;
    std::uint64_t resamples = 0;

    static ObsCounts now() {
        const relperf::obs::Metrics& m = relperf::obs::metrics();
        return {m.samples_total.value(), m.clusterings_total.value(),
                m.bootstrap_resamples_total.value()};
    }
};

/// Turns relperf's obs layer on for the lifetime of a traced pass.
class ObsScope {
public:
    explicit ObsScope(bool tracing) : before_(ObsCounts::now()) {
        relperf::obs::set_metrics_enabled(true);
        if (tracing) {
            relperf::obs::clear_trace();
            relperf::obs::set_tracing_enabled(true);
        }
    }
    ~ObsScope() {
        relperf::obs::set_tracing_enabled(false);
        relperf::obs::set_metrics_enabled(false);
    }
    ObsScope(const ObsScope&) = delete;
    ObsScope& operator=(const ObsScope&) = delete;

    [[nodiscard]] ObsCounts delta() const {
        const ObsCounts after = ObsCounts::now();
        return {after.samples - before_.samples,
                after.clusterings - before_.clusterings,
                after.resamples - before_.resamples};
    }

private:
    ObsCounts before_;
};

/// The input-dependent part of the fixed-N plans: the measurement and
/// clustering seeds. (Their work does not depend on the data: a fixed-N
/// clustering makes p(p-1)/2 comparisons per repetition whatever the
/// samples are.)
void apply_input(CampaignSpec& spec, std::uint64_t input) {
    spec.measurement_seed = 0x5EED0000ULL + 7919ULL * input;
    spec.clustering_seed = 4200 + input;
}

/// Accumulates wall time over the timed segments of a pass (checks between
/// segments stay untimed).
class Segment {
public:
    explicit Segment(double& total) : total_(total), start_(Clock::now()) {}
    ~Segment() { total_ += seconds_since(start_); }
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

private:
    double& total_;
    Clock::time_point start_;
};

/// Total duration and count of the spans of pass `run` named (layer, name).
LayerTime span_time(const Tracer& tracer, std::uint32_t run,
                    const std::string& layer, const std::string& name) {
    LayerTime t;
    for (const SpanRecord& s : tracer.spans()) {
        if (s.run == run && layer == s.layer && name == s.name) {
            t.busy_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
            ++t.calls;
        }
    }
    return t;
}

/// FLOPs the drawn samples executed: per algorithm, samples drawn times the
/// chain's FLOPs under that variant's placement.
double drawn_flops(const CampaignSpec& spec,
                   const std::vector<std::size_t>& per_alg) {
    const relperf::workloads::TaskChain chain = spec.chain();
    const auto variants = spec.variants();
    double flops = 0.0;
    for (std::size_t i = 0; i < per_alg.size() && i < variants.size(); ++i) {
        flops += static_cast<double>(per_alg[i]) *
                 relperf::workloads::flop_split(
                     chain, variants[i].device_assignment())
                     .total();
    }
    return flops;
}

/// Layer metrics every traced pass reports, from its spans and decorators.
void fill_common_layers(PassResult& out, const Tracer& tracer,
                        std::uint32_t run, const CampaignSpec& spec,
                        const DrawStats& sim, const CompareStats* comparator) {
    const auto layers = tracer.layer_times(run);
    const auto get = [&layers](const char* layer) {
        const auto it = layers.find(layer);
        return it == layers.end() ? LayerTime{} : it->second;
    };
    auto& m = out.layer;
    const LayerTime merge = span_time(tracer, run, "campaign", "merge");
    m["campaign.shards_s"] =
        span_time(tracer, run, "campaign", "shards").busy_s;
    m["campaign.merge_s"] = merge.busy_s;
    m["campaign.merge_calls"] = static_cast<double>(merge.calls);
    m["campaign.self_s"] = get("campaign").self_s;

    const LayerTime sim_t = get("sim");
    m["sim.draw_calls"] = static_cast<double>(sim.draw_calls);
    m["sim.samples"] = static_cast<double>(sim.samples);
    m["sim.busy_s"] = sim_t.busy_s;
    m["sim.device_s"] = sim.device_s;
    m["sim.busy_per_device_s"] =
        sim.device_s > 0.0 ? sim_t.busy_s / sim.device_s : 0.0;

    const double flops = drawn_flops(spec, sim.per_alg);
    m["linalg.flops"] = flops;
    m["linalg.gflops"] = sim.device_s > 0.0 ? flops / sim.device_s * 1e-9 : 0.0;

    if (comparator != nullptr) {
        const LayerTime cmp = get("core.comparator");
        m["core.comparator.calls"] = static_cast<double>(comparator->calls);
        m["core.comparator.busy_s"] = cmp.busy_s;
        m["core.comparator.ns_per_call"] =
            comparator->calls > 0
                ? cmp.busy_s * 1e9 / static_cast<double>(comparator->calls)
                : 0.0;
        m["core.comparator.decisive_ratio"] =
            comparator->calls > 0 ? static_cast<double>(comparator->decisive) /
                                        static_cast<double>(comparator->calls)
                                  : 0.0;
    }
    const LayerTime clu = get("core.clustering");
    m["core.clustering.calls"] = static_cast<double>(clu.calls);
    m["core.clustering.busy_s"] = clu.busy_s;
    m["core.clustering.self_s"] = clu.self_s;

    const LayerTime io = get("io");
    m["io.write_s"] = io.busy_s;

    double wall = 0.0;
    double attributed = 0.0;
    for (const auto& [layer, t] : layers) {
        if (layer == "pass") {
            wall += t.busy_s;
        } else {
            attributed += t.self_s;
        }
    }
    m["trace.attributed_ratio"] = wall > 0.0 ? attributed / wall : 0.0;
}

/// Compares obs counter deltas with the decorators' own counts.
void cross_check(PassResult& out, const ObsCounts& obs,
                 std::uint64_t sim_samples, std::uint64_t clusterings,
                 std::uint64_t comparator_calls, std::size_t rounds) {
    const auto fail = [&out](const std::string& what, std::uint64_t obs_value,
                             std::uint64_t bench_value) {
        out.errors.push_back("obs cross-check: " + what + " obs=" +
                             std::to_string(obs_value) + " decorator=" +
                             std::to_string(bench_value));
        ++out.failed;
    };
    if (obs.samples != sim_samples) {
        fail("relperf_samples_total vs sim.samples", obs.samples, sim_samples);
    }
    if (obs.clusterings != clusterings) {
        fail("relperf_clusterings_total vs clusterings", obs.clusterings,
             clusterings);
    }
    if (obs.resamples != 2 * rounds * comparator_calls) {
        fail("relperf_bootstrap_resamples_total vs 2*R*comparator.calls",
             obs.resamples, 2 * rounds * comparator_calls);
    }
}

/// Writes the clustering CSV inside an `io` span.
void write_clusters(Tracer* tracer, const Clustering& clustering,
                    const MeasurementSet& measurements,
                    const std::string& path) {
    const ScopedSpan span(tracer, "io", "write");
    relperf::core::write_clustering_csv(clustering, measurements, path);
}

/// The case for one campaign output: counts, digest and CSV bytes.
RefCase observed_case(const std::string& label,
                      const MeasurementSet& measurements,
                      const std::string& csv_path) {
    RefCase c;
    c.label = label;
    for (std::size_t i = 0; i < measurements.size(); ++i) {
        c.counts.push_back(measurements.samples(i).size());
    }
    c.digest = digest(measurements);
    c.csv = read_file(csv_path);
    return c;
}

/// Checks `got` against the reference case of the same label.
void check_against(PassResult& out, const std::vector<RefCase>& refs,
                   const RefCase& got) {
    const RefCase* want = find_ref(refs, got.label);
    std::string problem;
    if (want == nullptr) {
        problem = "no reference";
    } else if (want->counts != got.counts) {
        problem = "per-algorithm sample counts differ from the reference";
    } else if (want->digest != got.digest) {
        problem = "measured values differ from the reference";
    } else if (want->csv != got.csv) {
        problem = "clustering CSV differs from the reference";
    }
    if (!problem.empty()) {
        out.errors.push_back(got.label + ": " + problem);
        ++out.failed;
    }
}

// ---------------------------------------------------------------------------

/// Shared plumbing: the spec text, the parsed spec and the work paths.
class CampaignWorkload : public Workload {
public:
    CampaignWorkload(std::string name, CampaignSpec plan,
                     std::string refs_path, const std::string& work_dir)
        : name_(std::move(name)), refs_path_(std::move(refs_path)) {
        plan.name = "perfbench-" + name_;
        spec_text_ = plan.to_text();
        dir_ = (fs::path(work_dir) / name_).string();
        fs::create_directories(dir_);
    }

    [[nodiscard]] const std::string& refs_file() const override {
        return refs_path_;
    }

    void setup(Tracer* tracer) override {
        {
            const ScopedSpan span(tracer, "campaign", "spec");
            spec_ = CampaignSpec::parse(spec_text_, name_ + ".spec");
            spec_.validate();
            plan_hash_ = spec_.hash();
            variant_count_ = spec_.variants().size();
        }
        const ScopedSpan span(tracer, "campaign", "executor");
        source_ = std::make_unique<relperf::campaign::GlobalSampleSource>(spec_);
    }

protected:
    [[nodiscard]] std::string path(const std::string& file) const {
        return (fs::path(dir_) / file).string();
    }

    /// The reference cases, loaded on first use.
    const std::vector<RefCase>& refs() {
        if (!refs_loaded_) {
            refs_ = read_refs(refs_path_);
            refs_loaded_ = true;
        }
        return refs_;
    }

    std::string name_;
    std::string refs_path_;
    std::string spec_text_;
    std::string dir_;
    CampaignSpec spec_;
    std::uint64_t plan_hash_ = 0; ///< spec_.hash(), computed in set-up.
    std::size_t variant_count_ = 0;
    /// Built in set-up (executor and platform construction).
    std::unique_ptr<relperf::campaign::GlobalSampleSource> source_;

private:
    std::vector<RefCase> refs_;
    bool refs_loaded_ = false;
};

/// One campaign per pass: untraced through run_campaign, traced through
/// the per-layer calls of the subclass. The clustering CSV, counts and
/// measured values are checked against the reference unless a subclass
/// checks differently.
class SingleCampaign : public CampaignWorkload {
public:
    using CampaignWorkload::CampaignWorkload;

    PassResult pass(Tracer* tracer) override {
        PassResult out;
        out.ops = 1;
        const std::string csv = path("clusters.csv");
        try {
            AnalysisResult result;
            if (tracer == nullptr) {
                const Segment segment(out.wall_s);
                result = relperf::campaign::run_campaign(spec_);
                relperf::core::write_clustering_csv(result.clustering,
                                                    result.measurements, csv);
            } else {
                result = traced(out, *tracer, csv);
            }
            out.samples_drawn = result.measurements.total_samples();
            check(out, result, csv);
            out.outputs.push_back(read_file(csv));
        } catch (const std::exception& e) {
            out.errors.push_back(name_ + ": " + e.what());
            out.failed = 1;
        }
        out.failed = std::min<std::uint64_t>(out.failed, out.ops);
        return out;
    }

    std::vector<RefCase> record() override {
        setup(nullptr);
        const std::string csv = path("record.csv");
        const AnalysisResult result = relperf::campaign::run_campaign(spec_);
        relperf::core::write_clustering_csv(result.clustering,
                                            result.measurements, csv);
        return {observed_case("campaign", result.measurements, csv)};
    }

protected:
    /// The traced pass: must time its own segment into out.wall_s, fill
    /// out.layer and write the clustering CSV to `csv`.
    virtual AnalysisResult traced(PassResult& out, Tracer& tracer,
                                  const std::string& csv) = 0;

    virtual void check(PassResult& out, const AnalysisResult& result,
                       const std::string& csv) {
        check_against(out, refs(),
                      observed_case("campaign", result.measurements, csv));
    }
};

/// sim-fixed (and real-fixed): a fixed-N campaign. Traced, it makes the
/// calls run_campaign makes for one shard — measure, merge, cluster, write —
/// each in its own span, with the decorators in place.
class FixedCampaign : public SingleCampaign {
public:
    using SingleCampaign::SingleCampaign;

protected:
    AnalysisResult traced(PassResult& out, Tracer& tracer,
                          const std::string& csv) override {
        const ObsScope obs(false);
        const std::uint32_t run = tracer.current_run();
        const relperf::core::AnalysisConfig config = spec_.analysis_config();
        const relperf::core::BootstrapComparator bootstrap(config.comparator);
        CountingComparator counting(bootstrap, &tracer);
        DrawStats drawn;
        AnalysisResult result;
        {
            const Segment segment(out.wall_s);
            const ScopedSpan root(&tracer, "pass", "campaign");
            relperf::campaign::ShardResult shard;
            {
                const ScopedSpan span(&tracer, "campaign", "shards");
                relperf::campaign::GlobalSampleSource bundle(spec_);
                TimedSource timed(bundle.source(), &tracer);
                shard.measurements =
                    relperf::core::measure_all(timed, spec_.measurements);
                drawn = timed.stats;
            }
            shard.manifest.spec_hash = plan_hash_;
            shard.manifest.campaign = spec_.name;
            shard.manifest.backend = spec_.backend;
            shard.manifest.variant_backends = spec_.variant_backends;
            std::vector<relperf::campaign::ShardResult> shards;
            shards.push_back(std::move(shard));
            {
                const ScopedSpan span(&tracer, "campaign", "merge");
                result.measurements =
                    relperf::campaign::merge_shards(spec_, shards);
            }
            {
                const ScopedSpan span(&tracer, "core.clustering", "cluster");
                const relperf::core::RelativeClusterer clusterer(
                    counting, config.clustering);
                result.clustering = clusterer.cluster(result.measurements);
            }
            write_clusters(&tracer, result.clustering, result.measurements,
                           csv);
        }
        fill_common_layers(out, tracer, run, spec_, drawn, &counting.stats);
        out.layer["core.clustering.classes"] =
            static_cast<double>(result.clustering.cluster_count());
        out.layer["io.bytes_written"] = static_cast<double>(file_bytes(csv));
        cross_check(out, obs.delta(), drawn.samples,
                    static_cast<std::uint64_t>(
                        out.layer["core.clustering.calls"]),
                    counting.stats.calls, spec_.bootstrap_rounds);
        return result;
    }
};

/// real-fixed: measured wall-clock samples cannot match a recording, so the
/// outputs are checked structurally; set-up warms every kernel once.
class RealFixed final : public FixedCampaign {
public:
    using FixedCampaign::FixedCampaign;

    void setup(Tracer* tracer) override {
        FixedCampaign::setup(tracer);
        const ScopedSpan span(tracer, "sim", "warmup");
        relperf::core::SampleSource& source = source_->source();
        for (std::size_t i = 0; i < source.count(); ++i) {
            (void)source.draw(i, 1);
        }
    }

    [[nodiscard]] bool deterministic() const override { return false; }
    std::vector<RefCase> record() override { return {}; }

protected:
    void check(PassResult& out, const AnalysisResult& result,
               const std::string& /*csv*/) override {
        const MeasurementSet& m = result.measurements;
        const Clustering& c = result.clustering;
        std::string problem;
        if (m.size() != variant_count_) {
            problem = "measured " + std::to_string(m.size()) + " of " +
                      std::to_string(variant_count_) + " variants";
        } else if (c.final_assignment.size() != m.size()) {
            problem = "final assignment covers " +
                      std::to_string(c.final_assignment.size()) + " of " +
                      std::to_string(m.size()) + " algorithms";
        }
        for (std::size_t i = 0; i < m.size() && problem.empty(); ++i) {
            const auto samples = m.samples(i);
            const bool all_valid =
                std::all_of(samples.begin(), samples.end(),
                            [](double v) { return std::isfinite(v) && v > 0.0; });
            const auto& fin = c.final_assignment[i];
            if (samples.size() != spec_.measurements || !all_valid) {
                problem = m.name(i) + " lacks N finite positive samples";
            } else if (fin.alg != i || fin.rank < 1 ||
                       fin.rank > c.cluster_count()) {
                problem = m.name(i) + " has no single valid final class";
            }
        }
        if (!problem.empty()) {
            out.errors.push_back(name_ + ": " + problem);
            ++out.failed;
        }
    }
};

/// sim-adaptive: a coordinated, confidence-targeted adaptive campaign. The
/// engine builds its comparator and clusterer internally, so the traced
/// pass wraps only its sample source, imports the clusterer.cluster and
/// engine.round spans relperf's own obs trace records inside the engine,
/// and takes comparator calls from the resample counter.
class SimAdaptive final : public SingleCampaign {
public:
    using SingleCampaign::SingleCampaign;

protected:
    AnalysisResult traced(PassResult& out, Tracer& tracer,
                          const std::string& csv) override {
        const ObsScope obs(true);
        const std::uint32_t run = tracer.current_run();
        AnalysisResult result;
        DrawStats drawn;
        std::size_t rounds = 0;
        std::uint64_t clusterings = 0;
        double max_round_s = 0.0;
        {
            const Segment segment(out.wall_s);
            const ScopedSpan root(&tracer, "pass", "campaign");
            {
                const ScopedSpan span(&tracer, "core.engine",
                                      "coordinated_campaign");
                relperf::campaign::GlobalSampleSource bundle(spec_);
                TimedSource timed(bundle.source(), &tracer);
                relperf::campaign::CoordinatedCampaignResult coordinated =
                    relperf::campaign::run_coordinated_campaign(
                        spec_, spec_.shards, timed);
                drawn = timed.stats;
                rounds = coordinated.rounds;
                result = std::move(coordinated.analysis);
                for (const relperf::obs::TraceEvent& e :
                     relperf::obs::trace_events()) {
                    if (e.name == "clusterer.cluster") {
                        tracer.add_closed("core.clustering", "cluster",
                                          e.ts_us * 1000,
                                          (e.ts_us + e.dur_us) * 1000);
                        ++clusterings;
                    } else if (e.name == "engine.round") {
                        max_round_s = std::max(
                            max_round_s, static_cast<double>(e.dur_us) * 1e-6);
                    }
                }
            }
            write_clusters(&tracer, result.clustering, result.measurements,
                           csv);
        }
        fill_common_layers(out, tracer, run, spec_, drawn, nullptr);
        const ObsCounts delta = obs.delta();
        const std::uint64_t per_call = 2 * spec_.bootstrap_rounds;
        const std::uint64_t calls = delta.resamples / per_call;
        const auto layers = tracer.layer_times(run);
        const LayerTime engine = layers.count("core.engine") != 0
                                     ? layers.at("core.engine")
                                     : LayerTime{};
        auto& m = out.layer;
        m["core.comparator.calls"] = static_cast<double>(calls);
        m["core.clustering.classes"] =
            static_cast<double>(result.clustering.cluster_count());
        m["core.engine.rounds"] = static_cast<double>(rounds);
        m["core.engine.clusterings"] = static_cast<double>(clusterings);
        m["core.engine.busy_s"] = engine.busy_s;
        m["core.engine.self_s"] = engine.self_s;
        m["core.engine.max_round_s"] = max_round_s;
        m["core.engine.saved_ratio"] =
            result.fixed_n_samples > 0
                ? 1.0 - static_cast<double>(result.total_samples) /
                            static_cast<double>(result.fixed_n_samples)
                : 0.0;
        m["io.bytes_written"] = static_cast<double>(file_bytes(csv));
        if (relperf::obs::trace_events_dropped() != 0) {
            out.errors.push_back("obs trace dropped events");
            ++out.failed;
        }
        if (delta.resamples % per_call != 0) {
            out.errors.push_back("resample total is not a whole number of "
                                 "comparisons");
            ++out.failed;
        }
        cross_check(out, delta, drawn.samples, clusterings, calls,
                    spec_.bootstrap_rounds);
        return result;
    }
};

/// cache-queries: a fixed query sequence against a result cache primed in
/// set-up. Exact hits under varied analysis knobs only read; budget raises
/// read, draw the delta and store.
class CacheQueries final : public CampaignWorkload {
public:
    using CampaignWorkload::CampaignWorkload;

    struct Query {
        std::size_t n;
        double tie_epsilon;
        double decision_threshold;
        bool raise; ///< Expected to extend the cached prefix.
    };

    static const std::vector<Query>& queries() {
        static const std::vector<Query> q = {
            {30, 0.02, 0.90, false}, {30, 0.01, 0.90, false},
            {30, 0.05, 0.90, false}, {30, 0.02, 0.80, false},
            {30, 0.02, 0.95, false}, {45, 0.02, 0.90, true},
            {45, 0.01, 0.90, false}, {45, 0.05, 0.90, false},
            {45, 0.02, 0.80, false}, {45, 0.02, 0.95, false},
            {60, 0.02, 0.90, true},  {60, 0.01, 0.90, false},
            {60, 0.05, 0.90, false}, {60, 0.02, 0.80, false},
            {60, 0.02, 0.95, false}, {30, 0.03, 0.85, false},
        };
        return q;
    }

    static std::string label(std::size_t i) {
        const Query& q = queries()[i];
        char buf[96];
        std::snprintf(buf, sizeof buf, "q%02zu n=%zu eps=%.2f theta=%.2f",
                      i + 1, q.n, q.tie_epsilon, q.decision_threshold);
        return buf;
    }

    void setup(Tracer* tracer) override {
        CampaignWorkload::setup(tracer);
        // Prime: a cold campaign at the base budget, stored in a fresh cache.
        const std::string cache_dir = path("cache");
        fs::remove_all(cache_dir);
        relperf::cache::ResultCache cache({cache_dir, 0, 0});
        const CampaignSpec spec = query_spec(0);
        {
            const ScopedSpan span(tracer, "cache", "prime");
            const relperf::cache::CachedRunResult cold =
                relperf::cache::run_campaign_cached(spec, cache);
            relperf::core::write_clustering_csv(cold.analysis.clustering,
                                                cold.analysis.measurements,
                                                path("cold.csv"));
        }
        cold_csv_ = read_file(path("cold.csv"));
        primed_.clear();
        std::vector<fs::path> files;
        for (const auto& entry : fs::directory_iterator(cache_dir)) {
            files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        for (const fs::path& f : files) {
            primed_.emplace_back(f.filename().string(), read_file(f.string()));
        }
    }

    PassResult pass(Tracer* tracer) override {
        PassResult out;
        restore_primed();
        relperf::cache::ResultCache cache({path("cache"), 0, 0});
        std::unique_ptr<ObsScope> obs;
        if (tracer != nullptr) obs = std::make_unique<ObsScope>(false);
        traced_ = {};
        for (std::size_t i = 0; i < queries().size(); ++i) {
            ++out.ops;
            const std::uint64_t failed_before = out.failed;
            try {
                query(out, cache, i, tracer);
            } catch (const std::exception& e) {
                out.errors.push_back(label(i) + ": " + e.what());
                ++out.failed;
            }
            if (out.failed > failed_before) out.failed = failed_before + 1;
        }
        if (tracer != nullptr) {
            const std::uint32_t run = tracer->current_run();
            fill_common_layers(out, *tracer, run, spec_, traced_.sim,
                               &traced_.comparator);
            auto& m = out.layer;
            m["cache.lookup_s"] =
                span_time(*tracer, run, "cache", "lookup").busy_s;
            m["cache.store_s"] =
                span_time(*tracer, run, "cache", "store").busy_s;
            m["cache.bytes_read"] = static_cast<double>(traced_.bytes_read);
            m["cache.bytes_written"] =
                static_cast<double>(traced_.bytes_written);
            m["cache.exact"] = static_cast<double>(traced_.exact);
            m["cache.prefix"] = static_cast<double>(traced_.prefix);
            m["cache.misses"] = static_cast<double>(traced_.misses);
            m["cache.samples_served"] =
                static_cast<double>(traced_.samples_served);
            m["core.clustering.classes"] =
                static_cast<double>(traced_.classes);
            m["io.bytes_written"] = static_cast<double>(traced_.csv_bytes);
            cross_check(out, obs->delta(), traced_.sim.samples,
                        static_cast<std::uint64_t>(
                            m["core.clustering.calls"]),
                        traced_.comparator.calls, spec_.bootstrap_rounds);
            out.failed = std::min(out.failed, out.ops);
        }
        return out;
    }

    std::vector<RefCase> record() override {
        setup(nullptr);
        std::vector<RefCase> cases;
        const std::string csv = path("record.csv");
        for (std::size_t i = 0; i < queries().size(); ++i) {
            const AnalysisResult cold =
                relperf::campaign::run_campaign(query_spec(i));
            relperf::core::write_clustering_csv(cold.clustering,
                                                cold.measurements, csv);
            cases.push_back(observed_case(label(i), cold.measurements, csv));
        }
        return cases;
    }

private:
    /// Accumulators of a traced pass. The draw decorator sits under the
    /// replaying source, so it sees only the draws that reach the executor.
    struct TracedState {
        DrawStats sim;
        CompareStats comparator;
        std::uint64_t bytes_read = 0;
        std::uint64_t bytes_written = 0;
        std::uint64_t exact = 0;
        std::uint64_t prefix = 0;
        std::uint64_t misses = 0;
        std::uint64_t samples_served = 0;
        std::uint64_t csv_bytes = 0;
        int classes = 0;
    };

    [[nodiscard]] CampaignSpec query_spec(std::size_t i) const {
        CampaignSpec spec = spec_;
        const Query& q = queries()[i];
        spec.measurements = q.n;
        spec.tie_epsilon = q.tie_epsilon;
        spec.decision_threshold = q.decision_threshold;
        return spec;
    }

    [[nodiscard]] std::string entry_path(const CampaignSpec& spec,
                                         const char* ext) const {
        char name[32];
        std::snprintf(name, sizeof name, "%016llx.%s",
                      static_cast<unsigned long long>(spec.hash()), ext);
        return path("cache/" + std::string(name));
    }

    [[nodiscard]] std::uint64_t entry_bytes(const CampaignSpec& spec) const {
        return file_bytes(entry_path(spec, "csv")) +
               file_bytes(entry_path(spec, "meta"));
    }

    void restore_primed() {
        const std::string cache_dir = path("cache");
        fs::remove_all(cache_dir);
        fs::create_directories(cache_dir);
        for (const auto& [name, bytes] : primed_) {
            std::ofstream f((fs::path(cache_dir) / name).string(),
                            std::ios::binary);
            f << bytes;
        }
    }

    void query(PassResult& out, relperf::cache::ResultCache& cache,
               std::size_t i, Tracer* tracer) {
        const Query& q = queries()[i];
        const CampaignSpec spec = query_spec(i);
        const std::string csv = path("query.csv");
        MeasurementSet measurements;
        std::uint64_t drawn = 0;
        relperf::cache::HitKind kind = relperf::cache::HitKind::Miss;
        std::size_t previous_n = 0;
        if (tracer == nullptr) {
            relperf::cache::CachedRunResult r;
            {
                const Segment segment(out.wall_s);
                r = relperf::cache::run_campaign_cached(spec, cache);
                relperf::core::write_clustering_csv(
                    r.analysis.clustering, r.analysis.measurements, csv);
            }
            kind = r.cache;
            drawn = r.analysis.total_samples - r.samples_from_cache;
            previous_n = r.samples_from_cache / variant_count_;
            measurements = std::move(r.analysis.measurements);
        } else {
            kind = traced_query(out, cache, spec, csv, *tracer, measurements,
                                previous_n);
            drawn = measurements.total_samples() -
                    previous_n * measurements.size();
        }
        out.samples_drawn += drawn;

        const RefCase got = observed_case(label(i), measurements, csv);
        out.outputs.push_back(got.csv);
        const auto expected = q.raise ? relperf::cache::HitKind::Prefix
                                      : relperf::cache::HitKind::Exact;
        std::string problem;
        if (kind != expected) {
            problem = std::string("served as ") +
                      relperf::cache::to_string(kind) + ", expected " +
                      relperf::cache::to_string(expected);
        } else if (!q.raise && drawn != 0) {
            problem = "exact hit drew " + std::to_string(drawn) + " samples";
        } else if (q.raise && drawn != (q.n - previous_n) * variant_count_) {
            problem = "extension drew " + std::to_string(drawn) + " samples";
        } else if (i == 0 && got.csv != cold_csv_) {
            problem = "exact hit is not byte-identical to the cold run";
        }
        if (!problem.empty()) {
            out.errors.push_back(label(i) + ": " + problem);
            ++out.failed;
        }
        check_against(out, refs(), got);
    }

    relperf::cache::HitKind traced_query(PassResult& out,
                                         relperf::cache::ResultCache& cache,
                                         const CampaignSpec& spec,
                                         const std::string& csv,
                                         Tracer& tracer,
                                         MeasurementSet& measurements,
                                         std::size_t& previous_n) {
        const relperf::core::AnalysisConfig config = spec.analysis_config();
        const relperf::core::BootstrapComparator bootstrap(config.comparator);
        CountingComparator counting(bootstrap, &tracer);
        relperf::cache::CacheLookup lookup;
        Clustering clustering;
        std::unique_ptr<relperf::campaign::GlobalSampleSource> bundle;
        std::unique_ptr<TimedSource> timed;
        {
            const Segment segment(out.wall_s);
            const ScopedSpan root(&tracer, "pass", "query");
            {
                const ScopedSpan span(&tracer, "cache", "lookup");
                lookup = cache.lookup(spec);
            }
            if (lookup.kind == relperf::cache::HitKind::Exact) {
                measurements = std::move(lookup.merged);
            } else if (lookup.kind == relperf::cache::HitKind::Prefix) {
                const ScopedSpan span(&tracer, "campaign", "shards");
                bundle = std::make_unique<relperf::campaign::GlobalSampleSource>(
                    spec);
                timed = std::make_unique<TimedSource>(bundle->source(), &tracer);
                relperf::cache::CachedSampleSource replay(*timed,
                                                          lookup.merged);
                measurements =
                    relperf::core::measure_all(replay, spec.measurements);
            } else {
                ++traced_.misses;
                throw std::runtime_error("cache miss on a primed query");
            }
            {
                const ScopedSpan span(&tracer, "core.clustering", "cluster");
                const relperf::core::RelativeClusterer clusterer(
                    counting, config.clustering);
                clustering = clusterer.cluster(measurements);
            }
            if (lookup.kind == relperf::cache::HitKind::Prefix) {
                const ScopedSpan span(&tracer, "cache", "store");
                cache.store(spec, measurements);
            }
            write_clusters(&tracer, clustering, measurements, csv);
        }
        // Accounting outside the timed segment.
        previous_n = lookup.cached_budget;
        traced_.samples_served += previous_n * measurements.size();
        CampaignSpec cached = spec;
        cached.measurements = lookup.cached_budget;
        traced_.bytes_read += entry_bytes(cached);
        if (lookup.kind == relperf::cache::HitKind::Exact) {
            ++traced_.exact;
        } else {
            ++traced_.prefix;
            traced_.bytes_written += entry_bytes(spec);
            traced_.sim.add(timed->stats);
        }
        traced_.comparator.add(counting.stats);
        traced_.csv_bytes += file_bytes(csv);
        traced_.classes = clustering.cluster_count();
        return lookup.kind;
    }

    std::string cold_csv_;
    std::vector<std::pair<std::string, std::string>> primed_;
    TracedState traced_;
};

CampaignSpec sim_fixed_plan(std::uint64_t input) {
    CampaignSpec spec;
    apply_input(spec, input);
    spec.sizes = {50, 75, 100, 150, 300};
    spec.iters = 10;
    spec.measurements = 30;
    return spec;
}

/// The adaptive plan keeps relperf's default seeds for every input: its
/// stopping decisions, and with them its samples, rounds and wall time,
/// depend on the data (260 to 365 of 480 samples over 16 seed choices), so
/// varying the data would turn the work itself into noise. The benchmark
/// seed instead picks the coordinated shard split, which by construction
/// changes no measured value and no output — checked against one reference.
CampaignSpec sim_adaptive_plan(std::uint64_t input) {
    CampaignSpec spec;
    spec.sizes = {50, 75, 150, 300};
    spec.iters = 10;
    spec.measurements = 30;
    spec.adaptive_min = 10;
    spec.adaptive_batch = 5;
    spec.adaptive_coordinated = true;
    spec.adaptive_confidence = 0.95;
    static constexpr std::size_t kShards[] = {4, 2, 8, 16};
    spec.shards = kShards[input % 4];
    return spec;
}

CampaignSpec real_fixed_plan(std::uint64_t input) {
    CampaignSpec spec;
    apply_input(spec, input);
    spec.sizes = {40, 60, 120};
    spec.iters = 2;
    spec.executor = relperf::campaign::ExecutorKind::Real;
    spec.measurements = 30;
    spec.device_threads = 1;
    spec.accelerator_threads = 1;
    return spec;
}

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "sim-fixed", "sim-adaptive", "real-fixed", "cache-queries"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t input,
                                        const std::string& work_dir,
                                        const std::string& refs_dir) {
    const auto refs = [&](const std::string& id) {
        return (fs::path(refs_dir) / (name + id + ".ref")).string();
    };
    const std::string per_input = "-" + std::to_string(input);
    if (name == "sim-fixed") {
        return std::make_unique<FixedCampaign>(name, sim_fixed_plan(input),
                                               refs(per_input), work_dir);
    }
    if (name == "sim-adaptive") {
        return std::make_unique<SimAdaptive>(name, sim_adaptive_plan(input),
                                             refs(""), work_dir);
    }
    if (name == "real-fixed") {
        return std::make_unique<RealFixed>(name, real_fixed_plan(input), "",
                                           work_dir);
    }
    if (name == "cache-queries") {
        CampaignSpec plan; // the 8-variant CI plan
        apply_input(plan, input);
        return std::make_unique<CacheQueries>(name, plan, refs(per_input),
                                              work_dir);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
