//! perfbench — runs one benchmark workload for a fixed time and prints
//! its metrics as one JSON line (the last line of stdout).
//!
//!   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--work-dir DIR] [--refs-dir DIR]
//!   perfbench --workload <name> --record [--refs-dir DIR]
//!
//! --trace 0 prints the end-to-end metrics, measured with tracing off.
//! --trace 1 alternates untraced and traced passes and prints the per-layer
//! metrics of the traced ones (medians over passes), the tracing overhead,
//! and writes every span to <work-dir>/trace-<workload>.jsonl at the end.
//! --record rewrites the reference outputs of every input of a workload.

#include "layers.hpp"
#include "refs.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace perfbench;

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"samples_drawn", "count"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"campaign.spec_s", "s"},
    {"campaign.shards_s", "s"},
    {"campaign.merge_s", "s"},
    {"campaign.merge_calls", "count"},
    {"campaign.self_s", "s"},
    {"sim.draw_calls", "count"},
    {"sim.samples", "count"},
    {"sim.busy_s", "s"},
    {"sim.device_s", "s"},
    {"sim.busy_per_device_s", "ratio"},
    {"linalg.flops", "flop"},
    {"linalg.gflops", "GFLOP/s"},
    {"core.comparator.calls", "count"},
    {"core.comparator.busy_s", "s"},
    {"core.comparator.ns_per_call", "ns"},
    {"core.comparator.decisive_ratio", "ratio"},
    {"core.clustering.calls", "count"},
    {"core.clustering.busy_s", "s"},
    {"core.clustering.self_s", "s"},
    {"core.clustering.classes", "count"},
    {"core.engine.rounds", "count"},
    {"core.engine.clusterings", "count"},
    {"core.engine.busy_s", "s"},
    {"core.engine.self_s", "s"},
    {"core.engine.max_round_s", "s"},
    {"core.engine.saved_ratio", "ratio"},
    {"cache.lookup_s", "s"},
    {"cache.store_s", "s"},
    {"cache.bytes_read", "B"},
    {"cache.bytes_written", "B"},
    {"cache.exact", "count"},
    {"cache.prefix", "count"},
    {"cache.misses", "count"},
    {"cache.samples_served", "count"},
    {"io.write_s", "s"},
    {"io.bytes_written", "B"},
    {"trace.wall_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.attributed_ratio", "ratio"},
    {"trace.spans", "count"},
};

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string work_dir = ".bench_work";
    std::string refs_dir = "perfbench/refs";
};

[[noreturn]] void usage(const std::string& problem) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir DIR] "
                 "[--refs-dir DIR]\n"
                 "       perfbench --workload <name> --record "
                 "[--refs-dir DIR]\n",
                 problem.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--record") {
            args.record = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (key == "--work-dir") {
                args.work_dir = value;
            } else if (key == "--refs-dir") {
                args.refs_dir = value;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + key);
        }
    }
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
        usage("unknown workload '" + args.workload + "'");
    }
    if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    return args;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int record(const Args& args) {
    std::filesystem::create_directories(args.refs_dir);
    std::vector<std::string> written;
    for (std::uint64_t input = 0; input < kInputs; ++input) {
        auto workload =
            make_workload(args.workload, input, args.work_dir, args.refs_dir);
        const std::string& path = workload->refs_file();
        if (std::find(written.begin(), written.end(), path) != written.end()) {
            continue;
        }
        const std::vector<RefCase> cases = workload->record();
        if (cases.empty()) {
            std::fprintf(stderr, "%s has no reference outputs\n",
                         args.workload.c_str());
            return 1;
        }
        write_refs(path,
                   "perfbench reference outputs: " + args.workload + ", input " +
                       std::to_string(input) +
                       " (perfbench --workload " + args.workload +
                       " --record)",
                   cases);
        written.push_back(path);
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return 0;
}

/// Per-pass bookkeeping shared by both modes.
struct Totals {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void add(const PassResult& pass) {
        attempted += pass.ops;
        failed += pass.failed;
        errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
    }
};

void print_result(const Totals& totals,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
    for (std::size_t i = 0; i < totals.errors.size() && i < 20; ++i) {
        std::fprintf(stderr, "check failed: %s\n", totals.errors[i].c_str());
    }
    std::string json = "{\"correct\": ";
    json += totals.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(totals.attempted);
    json += ", \"failed\": " + std::to_string(totals.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) v = 0.0;
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", v);
        json += (i == 0 ? "\"" : ", \"") + std::string(defs[i].name) +
                "\": {\"value\": " + number + ", \"unit\": \"" + defs[i].unit +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int run(const Args& args) {
    const std::uint64_t input = args.seed % kInputs;
    auto workload =
        make_workload(args.workload, input, args.work_dir, args.refs_dir);
    Tracer tracer;

    // Set-up is timed in blocks, one before every iteration of the timed
    // phase, so the metric samples the whole run like the passes do. A
    // block repeats set-up for at least kSetupBlockSeconds (one repetition
    // when set-up is slower than that); the last repetition's state feeds
    // the following passes. A block's time is its fastest repetition:
    // interference from other tenants only ever adds time, and a
    // microsecond set-up repeated for 20 ms otherwise reads the density of
    // that interference. setup_s is the median over the run's blocks. A
    // traced run also traces one extra set-up (run id 0).
    constexpr double kSetupBlockSeconds = 0.02;
    constexpr std::size_t kMaxSetupBlockReps = 1000;
    std::vector<double> setup_times; // one per block
    const auto setup_block = [&] {
        const auto block_start = Clock::now();
        double fastest = 0.0;
        std::size_t reps = 0;
        do {
            const auto start = Clock::now();
            workload->setup(nullptr);
            const double t = seconds_since(start);
            fastest = reps == 0 ? t : std::min(fastest, t);
            ++reps;
        } while (seconds_since(block_start) < kSetupBlockSeconds &&
                 reps < kMaxSetupBlockReps);
        setup_times.push_back(fastest);
    };
    if (args.trace) workload->setup(&tracer);

    // The timed phase: iterations until --seconds have passed (at least
    // one). An iteration is a set-up block and a pass; traced runs add a
    // traced pass after the untraced one.
    Totals totals;
    std::vector<PassResult> plain;
    std::vector<PassResult> traced;
    const auto phase_start = Clock::now();
    std::uint32_t run_id = 0;
    while (plain.empty() || seconds_since(phase_start) < args.seconds) {
        setup_block();
        plain.push_back(workload->pass(nullptr));
        totals.add(plain.back());
        if (args.trace) {
            tracer.begin_run(++run_id);
            traced.push_back(workload->pass(&tracer));
            PassResult& t = traced.back();
            if (workload->deterministic() &&
                t.outputs != plain.back().outputs) {
                t.errors.push_back("traced outputs differ from untraced ones");
                t.failed = std::min<std::uint64_t>(t.failed + 1, t.ops);
            }
            totals.add(t);
        }
    }

    // A summary of the samples behind the medians, for reading the noise.
    const auto describe = [](const char* what, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::fprintf(stderr, "%s: n=%zu min=%.6g median=%.6g max=%.6g\n", what,
                     v.size(), v.front(), median(v), v.back());
    };
    describe("setup_s", setup_times);
    std::vector<double> pass_walls;
    for (const PassResult& p : plain) pass_walls.push_back(p.wall_s);
    describe("wall_s", pass_walls);

    std::map<std::string, double> values;
    const auto collect = [](const std::vector<PassResult>& passes,
                            auto field) {
        std::vector<double> v;
        for (const PassResult& p : passes) v.push_back(field(p));
        return median(std::move(v));
    };
    const double plain_wall =
        collect(plain, [](const PassResult& p) { return p.wall_s; });
    if (!args.trace) {
        values["wall_s"] = plain_wall;
        values["setup_s"] = median(setup_times);
        values["samples_drawn"] = collect(plain, [](const PassResult& p) {
            return static_cast<double>(p.samples_drawn);
        });
        values["peak_rss_mb"] = peak_rss_mb();
        print_result(totals, kEndToEnd, values);
        return 0;
    }

    for (const MetricDef& def : kPerLayer) {
        values[def.name] = collect(traced, [&def](const PassResult& p) {
            const auto it = p.layer.find(def.name);
            return it == p.layer.end() ? 0.0 : it->second;
        });
    }
    double spec_s = 0.0;
    std::size_t spans = 0;
    for (const SpanRecord& s : tracer.spans()) {
        if (s.run == 0 && std::string(s.layer) == "campaign" &&
            std::string(s.name) == "spec") {
            spec_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        }
        spans += s.run != 0;
    }
    const double traced_wall =
        collect(traced, [](const PassResult& p) { return p.wall_s; });
    values["campaign.spec_s"] = spec_s;
    values["trace.wall_s"] = traced_wall;
    values["trace.overhead_ratio"] =
        plain_wall > 0.0 ? traced_wall / plain_wall : 0.0;
    values["trace.spans"] =
        static_cast<double>(spans) / static_cast<double>(traced.size());
    std::filesystem::create_directories(args.work_dir);
    tracer.write_jsonl((std::filesystem::path(args.work_dir) /
                        ("trace-" + args.workload + ".jsonl"))
                           .string());
    print_result(totals, kPerLayer, values);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    try {
        return args.record ? record(args) : run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
