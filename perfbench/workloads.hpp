#pragma once
//! \file workloads.hpp
//! The four benchmark workloads. Each one is a campaign plan derived from
//! an input id (the benchmark seed modulo kInputs), a set-up step and a
//! pass: the timed unit from a spec in hand to a written clustering CSV
//! (for cache-queries, the whole query sequence). A pass runs untraced
//! through the public entry points users call (run_campaign,
//! run_campaign_cached), or traced through the same public API decomposed
//! into per-layer calls, each wrapped in a span.

#include "layers.hpp"
#include "refs.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Number of distinct inputs per workload; references exist for each.
inline constexpr std::uint64_t kInputs = 16;

/// Outcome of one pass.
struct PassResult {
    double wall_s = 0.0;
    std::uint64_t ops = 0;    ///< Campaigns or queries attempted.
    std::uint64_t failed = 0; ///< Of those, ones that threw or failed a check.
    std::uint64_t samples_drawn = 0; ///< Executor draws.
    /// Clustering CSV bytes of every campaign output, in order (compared
    /// between traced and untraced passes).
    std::vector<std::string> outputs;
    /// Per-layer metrics (traced passes only).
    std::map<std::string, double> layer;
    std::vector<std::string> errors;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// One-time work before the timed phase; the benchmark repeats it and
    /// reports the median. The last repetition's state feeds the passes.
    /// With a tracer, the set-up calls are recorded as spans.
    virtual void setup(Tracer* tracer) = 0;

    /// One timed pass; traced when `tracer` is non-null.
    virtual PassResult pass(Tracer* tracer) = 0;

    /// True when outputs are deterministic, so traced and untraced passes
    /// must produce identical bytes.
    [[nodiscard]] virtual bool deterministic() const { return true; }

    /// Cold reference outputs for this input (the --record mode). Empty for
    /// workloads checked structurally.
    [[nodiscard]] virtual std::vector<RefCase> record() = 0;

    /// The reference file this input is checked against (several inputs
    /// may share one).
    [[nodiscard]] virtual const std::string& refs_file() const = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` for input `input` (< kInputs). Work files go
/// under `work_dir`; references are read from `refs_dir`. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t input, const std::string& work_dir,
    const std::string& refs_dir);

} // namespace perfbench
