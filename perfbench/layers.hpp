#pragma once
//! \file layers.hpp
//! The benchmark's own tracing: an in-memory span recorder and the
//! decorators that time calls into relperf's layers from outside the
//! library — a SampleSource wrapper for executor draws (layer `sim`) and a
//! Comparator wrapper for bootstrap comparisons (layer `core.comparator`).
//! Everything here is single-threaded: the clusterer calls its comparator
//! and the engine its sample source from the calling thread.

#include "core/comparison.hpp"
#include "core/measurement.hpp"
#include "core/measurement_engine.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the same epoch as relperf's obs clock,
/// which reads steady_clock in microseconds).
[[nodiscard]] std::uint64_t now_ns() noexcept;

[[nodiscard]] double seconds_since(Clock::time_point start) noexcept;

/// One completed span. `layer` names the relperf module the call went
/// into; `parent` indexes the enclosing span (-1 for a pass root); `run`
/// is the pass the span belongs to.
struct SpanRecord {
    const char* layer = "";
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint32_t run = 0;
};

/// Per-layer totals of one pass, derived from its spans. `busy_s` sums the
/// outermost spans of the layer, `self_s` subtracts the time child spans of
/// other layers cover, `calls` counts the outermost spans.
struct LayerTime {
    double busy_s = 0.0;
    double self_s = 0.0;
    std::uint64_t calls = 0;
};

/// Keeps spans in memory; write_jsonl() dumps them once the run ends.
class Tracer {
public:
    /// Starts a new pass; later spans carry this run id.
    void begin_run(std::uint32_t run) noexcept { run_ = run; }
    [[nodiscard]] std::uint32_t current_run() const noexcept { return run_; }

    /// Opens a span under the innermost open one; returns its index.
    std::size_t open(const char* layer, const char* name);
    void close(std::size_t index);

    /// Records an already-finished span under the innermost open one (spans
    /// imported from relperf's own obs trace).
    void add_closed(const char* layer, const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns);

    [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
        return spans_;
    }

    /// Layer totals over the spans of pass `run`.
    [[nodiscard]] std::map<std::string, LayerTime> layer_times(
        std::uint32_t run) const;

    /// One JSON object per line: layer, name, start/end ns, parent, run.
    void write_jsonl(const std::string& path) const;

private:
    std::vector<SpanRecord> spans_;
    std::vector<std::size_t> open_;
    std::uint32_t run_ = 0;
};

/// RAII span; inert when the tracer is null (the untraced path).
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, const char* layer, const char* name)
        : tracer_(tracer),
          index_(tracer != nullptr ? tracer->open(layer, name) : 0) {}
    ~ScopedSpan() {
        if (tracer_ != nullptr) tracer_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer* tracer_;
    std::size_t index_;
};

/// What a TimedSource saw: draws, samples, their summed values (the device
/// seconds the draws represent) and samples per algorithm (source order).
struct DrawStats {
    std::uint64_t draw_calls = 0;
    std::uint64_t samples = 0;
    double device_s = 0.0;
    std::vector<std::size_t> per_alg;

    void add(const DrawStats& other);
};

/// What a CountingComparator saw.
struct CompareStats {
    std::uint64_t calls = 0;
    std::uint64_t decisive = 0; ///< Outcomes other than Equivalent.

    void add(const CompareStats& other) {
        calls += other.calls;
        decisive += other.decisive;
    }
};

/// Layer `sim`: counts and times every draw of the wrapped source, and sums
/// the sample values (the device seconds the draws represent). skip() is a
/// stream fast-forward that measures nothing, so it is forwarded uncounted.
class TimedSource final : public relperf::core::SampleSource {
public:
    TimedSource(relperf::core::SampleSource& inner, Tracer* tracer)
        : inner_(inner), tracer_(tracer) {}

    [[nodiscard]] std::size_t count() const override { return inner_.count(); }
    [[nodiscard]] std::string name(std::size_t index) const override {
        return inner_.name(index);
    }
    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override;
    void skip(std::size_t index, std::size_t n) override {
        inner_.skip(index, n);
    }

    DrawStats stats;

private:
    relperf::core::SampleSource& inner_;
    Tracer* tracer_;
};

/// Layer `core.comparator`: counts and times every three-way comparison the
/// clusterer asks of the wrapped comparator.
class CountingComparator final : public relperf::core::Comparator {
public:
    CountingComparator(const relperf::core::Comparator& inner, Tracer* tracer)
        : inner_(inner), tracer_(tracer) {}

    [[nodiscard]] relperf::core::Ordering compare(
        std::span<const double> a, std::span<const double> b,
        relperf::stats::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return inner_.name(); }

    mutable CompareStats stats;

private:
    const relperf::core::Comparator& inner_;
    Tracer* tracer_;
};

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a digest of a measurement set: names, per-algorithm counts and the
/// exact bit patterns of every sample, in order.
[[nodiscard]] std::uint64_t digest(const relperf::core::MeasurementSet& set);

[[nodiscard]] std::string read_file(const std::string& path);

/// Size of `path` in bytes, 0 when it does not exist.
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);

} // namespace perfbench
