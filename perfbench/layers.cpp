#include "layers.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double seconds_since(Clock::time_point start) noexcept {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t Tracer::open(const char* layer, const char* name) {
    SpanRecord span;
    span.layer = layer;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.run = run_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add_closed(const char* layer, const char* name,
                        std::uint64_t start_ns, std::uint64_t end_ns) {
    SpanRecord span;
    span.layer = layer;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.run = run_;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
}

std::map<std::string, LayerTime> Tracer::layer_times(std::uint32_t run) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
        if (s.run != run || s.parent < 0) continue;
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        if (s.run != run) continue;
        const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        LayerTime& t = out[s.layer];
        t.self_s += dur - child_s[i];
        const bool outermost =
            s.parent < 0 ||
            std::strcmp(spans_[static_cast<std::size_t>(s.parent)].layer,
                        s.layer) != 0;
        if (outermost) {
            t.busy_s += dur;
            ++t.calls;
        }
    }
    return out;
}

void Tracer::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
    for (const SpanRecord& s : spans_) {
        out << "{\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}\n";
    }
}

std::vector<double> TimedSource::draw(std::size_t index, std::size_t n) {
    const ScopedSpan span(tracer_, "sim", "draw");
    std::vector<double> values = inner_.draw(index, n);
    ++stats.draw_calls;
    stats.samples += values.size();
    for (const double v : values) stats.device_s += v;
    if (stats.per_alg.size() < inner_.count()) {
        stats.per_alg.resize(inner_.count(), 0);
    }
    stats.per_alg[index] += values.size();
    return values;
}

void DrawStats::add(const DrawStats& other) {
    draw_calls += other.draw_calls;
    samples += other.samples;
    device_s += other.device_s;
    per_alg.resize(std::max(per_alg.size(), other.per_alg.size()), 0);
    for (std::size_t i = 0; i < other.per_alg.size(); ++i) {
        per_alg[i] += other.per_alg[i];
    }
}

relperf::core::Ordering CountingComparator::compare(
    std::span<const double> a, std::span<const double> b,
    relperf::stats::Rng& rng) const {
    const ScopedSpan span(tracer_, "core.comparator", "compare");
    const relperf::core::Ordering outcome = inner_.compare(a, b, rng);
    ++stats.calls;
    if (outcome != relperf::core::Ordering::Equivalent) ++stats.decisive;
    return outcome;
}

double peak_rss_mb() {
    // VmHWM is this image's own high-water mark. getrusage's ru_maxrss is the
    // fallback only: Linux carries it across execve, so it would report the
    // launching process's footprint when that was larger.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB
        }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

std::uint64_t digest(const relperf::core::MeasurementSet& set) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void* data, std::size_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    for (std::size_t i = 0; i < set.size(); ++i) {
        const std::string& name = set.name(i);
        mix(name.data(), name.size());
        const auto samples = set.samples(i);
        const std::uint64_t n = samples.size();
        mix(&n, sizeof n);
        mix(samples.data(), samples.size_bytes());
    }
    return h;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

} // namespace perfbench
