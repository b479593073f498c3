#include "obs/trace.hpp"

#include "obs/clock.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "support/error.hpp"

#include <atomic>
#include <charconv>
#include <fstream>
#include <mutex>

namespace relperf::obs {

namespace {

/// Backstop against unbounded growth in very long-lived processes; at
/// typical campaign span rates this is far above any real run.
constexpr std::size_t kMaxTraceEvents = std::size_t{1} << 20;

std::mutex g_buffer_mutex;
std::vector<TraceEvent> g_buffer;
std::atomic<std::uint64_t> g_dropped{0};

std::uint32_t thread_id() {
    static std::atomic<std::uint32_t> next{0};
    // Sequential per-thread ids: small, stable within a run, and free of
    // the platform-specific width and format of native thread ids.
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

std::string json_escape(std::string_view v) {
    std::string out;
    out.reserve(v.size() + 2);
    out.push_back('"');
    for (const char c : v) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char* hex = "0123456789abcdef";
                out += "\\u00";
                out.push_back(hex[(c >> 4) & 0xF]);
                out.push_back(hex[c & 0xF]);
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string format_double(double v) {
    char buf[64];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

} // namespace

Span::Span(const char* name, const char* cat) : armed_(tracing_enabled()) {
    if (!armed_) return;
    event_.name = name;
    event_.cat = cat;
    start_us_ = now_micros();
}

Span::~Span() {
    if (!armed_) return;
    const std::uint64_t end_us = now_micros();
    event_.ts_us = start_us_;
    event_.dur_us = end_us - start_us_;
    event_.tid = thread_id();
    const std::lock_guard<std::mutex> lock(g_buffer_mutex);
    if (g_buffer.size() >= kMaxTraceEvents) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    g_buffer.push_back(std::move(event_));
}

Span& Span::arg(const char* key, std::uint64_t v) {
    if (armed_) event_.args.emplace_back(key, std::to_string(v));
    return *this;
}

Span& Span::arg(const char* key, double v) {
    if (armed_) event_.args.emplace_back(key, format_double(v));
    return *this;
}

Span& Span::arg(const char* key, std::string_view v) {
    if (armed_) event_.args.emplace_back(key, json_escape(v));
    return *this;
}

void clear_trace() {
    const std::lock_guard<std::mutex> lock(g_buffer_mutex);
    g_buffer.clear();
    g_dropped.store(0, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
    const std::lock_guard<std::mutex> lock(g_buffer_mutex);
    return g_buffer.size();
}

std::uint64_t trace_events_dropped() {
    return g_dropped.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_events() {
    const std::lock_guard<std::mutex> lock(g_buffer_mutex);
    return g_buffer;
}

std::string render_trace_json() {
    const std::vector<TraceEvent> events = trace_events();
    std::string out = "{\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        out += "{\"name\":" + json_escape(e.name) +
               ",\"cat\":" + json_escape(e.cat) +
               ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
               ",\"ts\":" + std::to_string(e.ts_us) +
               ",\"dur\":" + std::to_string(e.dur_us) + ",\"args\":{";
        for (std::size_t a = 0; a < e.args.size(); ++a) {
            if (a != 0) out += ",";
            out += json_escape(e.args[a].first) + ":" + e.args[a].second;
        }
        out += "}}";
        if (i + 1 < events.size()) out += ",";
        out += "\n";
    }
    out += "],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"provenance\": {";
    const std::vector<ProvenanceEntry> record = provenance();
    for (std::size_t i = 0; i < record.size(); ++i) {
        if (i != 0) out += ",";
        out += json_escape(record[i].key) + ":" + json_escape(record[i].value);
    }
    out += "},\"droppedEvents\":" + std::to_string(trace_events_dropped()) +
           "}\n}\n";
    return out;
}

void write_trace_json(const std::string& path) {
    std::ofstream out(path);
    RELPERF_REQUIRE(static_cast<bool>(out),
                    "trace: cannot open output file: " + path);
    out << render_trace_json();
    out.close();
    RELPERF_REQUIRE(static_cast<bool>(out),
                    "trace: failed writing output file: " + path);
}

} // namespace relperf::obs
