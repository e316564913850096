#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace skv::obs {

/// Deterministic JSON builder shared by the metric exporters and the bench
/// binaries. All floating-point values are formatted with a fixed decimal
/// count via snprintf, so same-seed runs produce byte-identical documents
/// (the stability guarantee EXPERIMENTS.md documents for the bench schema).
class JsonWriter {
public:
    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();
    JsonWriter& key(std::string_view k);
    JsonWriter& value(double v, int decimals = 3);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter& value(std::string_view s);
    JsonWriter& value_bool(bool b);
    /// key + value in one call, for flat rows.
    template <typename T> JsonWriter& kv(std::string_view k, T v) {
        key(k);
        return value(v);
    }
    [[nodiscard]] const std::string& str() const { return out_; }

private:
    void pre();
    std::string out_;
    bool comma_ = false;
};

/// Escape a string for embedding in JSON (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Full registry dump as sorted "scope.name=value" text lines, including
/// timer summaries (count/mean/p50/p99/p999/max). Unlike Registry::format()
/// this is the complete picture; format() keeps its frozen counters-then-
/// gauges layout without timers.
[[nodiscard]] std::string registry_text(const Registry& r);

/// Registry as a JSON object: {"scope":...,"counters":{...},"gauges":{...},
/// "timers":{name:{count,mean_us,p50_us,p99_us,p999_us,max_us}}}.
[[nodiscard]] std::string registry_json(const Registry& r);
[[nodiscard]] std::string snapshot_json(const Snapshot& s,
                                        std::string_view scope = {});

/// Tracer spans as chrome://tracing "traceEvents" JSON (ph:"X" complete
/// events, ts/dur in microseconds with fixed 3-decimal formatting, tracks
/// mapped to tids with thread_name metadata). Byte-identical across
/// same-seed runs.
[[nodiscard]] std::string chrome_trace_json(const Tracer& t);

/// Write chrome_trace_json(t) to `path`. Returns false on I/O failure.
bool write_chrome_trace(const Tracer& t, const std::string& path);

/// The single place library/bench code is permitted to write to stdout
/// (tools/simlint enforces that src/obs/export* is the only stdout writer
/// under src/). Bench binaries route their human tables and machine
/// "JSON: {...}" lines through these.
void print_stdout(std::string_view s);
void print_line(std::string_view s);

/// Emit one machine-readable bench result line: `JSON: {...}\n`. The body
/// must already be a complete JSON object (build it with JsonWriter).
void print_bench_json(const JsonWriter& w);

} // namespace skv::obs
