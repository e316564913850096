#include "obs/export.hpp"

#include <cstdio>
#include <fstream>

namespace skv::obs {

void JsonWriter::pre() {
    if (comma_) out_ += ',';
    comma_ = false;
}

JsonWriter& JsonWriter::begin_object() {
    pre();
    out_ += '{';
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    out_ += '}';
    comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    pre();
    out_ += '[';
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    out_ += ']';
    comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
    pre();
    out_ += '"';
    out_ += json_escape(k);
    out_ += "\":";
    return *this;
}

JsonWriter& JsonWriter::value(double v, int decimals) {
    pre();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    out_ += buf;
    comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
    pre();
    out_ += std::to_string(v);
    comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
    pre();
    out_ += std::to_string(v);
    comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
    pre();
    out_ += '"';
    out_ += json_escape(s);
    out_ += '"';
    comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::value_bool(bool b) {
    pre();
    out_ += b ? "true" : "false";
    comma_ = true;
    return *this;
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string chrome_trace_json(const Tracer& t) {
    // ts/dur in microseconds. ns -> us with 3 decimals is an exact decimal
    // conversion, so snprintf output is deterministic byte for byte.
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    const auto& tracks = t.track_names();
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
        out += std::to_string(i);
        out += ",\"args\":{\"name\":\"" + json_escape(tracks[i]) + "\"}}";
    }
    char buf[192];
    for (const auto& sp : t.spans()) {
        if (!first) out += ',';
        first = false;
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":\"%016llx\"}}",
            stage_name(sp.stage), sp.track,
            static_cast<double>(sp.begin.ns()) / 1e3,
            static_cast<double>((sp.end - sp.begin).ns()) / 1e3,
            static_cast<unsigned long long>(sp.id));
        out += buf;
    }
    out += "],\"displayTimeUnit\":\"ns\",\"metadata\":{\"dropped_spans\":";
    out += std::to_string(t.dropped_spans());
    out += "}}";
    return out;
}

bool write_chrome_trace(const Tracer& t, const std::string& path) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    const std::string json = chrome_trace_json(t);
    f.write(json.data(), static_cast<std::streamsize>(json.size()));
    return static_cast<bool>(f);
}

void print_stdout(std::string_view s) {
    std::fwrite(s.data(), 1, s.size(), stdout);
}

void print_line(std::string_view s) {
    print_stdout(s);
    print_stdout("\n");
}

void print_bench_json(const JsonWriter& w) {
    print_stdout("JSON: ");
    print_line(w.str());
}

} // namespace skv::obs
