#include "kv/resp.hpp"

#include "kv/sds.hpp"

namespace skv::kv::resp {

namespace {
constexpr std::string_view kCrlf = "\r\n";
}

std::string simple(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 3);
    out += '+';
    out += s;
    out += kCrlf;
    return out;
}

std::string error(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 3);
    out += '-';
    out += s;
    out += kCrlf;
    return out;
}

std::string integer(long long v) {
    std::string out = ":";
    out += ll2string(v);
    out += kCrlf;
    return out;
}

void append_bulk(std::string& out, std::string_view s) {
    char len[kLongStrSize];
    const std::string_view digits = ll2str(static_cast<long long>(s.size()), len);
    out.reserve(out.size() + 1 + digits.size() + 2 + s.size() + 2);
    out += '$';
    out += digits;
    out += kCrlf;
    out += s;
    out += kCrlf;
}

void append_array_header(std::string& out, std::size_t n) {
    char len[kLongStrSize];
    out += '*';
    out += ll2str(static_cast<long long>(n), len);
    out += kCrlf;
}

std::string bulk(std::string_view s) {
    std::string out;
    append_bulk(out, s);
    return out;
}

std::string null_bulk() { return "$-1\r\n"; }
std::string null_array() { return "*-1\r\n"; }

std::string array_header(std::size_t n) {
    std::string out;
    append_array_header(out, n);
    return out;
}

std::string command(const std::vector<std::string>& argv) {
    // One allocation: the header's framing takes at most kLongStrSize + 3
    // bytes, each element's at most kLongStrSize + 5.
    std::size_t size = kLongStrSize + 3;
    for (const auto& a : argv) size += a.size() + kLongStrSize + 5;
    std::string out;
    out.reserve(size);
    append_array_header(out, argv.size());
    for (const auto& a : argv) append_bulk(out, a);
    return out;
}

std::string Value::to_debug_string() const {
    // Appended into one string: operator+ on a literal and a temporary
    // trips a GCC 12 -Wrestrict false positive at -O3.
    std::string out;
    switch (kind) {
        case Kind::kSimple: out.append("+").append(str); return out;
        case Kind::kError: out.append("-").append(str); return out;
        case Kind::kInteger: out.append(":").append(ll2string(num)); return out;
        case Kind::kBulk: out.append("\"").append(str).append("\""); return out;
        case Kind::kNull: return "(nil)";
        case Kind::kArray:
            out.push_back('[');
            for (std::size_t i = 0; i < elems.size(); ++i) {
                if (i) out.append(", ");
                out.append(elems[i].to_debug_string());
            }
            out.push_back(']');
            return out;
    }
    return "?";
}

// --- RequestParser -------------------------------------------------------

std::optional<std::string_view> RequestParser::take_line(
    std::size_t from, std::size_t* end_pos) const {
    const std::size_t nl = buf_.find('\n', from);
    if (nl == std::string::npos) return std::nullopt;
    std::size_t end = nl;
    if (end > from && buf_[end - 1] == '\r') --end;
    *end_pos = nl + 1;
    return std::string_view(buf_).substr(from, end - from);
}

void RequestParser::compact() {
    if (pos_ == 0) return;
    // Avoid quadratic behaviour: only shift once most of the buffer is
    // consumed.
    if (pos_ >= buf_.size() || pos_ > 4096) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

void RequestParser::reset() {
    buf_.clear();
    pos_ = 0;
}

Status RequestParser::next(std::vector<std::string>* argv, std::string* errmsg) {
    Status st = Status::kNeedMore;
    // An empty command ("*0", "*-1" or a whitespace-only line) parses as kOk
    // with an empty argv: skip it and go on, in a loop, so no run of them
    // can exhaust the stack.
    for (;;) {
        // Skip blank lines between commands (Redis tolerates them inline).
        while (pos_ + 1 < buf_.size() && buf_[pos_] == '\r' && buf_[pos_ + 1] == '\n') {
            pos_ += 2;
        }
        if (pos_ >= buf_.size()) {
            st = Status::kNeedMore;
            break;
        }
        st = buf_[pos_] == '*' ? parse_multibulk(argv, errmsg)
                               : parse_inline(argv, errmsg);
        if (st != Status::kOk || !argv->empty()) break;
    }
    compact();
    return st;
}

Status RequestParser::parse_inline(std::vector<std::string>* argv,
                                   std::string* errmsg) {
    std::size_t after = 0;
    const auto line = take_line(pos_, &after);
    if (!line.has_value()) return Status::kNeedMore;
    auto split = Sds::split_args(*line);
    pos_ = after;
    if (!split.has_value()) {
        if (errmsg) *errmsg = "Protocol error: unbalanced quotes in request";
        return Status::kError;
    }
    argv->clear(); // stays empty for a blank line, which next() skips
    argv->reserve(split->size());
    for (auto& s : *split) argv->push_back(s.str());
    return Status::kOk;
}

Status RequestParser::parse_multibulk(std::vector<std::string>* argv,
                                      std::string* errmsg) {
    std::size_t p = pos_;
    std::size_t after = 0;
    const auto header = take_line(p, &after);
    if (!header.has_value()) return Status::kNeedMore;
    const auto count = string2ll(header->substr(1));
    if (!count.has_value() || *count > kMaxMultiBulk) {
        if (errmsg) *errmsg = "Protocol error: invalid multibulk length";
        return Status::kError;
    }
    p = after;
    if (*count <= 0) { // "*0\r\n" or "*-1\r\n": no command, next() skips it
        pos_ = p;
        argv->clear();
        return Status::kOk;
    }
    std::vector<std::string> out;
    out.reserve(static_cast<std::size_t>(*count));
    for (long long i = 0; i < *count; ++i) {
        const auto lenline = take_line(p, &after);
        if (!lenline.has_value()) return Status::kNeedMore;
        if (lenline->empty() || (*lenline)[0] != '$') {
            if (errmsg) {
                *errmsg = "Protocol error: expected '$', got '";
                *errmsg += lenline->empty() ? ' ' : (*lenline)[0];
                *errmsg += '\'';
            }
            return Status::kError;
        }
        const auto len = string2ll(lenline->substr(1));
        if (!len.has_value() || *len < 0 || *len > kMaxBulk) {
            if (errmsg) *errmsg = "Protocol error: invalid bulk length";
            return Status::kError;
        }
        p = after;
        if (buf_.size() - p < static_cast<std::size_t>(*len) + 2) {
            return Status::kNeedMore;
        }
        out.emplace_back(buf_, p, static_cast<std::size_t>(*len));
        p += static_cast<std::size_t>(*len);
        if (buf_[p] != '\r' || buf_[p + 1] != '\n') {
            if (errmsg) *errmsg = "Protocol error: bulk not CRLF-terminated";
            return Status::kError;
        }
        p += 2;
    }
    pos_ = p;
    *argv = std::move(out);
    return Status::kOk;
}

// --- ReplyParser ------------------------------------------------------------

std::optional<std::string_view> ReplyParser::take_line(std::size_t from,
                                                       std::size_t* end_pos) const {
    const std::size_t nl = buf_.find('\n', from);
    if (nl == std::string::npos) return std::nullopt;
    std::size_t end = nl;
    if (end > from && buf_[end - 1] == '\r') --end;
    *end_pos = nl + 1;
    return std::string_view(buf_).substr(from, end - from);
}

void ReplyParser::compact() {
    if (pos_ >= buf_.size() || pos_ > 4096) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

void ReplyParser::reset() {
    buf_.clear();
    pos_ = 0;
}

Status ReplyParser::next(Value* out, std::string* errmsg) {
    std::size_t p = pos_;
    const Status st = parse_value(&p, out, errmsg, 0);
    if (st == Status::kOk) pos_ = p;
    compact();
    return st;
}

Status ReplyParser::parse_value(std::size_t* p, Value* out, std::string* errmsg,
                                int depth) {
    if (depth > 16) {
        if (errmsg) *errmsg = "Protocol error: nesting too deep";
        return Status::kError;
    }
    if (*p >= buf_.size()) return Status::kNeedMore;
    std::size_t after = 0;
    const auto line = take_line(*p, &after);
    if (!line.has_value()) return Status::kNeedMore;
    if (line->empty()) {
        if (errmsg) *errmsg = "Protocol error: empty reply line";
        return Status::kError;
    }
    const char tag = (*line)[0];
    const std::string_view body = line->substr(1);
    switch (tag) {
        case '+':
            out->kind = Value::Kind::kSimple;
            out->str = std::string(body);
            *p = after;
            return Status::kOk;
        case '-':
            out->kind = Value::Kind::kError;
            out->str = std::string(body);
            *p = after;
            return Status::kOk;
        case ':': {
            const auto v = string2ll(body);
            if (!v.has_value()) {
                if (errmsg) *errmsg = "Protocol error: bad integer";
                return Status::kError;
            }
            out->kind = Value::Kind::kInteger;
            out->num = *v;
            *p = after;
            return Status::kOk;
        }
        case '$': {
            const auto len = string2ll(body);
            if (!len.has_value() || *len < -1 || *len > RequestParser::kMaxBulk) {
                if (errmsg) *errmsg = "Protocol error: bad bulk length";
                return Status::kError;
            }
            if (*len == -1) {
                out->kind = Value::Kind::kNull;
                *p = after;
                return Status::kOk;
            }
            if (buf_.size() - after < static_cast<std::size_t>(*len) + 2) {
                return Status::kNeedMore;
            }
            const std::size_t end = after + static_cast<std::size_t>(*len);
            if (buf_[end] != '\r' || buf_[end + 1] != '\n') {
                if (errmsg) *errmsg = "Protocol error: bulk not CRLF-terminated";
                return Status::kError;
            }
            out->kind = Value::Kind::kBulk;
            out->str.assign(buf_, after, static_cast<std::size_t>(*len));
            *p = end + 2;
            return Status::kOk;
        }
        case '*': {
            const auto n = string2ll(body);
            if (!n.has_value() || *n < -1 || *n > RequestParser::kMaxMultiBulk) {
                if (errmsg) *errmsg = "Protocol error: bad array length";
                return Status::kError;
            }
            if (*n == -1) {
                out->kind = Value::Kind::kNull;
                *p = after;
                return Status::kOk;
            }
            out->kind = Value::Kind::kArray;
            out->elems.clear();
            out->elems.reserve(static_cast<std::size_t>(*n));
            std::size_t q = after;
            for (long long i = 0; i < *n; ++i) {
                Value v;
                const Status st = parse_value(&q, &v, errmsg, depth + 1);
                if (st != Status::kOk) return st;
                out->elems.push_back(std::move(v));
            }
            *p = q;
            return Status::kOk;
        }
        default:
            if (errmsg) *errmsg = "Protocol error: unknown reply type";
            return Status::kError;
    }
}

} // namespace skv::kv::resp
