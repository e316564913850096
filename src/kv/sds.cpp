#include "kv/sds.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace skv::kv {

void Sds::make_room(std::size_t n) {
    const std::size_t needed = buf_.size() + n;
    if (buf_.capacity() >= needed) return;
    std::size_t newcap = needed;
    if (newcap < kMaxPrealloc) {
        newcap *= 2;
    } else {
        newcap += kMaxPrealloc;
    }
    // std::string::reserve may round a request up to twice the current
    // capacity; a fresh string reserves exactly newcap (at least twice its
    // inline capacity, since growth starts past it), so this policy alone
    // sets the size.
    std::string grown;
    grown.reserve(newcap);
    grown.append(buf_);
    buf_.swap(grown);
}

void Sds::range(std::ptrdiff_t start, std::ptrdiff_t end) {
    const auto len = static_cast<std::ptrdiff_t>(buf_.size());
    if (len == 0) return;
    if (start < 0) start = std::max<std::ptrdiff_t>(len + start, 0);
    if (end < 0) end = len + end;
    if (end >= len) end = len - 1;
    if (start > end || start >= len) {
        buf_.clear();
        return;
    }
    buf_.erase(static_cast<std::size_t>(end) + 1);
    buf_.erase(0, static_cast<std::size_t>(start));
}

int Sds::compare(const Sds& o) const { return view().compare(o.view()); }

bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

std::optional<std::vector<Sds>> Sds::split_args(std::string_view line) {
    std::vector<Sds> out;
    std::size_t i = 0;
    const std::size_t n = line.size();
    auto is_space = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r';
    };
    auto is_hex = [](char c) { return std::isxdigit(static_cast<unsigned char>(c)) != 0; };
    auto hexval = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        return std::tolower(static_cast<unsigned char>(c)) - 'a' + 10;
    };

    while (true) {
        while (i < n && is_space(line[i])) ++i;
        if (i >= n) return out;

        Sds current;
        bool in_double = false;
        bool in_single = false;
        bool done = false;
        while (!done) {
            if (in_double) {
                if (i >= n) return std::nullopt; // unterminated quotes
                if (line[i] == '\\' && i + 3 < n && line[i + 1] == 'x' &&
                    is_hex(line[i + 2]) && is_hex(line[i + 3])) {
                    current.append(static_cast<char>(hexval(line[i + 2]) * 16 +
                                                     hexval(line[i + 3])));
                    i += 4;
                } else if (line[i] == '\\' && i + 1 < n) {
                    char c = line[i + 1];
                    switch (c) {
                        case 'n': c = '\n'; break;
                        case 'r': c = '\r'; break;
                        case 't': c = '\t'; break;
                        case 'b': c = '\b'; break;
                        case 'a': c = '\a'; break;
                        default: break;
                    }
                    current.append(c);
                    i += 2;
                } else if (line[i] == '"') {
                    // Closing quote must be followed by space or end.
                    if (i + 1 < n && !is_space(line[i + 1])) return std::nullopt;
                    in_double = false;
                    ++i;
                    done = true;
                } else {
                    current.append(line[i++]);
                }
            } else if (in_single) {
                if (i >= n) return std::nullopt;
                if (line[i] == '\\' && i + 1 < n && line[i + 1] == '\'') {
                    current.append('\'');
                    i += 2;
                } else if (line[i] == '\'') {
                    if (i + 1 < n && !is_space(line[i + 1])) return std::nullopt;
                    in_single = false;
                    ++i;
                    done = true;
                } else {
                    current.append(line[i++]);
                }
            } else {
                if (i >= n) {
                    done = true;
                } else if (is_space(line[i])) {
                    done = true;
                } else if (line[i] == '"') {
                    in_double = true;
                    ++i;
                } else if (line[i] == '\'') {
                    in_single = true;
                    ++i;
                } else {
                    current.append(line[i++]);
                }
            }
        }
        out.push_back(std::move(current));
    }
}

std::string_view ll2str(long long v, char (&buf)[kLongStrSize]) {
    char* p = buf + kLongStrSize;
    const bool neg = v < 0;
    unsigned long long u =
        neg ? 0ULL - static_cast<unsigned long long>(v) : static_cast<unsigned long long>(v);
    do {
        *--p = static_cast<char>('0' + (u % 10));
        u /= 10;
    } while (u != 0);
    if (neg) *--p = '-';
    return {p, static_cast<std::size_t>(buf + kLongStrSize - p)};
}

std::string ll2string(long long v) {
    char buf[kLongStrSize];
    return std::string(ll2str(v, buf));
}

std::optional<long long> string2ll(std::string_view s) {
    if (s.empty() || s.size() > 20) return std::nullopt;
    std::size_t i = 0;
    bool neg = false;
    if (s[0] == '-') {
        neg = true;
        i = 1;
        if (s.size() == 1) return std::nullopt;
    }
    // "0" is fine; "0123" is not (matches Redis string2ll).
    if (s[i] == '0') {
        if (s.size() == i + 1) return 0;
        return std::nullopt;
    }
    unsigned long long v = 0;
    for (; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9') return std::nullopt;
        const auto d = static_cast<unsigned long long>(s[i] - '0');
        if (v > (ULLONG_MAX - d) / 10) return std::nullopt; // overflow
        v = v * 10 + d;
    }
    if (neg) {
        if (v > static_cast<unsigned long long>(LLONG_MAX) + 1) return std::nullopt;
        return static_cast<long long>(0ULL - v);
    }
    if (v > static_cast<unsigned long long>(LLONG_MAX)) return std::nullopt;
    return static_cast<long long>(v);
}

std::optional<double> string2d(std::string_view s) {
    if (s.empty()) return std::nullopt;
    if (s == "inf" || s == "+inf" || s == "Inf" || s == "+Inf") {
        return HUGE_VAL;
    }
    if (s == "-inf" || s == "-Inf") return -HUGE_VAL;
    std::string tmp(s); // strtod needs a terminator
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(tmp.c_str(), &end);
    if (end != tmp.c_str() + tmp.size() || errno == ERANGE || std::isnan(v)) {
        return std::nullopt;
    }
    return v;
}

} // namespace skv::kv
