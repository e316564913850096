#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace skv::kv {

/// Simple Dynamic String, after Redis's sds: a binary-safe byte string.
/// Constructing one from bytes leaves no slack, as sdsnewlen does: short
/// strings (up to 15 bytes with libstdc++) live inside the Sds itself, so a
/// typical key costs no allocation and no pointer chase; longer strings get
/// exactly their length plus a terminator. Appends get amortized O(1) growth via capacity preallocation
/// (double up to 1 MB, then +1 MB per growth). Redis's small algorithmic
/// helpers ride along (range, integer conversion, argument splitting).
///
/// The bytes are held in a std::string; Sds exists because the paper
/// inherits "the implementation of data structures such as dynamic strings"
/// from Redis, and because the explicit append growth policy (not
/// std::string's) is what the engine's memory accounting measures for
/// strings grown in place.
class Sds {
public:
    static constexpr std::size_t kMaxPrealloc = 1024 * 1024;

    Sds() = default;
    explicit Sds(std::string_view s) : buf_(s) {}
    Sds(const char* s, std::size_t n) : buf_(s, n) {}

    [[nodiscard]] std::size_t size() const { return buf_.size(); }
    [[nodiscard]] bool empty() const { return buf_.empty(); }
    [[nodiscard]] std::size_t capacity() const { return buf_.capacity(); }

    [[nodiscard]] const char* data() const { return buf_.data(); }
    [[nodiscard]] std::string_view view() const { return buf_; }
    [[nodiscard]] std::string str() const { return buf_; }

    char operator[](std::size_t i) const { return buf_[i]; }
    char& operator[](std::size_t i) { return buf_[i]; }

    void append(std::string_view s) {
        make_room(s.size());
        buf_.append(s);
    }
    void append(char c) { append(std::string_view(&c, 1)); }
    void assign(std::string_view s) { clear(); append(s); }
    void clear() { buf_.clear(); }

    /// Grow to at least `n` usable bytes beyond the current length.
    void make_room(std::size_t n);

    /// Keep only the byte range [start, end] (negative indexes count from
    /// the end, as in Redis GETRANGE/SETRANGE semantics).
    void range(std::ptrdiff_t start, std::ptrdiff_t end);

    [[nodiscard]] int compare(const Sds& o) const;
    bool operator==(const Sds& o) const { return view() == o.view(); }
    bool operator==(std::string_view s) const { return view() == s; }
    auto operator<=>(const Sds& o) const { return view() <=> o.view(); }

    /// Split a whitespace-separated line honouring "double" and 'single'
    /// quotes, as Redis's sdssplitargs does for inline commands and config
    /// lines. Returns std::nullopt on unbalanced quotes.
    static std::optional<std::vector<Sds>> split_args(std::string_view line);

private:
    std::string buf_;
};

/// ASCII case-insensitive equality (command and option names), on the
/// caller's bytes.
bool iequals(std::string_view a, std::string_view b);

/// Room for any long long in decimal: 19 digits and a sign.
inline constexpr std::size_t kLongStrSize = 20;

/// Fast signed-integer formatting (Redis's ll2string) into `buf`, without
/// allocating. Returns the digits, which live in `buf`.
std::string_view ll2str(long long v, char (&buf)[kLongStrSize]);
std::string ll2string(long long v);

/// Strict string -> long long conversion (Redis's string2ll): rejects
/// leading zeros (except "0"), whitespace and trailing junk. Returns
/// nullopt on failure.
std::optional<long long> string2ll(std::string_view s);

/// Strict string -> double conversion: accepts what Redis's getDoubleFromObject
/// accepts (finite decimal / scientific, "inf", "-inf"), rejects junk.
std::optional<double> string2d(std::string_view s);

} // namespace skv::kv
