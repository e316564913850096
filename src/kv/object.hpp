#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "kv/sds.hpp"

namespace skv::kv {

enum class ObjEncoding : std::uint8_t {
    kInt, // string holding a long long
    kRaw, // sds string
};

const char* to_string(ObjEncoding e);

class Object;
using ObjectPtr = std::shared_ptr<Object>;

/// A Redis string object: an encoding plus the payload. Strings that parse
/// as integers use the int encoding, everything else is a raw sds, following
/// Redis's space/speed conversion. Strings are the engine's only type: the
/// paper's workloads issue SET and GET and nothing else.
class Object {
public:
    // --- constructors -----------------------------------------------------
    static ObjectPtr make_string(std::string_view v);
    static ObjectPtr make_string_ll(long long v);

    [[nodiscard]] ObjEncoding encoding() const { return encoding_; }

    /// Rendered value (decodes the int encoding).
    [[nodiscard]] std::string string_value() const;
    [[nodiscard]] std::size_t string_len() const;
    /// The integer behind the value; nullopt when it is not one.
    [[nodiscard]] std::optional<long long> int_value() const;
    /// Append to the string value (forces raw encoding); returns new length.
    std::size_t string_append(std::string_view tail);
    /// Overwrite with a possibly-int-encodable value.
    void string_set(std::string_view v);
    void string_set_ll(long long v);

    /// Approximate heap footprint, for INFO and NIC memory budgeting.
    [[nodiscard]] std::size_t memory_bytes() const;

    /// Value equality across encodings (used by replication-convergence
    /// tests).
    [[nodiscard]] bool equals(const Object& o) const;

private:
    explicit Object(ObjEncoding e) : encoding_(e) {}

    ObjEncoding encoding_;
    long long ival_ = 0;
    Sds str_;
};

} // namespace skv::kv
