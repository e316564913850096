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
///
/// An object and its control block are one allocation (make_shared), and a
/// raw payload is sized exactly to the value it was made from.
class Object {
    struct Private {
        explicit Private() = default;
    };

public:
    // --- constructors -----------------------------------------------------
    static ObjectPtr make_string(std::string_view v);
    static ObjectPtr make_string_ll(long long v);

    /// For make_shared only: use make_string / make_string_ll.
    Object(Private, long long v) : encoding_(ObjEncoding::kInt), ival_(v) {}
    Object(Private, std::string_view raw) : encoding_(ObjEncoding::kRaw), str_(raw) {}

    [[nodiscard]] ObjEncoding encoding() const { return encoding_; }

    /// The value's bytes without allocating: the raw payload itself, or the
    /// integer rendered into `buf`. Valid until the object changes or `buf`
    /// goes away.
    [[nodiscard]] std::string_view value_view(char (&buf)[kLongStrSize]) const;
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
    /// checks). Same-encoding pairs compare directly; only an int/raw pair
    /// renders the integer.
    [[nodiscard]] bool equals(const Object& o) const;

private:
    ObjEncoding encoding_;
    long long ival_ = 0;
    Sds str_;
};

} // namespace skv::kv
