#include "kv/object.hpp"

namespace skv::kv {

const char* to_string(ObjEncoding e) {
    switch (e) {
        case ObjEncoding::kInt: return "int";
        case ObjEncoding::kRaw: return "raw";
    }
    return "?";
}

ObjectPtr Object::make_string(std::string_view v) {
    if (auto ll = string2ll(v)) {
        return make_string_ll(*ll);
    }
    return std::make_shared<Object>(Private{}, v);
}

ObjectPtr Object::make_string_ll(long long v) {
    return std::make_shared<Object>(Private{}, v);
}

std::string_view Object::value_view(char (&buf)[kLongStrSize]) const {
    return encoding_ == ObjEncoding::kInt ? ll2str(ival_, buf) : str_.view();
}

std::string Object::string_value() const {
    char buf[kLongStrSize];
    return std::string(value_view(buf));
}

std::size_t Object::string_len() const {
    char buf[kLongStrSize];
    return value_view(buf).size();
}

std::optional<long long> Object::int_value() const {
    if (encoding_ == ObjEncoding::kInt) return ival_;
    return string2ll(str_.view());
}

std::size_t Object::string_append(std::string_view tail) {
    if (encoding_ == ObjEncoding::kInt) {
        char buf[kLongStrSize];
        str_.assign(ll2str(ival_, buf));
        encoding_ = ObjEncoding::kRaw;
    }
    str_.append(tail);
    return str_.size();
}

void Object::string_set(std::string_view v) {
    if (auto ll = string2ll(v)) {
        string_set_ll(*ll);
        return;
    }
    encoding_ = ObjEncoding::kRaw;
    str_.assign(v);
}

void Object::string_set_ll(long long v) {
    encoding_ = ObjEncoding::kInt;
    ival_ = v;
    str_.clear();
}

std::size_t Object::memory_bytes() const { return sizeof(Object) + str_.capacity(); }

bool Object::equals(const Object& o) const {
    if (encoding_ != o.encoding_) {
        char a[kLongStrSize];
        char b[kLongStrSize];
        return value_view(a) == o.value_view(b);
    }
    return encoding_ == ObjEncoding::kInt ? ival_ == o.ival_ : str_ == o.str_;
}

} // namespace skv::kv
