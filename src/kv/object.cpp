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
    auto o = ObjectPtr(new Object(ObjEncoding::kRaw));
    o->str_.assign(v);
    return o;
}

ObjectPtr Object::make_string_ll(long long v) {
    auto o = ObjectPtr(new Object(ObjEncoding::kInt));
    o->ival_ = v;
    return o;
}

std::string Object::string_value() const {
    return encoding_ == ObjEncoding::kInt ? ll2string(ival_) : str_.str();
}

std::size_t Object::string_len() const {
    return encoding_ == ObjEncoding::kInt ? ll2string(ival_).size() : str_.size();
}

std::optional<long long> Object::int_value() const {
    if (encoding_ == ObjEncoding::kInt) return ival_;
    return string2ll(str_.view());
}

std::size_t Object::string_append(std::string_view tail) {
    if (encoding_ == ObjEncoding::kInt) {
        str_.assign(ll2string(ival_));
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

bool Object::equals(const Object& o) const { return string_value() == o.string_value(); }

} // namespace skv::kv
