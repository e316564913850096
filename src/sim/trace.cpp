#include "sim/trace.hpp"

namespace skv::sim {

namespace {

void fnv_mix(std::uint64_t& h, std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= static_cast<unsigned char>(v >> (i * 8));
        h *= 0x100000001b3ULL;
    }
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    fnv_mix(h, static_cast<std::int64_t>(v));
}

} // namespace

void Trace::note(TraceEvent ev, SimTime at, std::uint64_t a, std::uint64_t b) {
    ++noted_;
    fnv_mix(digest_, static_cast<std::int64_t>(ev));
    fnv_mix(digest_, at.ns());
    fnv_mix(digest_, a);
    fnv_mix(digest_, b);
}

void Trace::clear() {
    digest_ = 0xcbf29ce484222325ULL;
    noted_ = 0;
}

} // namespace skv::sim
