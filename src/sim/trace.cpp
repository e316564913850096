#include "sim/trace.hpp"

namespace skv::sim {

void Trace::note(TraceEvent ev, SimTime at, std::uint64_t a, std::uint64_t b) {
    ++noted_;
    fnv_mix(digest_, static_cast<std::uint64_t>(ev));
    fnv_mix(digest_, static_cast<std::uint64_t>(at.ns()));
    fnv_mix(digest_, a);
    fnv_mix(digest_, b);
}

void Trace::clear() {
    digest_ = kFnvBasis;
    noted_ = 0;
}

} // namespace skv::sim
