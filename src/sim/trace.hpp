#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace skv::sim {

/// Compact event kinds mixed into the determinism digest by Trace::note().
/// Values are part of the digest, so append only — reordering or renumbering
/// invalidates recorded hashes.
enum class TraceEvent : std::uint16_t {
    kFabricSend = 1,
    kFabricDeliver = 2,
    kFabricDropInFlight = 3,
    kFabricFaultDrop = 4,
    kFabricSever = 5,
    kFabricRestore = 6,
    // Object-lifetime events: channel teardown is part of the audited
    // behaviour (a run that reclaims a connection at a different sim time
    // is a different run).
    kChannelClose = 7,
    kHandlerClear = 8,
};

/// FNV-1a offset basis: the hash of nothing.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Fold the eight bytes of `v`, least significant first, into the 64-bit
/// FNV-1a hash `h`.
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= static_cast<unsigned char>(v >> (i * 8));
        h *= 0x100000001b3ULL;
    }
}

/// Rolling FNV-1a digest over fixed-width simulation events, so
/// determinism can be asserted without retaining any history.
///
/// note() mixes event tuples (event type, sim time, endpoints) with no
/// allocation and is always on — it is the determinism auditor's signal.
/// Two runs of the same seeded scenario must produce identical digests; the
/// first divergent event is where reproducibility broke.
class Trace {
public:
    /// Audit feed: fold one simulation event into the rolling digest.
    /// Cheap enough for per-message call sites (a few integer multiplies).
    void note(TraceEvent ev, SimTime at, std::uint64_t a = 0,
              std::uint64_t b = 0);

    [[nodiscard]] std::uint64_t digest() const { return digest_; }
    /// Number of note() calls folded into the digest.
    [[nodiscard]] std::uint64_t total_noted() const { return noted_; }

    void clear();

private:
    std::uint64_t digest_ = kFnvBasis;
    std::uint64_t noted_ = 0;
};

} // namespace skv::sim
