#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace skv::net {

using EndpointId = std::uint32_t;

/// One injectable fault profile. Attached to a directed endpoint pair or to
/// a single endpoint (where it applies to all traffic touching it), it
/// describes how messages crossing the fabric misbehave. All randomness is
/// drawn from the injector's forked RNG, so a chaos run is bit-reproducible
/// from the simulation seed.
struct FaultSpec {
    /// Probability that a message is silently dropped.
    double drop_prob = 0.0;
    /// Probability that a delivered message is delivered twice.
    double dup_prob = 0.0;
    /// Probability that a delivered message is delayed beyond its modelled
    /// arrival time; the extra delay is exponential with mean `jitter_mean`.
    double jitter_prob = 0.0;
    sim::Duration jitter_mean{sim::Duration::zero()};
    /// Hard partition: every message matching this spec is dropped. On a
    /// directed pair this models an asymmetric (one-way) partition.
    bool blocked = false;
    /// Timed link flapping: the link is down for the first `flap_down` of
    /// every `flap_period`, starting at `flap_phase`. Zero period disables.
    sim::Duration flap_period{sim::Duration::zero()};
    sim::Duration flap_down{sim::Duration::zero()};
    sim::Duration flap_phase{sim::Duration::zero()};

    [[nodiscard]] bool active() const {
        return drop_prob > 0 || dup_prob > 0 || jitter_prob > 0 || blocked ||
               flap_period.ns() > 0;
    }
};

/// Consulted by Fabric::send() for every message. Owns the fault plans, a
/// private RNG stream and the counters for injected faults. Created lazily
/// by Fabric::faults() so fault-free simulations draw nothing from the seed
/// stream and stay bit-identical with pre-fault builds.
class FaultInjector {
public:
    explicit FaultInjector(sim::Rng rng) : rng_(rng) {}

    /// Attach `spec` to the directed pair from -> to (replaces any previous).
    void set_pair(EndpointId from, EndpointId to, FaultSpec spec);
    /// Attach `spec` to both directions between a and b.
    void set_link(EndpointId a, EndpointId b, FaultSpec spec);
    /// Attach `spec` to every message sent to or from `ep`.
    void set_endpoint(EndpointId ep, FaultSpec spec);
    void clear_pair(EndpointId from, EndpointId to);
    void clear_link(EndpointId a, EndpointId b);
    void clear_endpoint(EndpointId ep);
    void clear();

    /// Verdict for one message.
    struct Decision {
        bool touched = false;   // some spec matched this pair
        bool deliver = true;
        bool duplicate = false;
        sim::Duration delay{sim::Duration::zero()};
        sim::Duration dup_delay{sim::Duration::zero()};
    };

    /// Evaluate the plans for a message from -> to sent at `now`.
    Decision evaluate(EndpointId from, EndpointId to, sim::SimTime now);

    /// Links stay FIFO even under jitter: clamp `arrival` so it is not
    /// earlier than the last delivery scheduled on this directed pair.
    sim::SimTime clamp_fifo(EndpointId from, EndpointId to, sim::SimTime arrival);

    [[nodiscard]] obs::Registry& stats() { return stats_; }
    [[nodiscard]] const obs::Registry& stats() const { return stats_; }

private:
    void apply(const FaultSpec& spec, sim::SimTime now, Decision* d);

    std::map<std::pair<EndpointId, EndpointId>, FaultSpec> pairs_;
    std::map<EndpointId, FaultSpec> endpoints_;
    std::map<std::pair<EndpointId, EndpointId>, sim::SimTime> last_arrival_;
    sim::Rng rng_;
    // Counters are created on first incr(), never pre-resolved as handles:
    // format() lists only the fault kinds that fired, and the chaos
    // fingerprints fold that text in.
    obs::Registry stats_;
};

} // namespace skv::net
