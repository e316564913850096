#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace skv::net {

/// Identifies one attachment point on the fabric (a host NIC port or the
/// SmartNIC's own endpoint behind a host port). (The underlying type lives
/// in net/fault.hpp so the injector does not depend on this header.)
inline constexpr EndpointId kInvalidEndpoint = UINT32_MAX;

/// Physical parameters of a host link to the ToR switch.
struct LinkParams {
    /// One-way propagation delay host->switch (cable + PHY).
    sim::Duration propagation{sim::nanoseconds(250)};
    /// Line rate in Gbit/s (100 for the paper's ConnectX-5 / SN2100).
    double gbps = 100.0;
};

/// Parameters for an off-path SmartNIC companion endpoint that sits behind
/// a host's physical port (BlueField model, paper Fig. 2).
struct CompanionParams {
    /// Host <-> SmartNIC internal path latency (PCIe + NIC switch, one way).
    sim::Duration internal_latency{sim::nanoseconds(330)};
    /// Internal path bandwidth in Gbit/s (PCIe gen4 x16 ballpark).
    double internal_gbps = 128.0;
    /// Extra per-message processing on the SmartNIC side: the full network
    /// stack running on the NIC (paper §II-A2: "communication between the
    /// SmartNIC and the host is inefficient due to the complete network
    /// stack on SmartNIC").
    sim::Duration nic_stack_overhead{sim::nanoseconds(380)};
    /// NIC-switch steering cost for external traffic directed to the NIC
    /// cores instead of the host.
    sim::Duration steering{sim::nanoseconds(120)};
};

/// A single-switch RoCE fabric: every host connects to one ToR switch.
/// The fabric models propagation latency, per-link serialization at the
/// line rate (so large values congest), switch forwarding latency, and
/// off-path SmartNIC companion endpoints that share their host's physical
/// port (so host traffic and NIC-originated replication traffic contend
/// for the same 100 Gb/s — which is what makes the Fig. 12 value-size
/// sweep honest).
///
/// The fabric transports *timing only*: payloads live in the layers above
/// (verbs memory regions); a send is a byte count plus a delivery callback.
class Fabric {
public:
    explicit Fabric(sim::Simulation& sim);

    /// Attach a host NIC port with a dedicated link to the switch.
    EndpointId add_host(const std::string& name, LinkParams link = {});

    /// Attach an off-path SmartNIC endpoint behind `host`'s port.
    EndpointId add_companion(EndpointId host, const std::string& name,
                             CompanionParams params = {});

    /// Send `bytes` from one endpoint to another. `on_delivered` fires when
    /// the last byte arrives at the destination endpoint. Returns the
    /// computed arrival time.
    sim::SimTime send(EndpointId from, EndpointId to, std::size_t bytes,
                      std::function<void()> on_delivered);

    /// Sever / restore an endpoint. Messages to or from a severed endpoint
    /// are silently dropped (the delivery callback never fires), modelling
    /// a crashed node: RDMA gives no immediate error, requests just time
    /// out, which is exactly why SKV needs its own failure detector.
    /// Severing also kills messages already in flight: a frame that left
    /// the wire before the cut must not materialize after restore().
    void sever(EndpointId ep);
    void restore(EndpointId ep);
    [[nodiscard]] bool severed(EndpointId ep) const;

    /// Lazily created fault-injection plans consulted by send(). Fault-free
    /// simulations never call this, so they draw nothing from the seed
    /// stream and stay bit-identical with pre-fault builds.
    FaultInjector& faults();
    [[nodiscard]] bool has_faults() const { return faults_ != nullptr; }

    /// Messages that were in flight when one of their endpoints was severed
    /// (their delivery callback was suppressed at delivery time).
    [[nodiscard]] std::uint64_t dropped_in_flight() const {
        return dropped_in_flight_;
    }

    [[nodiscard]] const std::string& name_of(EndpointId ep) const;
    [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

    /// True when `ep` is a SmartNIC companion endpoint.
    [[nodiscard]] bool is_companion(EndpointId ep) const {
        return endpoints_.at(ep).is_companion;
    }

    /// Fabric-level metrics: `fault_drops`, the messages the fault injector
    /// dropped (pre-resolved to an obs handle at construction).
    [[nodiscard]] obs::Registry& obs() { return obs_; }
    /// Wire the observability tracer; when enabled, every delivery records
    /// a kFabricTransfer span on the sending endpoint's track. The tracer
    /// only observes — it cannot change arrival times or event order.
    void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

    /// True when `a` and `b` share one physical port (a host and its own
    /// companion SmartNIC): their traffic takes the internal PCIe path.
    [[nodiscard]] bool same_port(EndpointId a, EndpointId b) const;

private:
    /// Models occupancy of one direction of a link: serialization of
    /// back-to-back messages queues behind earlier ones.
    struct Transmitter {
        sim::SimTime busy_until = sim::SimTime::zero();
        double ns_per_byte = 0.08; // 100 Gb/s

        /// Reserve the transmitter for `bytes` starting no earlier than
        /// `earliest`; returns the time the last byte has been serialized.
        sim::SimTime reserve(sim::SimTime earliest, std::size_t bytes);
    };

    struct Endpoint {
        std::string name;
        bool is_companion = false;
        EndpointId host = kInvalidEndpoint; // for companions
        LinkParams link;                    // for hosts
        CompanionParams companion;          // for companions
        // Host endpoints own the physical-port transmitters. Companions
        // share their host's and add internal-path transmitters.
        Transmitter egress;
        Transmitter ingress;
        Transmitter internal_out; // host->NIC direction (owned by companion)
        Transmitter internal_in;  // NIC->host direction (owned by companion)
        bool severed = false;
        // Bumped on every sever(): deliveries scheduled under an older epoch
        // are dead even if the endpoint has been restored since.
        std::uint64_t sever_epoch = 0;
        // Lazily registered tracer track ("fabric/<name>").
        std::uint32_t obs_track = UINT32_MAX;
    };

    /// Resolve which physical port (host endpoint index) carries external
    /// traffic for `ep`.
    [[nodiscard]] EndpointId port_of(EndpointId ep) const;

    sim::SimTime send_internal(Endpoint& host, Endpoint& nic, bool to_nic,
                               std::size_t bytes);
    sim::SimTime send_external(EndpointId from, EndpointId to, std::size_t bytes);

    /// Schedule `cb` at `when`, re-checking at delivery time that neither
    /// endpoint was severed in between (in-flight kill).
    void schedule_delivery(EndpointId from, EndpointId to, sim::SimTime when,
                           std::function<void()> cb);

    /// Tracer track for `ep`, registered on first use.
    [[nodiscard]] std::uint32_t fabric_track(EndpointId ep);

    /// Forwarding latency of the ToR switch (cut-through).
    static constexpr sim::Duration kSwitchLatency = sim::nanoseconds(300);

    sim::Simulation& sim_;
    std::vector<Endpoint> endpoints_;
    std::uint64_t messages_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t dropped_in_flight_ = 0;
    std::unique_ptr<FaultInjector> faults_;
    obs::Registry obs_;
    obs::Counter c_fault_drops_;
    obs::Tracer* tracer_ = nullptr;
};

} // namespace skv::net
