#include "net/fabric.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace skv::net {

Fabric::Fabric(sim::Simulation& sim)
    : sim_(sim), c_fault_drops_(obs_.counter_handle("fault_drops")) {}

std::uint32_t Fabric::fabric_track(EndpointId ep) {
    Endpoint& e = endpoints_[ep];
    if (e.obs_track == UINT32_MAX) {
        e.obs_track = tracer_->track("fabric/" + e.name);
    }
    return e.obs_track;
}

sim::SimTime Fabric::Transmitter::reserve(sim::SimTime earliest, std::size_t bytes) {
    const auto ser = sim::Duration(
        static_cast<std::int64_t>(ns_per_byte * static_cast<double>(bytes)));
    const sim::SimTime start = std::max(earliest, busy_until);
    busy_until = start + ser;
    return busy_until;
}

EndpointId Fabric::add_host(const std::string& name) {
    Endpoint ep;
    ep.name = name;
    endpoints_.push_back(std::move(ep));
    return static_cast<EndpointId>(endpoints_.size() - 1);
}

EndpointId Fabric::add_companion(EndpointId host, const std::string& name) {
    SKV_CHECK(host < endpoints_.size());
    SKV_CHECK(!endpoints_[host].is_companion, "companion must attach to a host");
    Endpoint ep;
    ep.name = name;
    ep.is_companion = true;
    ep.host = host;
    ep.internal_out.ns_per_byte = kInternalNsPerByte;
    ep.internal_in.ns_per_byte = kInternalNsPerByte;
    endpoints_.push_back(std::move(ep));
    return static_cast<EndpointId>(endpoints_.size() - 1);
}

EndpointId Fabric::port_of(EndpointId ep) const {
    SKV_CHECK(ep < endpoints_.size());
    return endpoints_[ep].is_companion ? endpoints_[ep].host : ep;
}

bool Fabric::same_port(EndpointId a, EndpointId b) const {
    return port_of(a) == port_of(b) && a != b;
}

void Fabric::sever(EndpointId ep) {
    SKV_CHECK(ep < endpoints_.size());
    endpoints_[ep].severed = true;
    ++endpoints_[ep].sever_epoch;
    sim_.trace().note(sim::TraceEvent::kFabricSever, sim_.now(), ep);
}

void Fabric::restore(EndpointId ep) {
    SKV_CHECK(ep < endpoints_.size());
    endpoints_[ep].severed = false;
    sim_.trace().note(sim::TraceEvent::kFabricRestore, sim_.now(), ep);
}

const std::string& Fabric::name_of(EndpointId ep) const {
    SKV_CHECK(ep < endpoints_.size());
    return endpoints_[ep].name;
}

sim::SimTime Fabric::send_internal(Endpoint& nic, bool to_nic, std::size_t bytes) {
    // Host <-> its own SmartNIC: PCIe + NIC-switch path, no external link.
    // The message still traverses the full network stack on the SmartNIC,
    // which is why this latency is only "a little lower" than host-to-host
    // (paper Fig. 3).
    Transmitter& tx = to_nic ? nic.internal_out : nic.internal_in;
    const sim::SimTime serialized = tx.reserve(sim_.now(), bytes);
    return serialized + kInternalLatency + kNicStackOverhead;
}

sim::SimTime Fabric::send_external(EndpointId from, EndpointId to,
                                   std::size_t bytes) {
    Endpoint& src = endpoints_[from];
    Endpoint& dst = endpoints_[to];
    Endpoint& src_port = endpoints_[port_of(from)];
    Endpoint& dst_port = endpoints_[port_of(to)];

    sim::Duration extra = sim::Duration::zero();
    if (src.is_companion) {
        // NIC-originated traffic: crosses the NIC switch out of the port and
        // pays the NIC-side stack.
        extra += kSteering + kNicStackOverhead;
    }
    if (dst.is_companion) {
        extra += kSteering + kNicStackOverhead;
    }

    // Serialize out of the source port, fly to the switch, forward, then
    // occupy the destination port's ingress (store-and-forward at the NIC).
    const sim::SimTime out_done = src_port.egress.reserve(sim_.now(), bytes);
    const sim::SimTime at_dst_port =
        out_done + kLinkPropagation + kSwitchLatency + kLinkPropagation;
    const sim::SimTime in_done = dst_port.ingress.reserve(at_dst_port, bytes);
    return in_done + extra;
}

FaultInjector& Fabric::faults() {
    if (!faults_) {
        faults_ = std::make_unique<FaultInjector>(sim_.fork_rng());
    }
    return *faults_;
}

void Fabric::schedule_delivery(EndpointId from, EndpointId to, sim::SimTime when,
                               std::function<void()> cb) {
    const std::uint64_t from_epoch = endpoints_[from].sever_epoch;
    const std::uint64_t to_epoch = endpoints_[to].sever_epoch;
    const bool traced = tracer_ != nullptr && tracer_->enabled();
    const sim::SimTime sent_at = sim_.now();
    const std::uint32_t track = traced ? fabric_track(from) : 0;
    sim_.at(when, [this, from, to, from_epoch, to_epoch, traced, sent_at,
                   track, cb = std::move(cb)]() mutable {
        // A message is lost if either endpoint is down right now, or was cut
        // (and possibly restored) while the message was on the wire.
        const Endpoint& src = endpoints_[from];
        const Endpoint& dst = endpoints_[to];
        if (src.severed || dst.severed || src.sever_epoch != from_epoch ||
            dst.sever_epoch != to_epoch) {
            ++dropped_in_flight_;
            sim_.trace().note(sim::TraceEvent::kFabricDropInFlight, sim_.now(),
                              from, to);
            return;
        }
        sim_.trace().note(sim::TraceEvent::kFabricDeliver, sim_.now(), from, to);
        if (traced && tracer_ != nullptr) {
            tracer_->complete(track, obs::Stage::kFabricTransfer, sent_at,
                              sim_.now());
        }
        cb();
    });
}

sim::SimTime Fabric::send(EndpointId from, EndpointId to, std::size_t bytes,
                          std::function<void()> on_delivered) {
    SKV_CHECK(from < endpoints_.size() && to < endpoints_.size());
    SKV_CHECK(from != to, "sending to self");

    ++messages_;
    bytes_ += bytes;
    // Determinism audit: every send folds (kind, time, route) into the
    // trace digest, so two runs of the same seed can be compared hop by hop.
    sim_.trace().note(sim::TraceEvent::kFabricSend, sim_.now(), from, to);

    const bool dropped = endpoints_[from].severed || endpoints_[to].severed;

    sim::SimTime arrival;
    if (same_port(from, to)) {
        Endpoint& nic = endpoints_[endpoints_[from].is_companion ? from : to];
        const bool to_nic = endpoints_[to].is_companion;
        arrival = send_internal(nic, to_nic, bytes);
    } else {
        arrival = send_external(from, to, bytes);
    }

    if (dropped || !on_delivered) return arrival;

    if (faults_) {
        auto decision = faults_->evaluate(from, to, sim_.now());
        if (decision.touched) {
            if (!decision.deliver) {
                c_fault_drops_.incr();
                sim_.trace().note(sim::TraceEvent::kFabricFaultDrop,
                                  sim_.now(), from, to);
                return arrival;
            }
            arrival = faults_->clamp_fifo(from, to, arrival + decision.delay);
            if (decision.duplicate) {
                const auto dup_at = faults_->clamp_fifo(
                    from, to, arrival + decision.dup_delay);
                schedule_delivery(from, to, dup_at, on_delivered);
            }
        }
    }

    schedule_delivery(from, to, arrival, std::move(on_delivered));
    return arrival;
}

} // namespace skv::net
