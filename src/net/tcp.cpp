#include "net/tcp.hpp"

#include <utility>

#include "sim/check.hpp"

namespace skv::net {

TcpNetwork::TcpNetwork(sim::Simulation& sim, Fabric& fabric,
                       const cpu::CostModel& costs)
    : Transport(fabric), sim_(sim), costs_(costs), rng_(sim.fork_rng()) {}

void TcpNetwork::connect(NodeRef from, EndpointId to, std::uint16_t port,
                         ConnectHandler on_connected) {
    SKV_CHECK(from.valid());
    // SYN: one control message across the fabric plus kernel work on the
    // initiator.
    from.core->consume(costs_.jittered(rng_, costs_.tcp_side_cost(64)));
    fabric().send(from.ep, to, 64, [this, from, to, port,
                                    on_connected = std::move(on_connected)]() mutable {
        const Listener* bound = find_listener(to, port);
        if (bound == nullptr) return; // connection refused: no SYN-ACK
        const Listener listener = *bound;
        // SYN-ACK back to the initiator; accept() completes on arrival.
        listener.node.core->consume(costs_.jittered(rng_, costs_.tcp_side_cost(64)));
        fabric().send(to, from.ep, 64, [this, from, listener,
                                        on_connected = std::move(on_connected)]() {
            auto client_side = std::make_shared<TcpChannel>(*this, from, listener.node.ep);
            auto server_side = std::make_shared<TcpChannel>(*this, listener.node, from.ep);
            client_side->wire(server_side);
            server_side->wire(client_side);
            // Shared deterministic flow id for tracer correlation; the top
            // bit keeps the TCP id space disjoint from the RDMA CM's.
            const std::uint64_t flow = (1ULL << 63) | ++next_flow_;
            client_side->set_flow_id(flow);
            server_side->set_flow_id(flow);
            if (listener.on_accept) listener.on_accept(server_side);
            if (on_connected) on_connected(client_side);
        });
    });
}

TcpChannel::TcpChannel(TcpNetwork& net, NodeRef self, EndpointId peer)
    : net_(net), self_(self), peer_(peer), rng_(net.simulation().fork_rng()) {}

void TcpChannel::send(std::string_view payload) {
    if (!open_) return;
    const std::size_t bytes = payload.size();
    auto remote = remote_.lock();
    if (!remote) return;
    // Sender-side kernel work: send() syscall, protocol processing, copy
    // user -> kernel -> NIC. The segment leaves once that work is done.
    auto self = shared_from_this();
    self_.core->submit(
        net_.costs().jittered(rng_, net_.costs().tcp_side_cost(bytes)),
        [self, remote, bytes, payload = std::string(payload)]() mutable {
            self->net_.fabric().send(
                self->self_.ep, self->peer_, bytes + 66 /* eth+ip+tcp hdrs */,
                [remote, payload = std::move(payload)]() mutable {
                    remote->arrive(std::move(payload));
                });
        });
}

void TcpChannel::arrive(std::string payload) {
    if (!open_) return;
    // Receiver-side kernel work happens when the application read()s: the
    // cost lands on the receiver's core ahead of the message handler, so
    // the handler observes post-syscall timing.
    const std::size_t bytes = payload.size();
    auto self = shared_from_this();
    self_.core->submit(
        net_.costs().jittered(rng_, net_.costs().tcp_side_cost(bytes)),
        [self, payload = std::move(payload)]() mutable {
            if (self->open_) self->deliver(std::move(payload));
        });
}

void TcpChannel::teardown() {
    if (!open_) return;
    open_ = false;
    drop_pending();
    net_.simulation().trace().note(sim::TraceEvent::kChannelClose,
                                   net_.simulation().now(), self_.ep, peer_);
    if (has_handler()) {
        // The handler may be the very function object we are executing
        // inside (a handler closing its own channel), so destroying it
        // synchronously would free a lambda mid-call. Defer the clear one
        // sim event; delivery is already cut off by open_ == false.
        net_.simulation().trace().note(sim::TraceEvent::kHandlerClear,
                                       net_.simulation().now(), self_.ep, peer_);
        auto self = shared_from_this();
        net_.simulation().after(sim::Duration::zero(),
                                [self]() { self->set_on_message(nullptr); });
    }
}

void TcpChannel::close() {
    if (!open_) return;
    // Half-close: this side stops sending and receiving, but data already
    // on the wire toward the peer still arrives (FIN does not beat it).
    auto remote = remote_.lock();
    teardown();
    if (remote) {
        // The peer learns of the close asynchronously (FIN). The FIN rides
        // the same kernel send path, so it cannot overtake replies that
        // were queued before the close.
        auto self = shared_from_this();
        self_.core->submit(net_.costs().tcp_side_cost(0), [self, remote]() {
            self->net_.fabric().send(
                self->self_.ep, self->peer_, 64, [remote]() {
                    // The FIN is processed by the peer's kernel in order
                    // with the data segments that preceded it.
                    remote->self_.core->submit(
                        remote->net_.costs().tcp_side_cost(0),
                        [remote]() { remote->teardown(); });
                });
        });
    }
}

} // namespace skv::net
