#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "cpu/cost_model.hpp"
#include "net/channel.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace skv::net {

class TcpChannel;

/// The kernel TCP path model. Each send()/recv() pays a syscall, protocol
/// processing and per-byte copy cost on the node's core, on top of the
/// fabric's propagation/serialization — this is the "hundreds of
/// microseconds under load" path the paper replaces with RDMA.
class TcpNetwork {
public:
    TcpNetwork(sim::Simulation& sim, Fabric& fabric, const cpu::CostModel& costs);

    using AcceptHandler = std::function<void(ChannelPtr)>;
    using ConnectHandler = std::function<void(ChannelPtr)>;

    /// Bind an accept handler to (endpoint, port).
    void listen(NodeRef node, std::uint16_t port, AcceptHandler on_accept);
    void stop_listening(EndpointId ep, std::uint16_t port);

    /// Three-way handshake, then both sides receive their channel ends.
    void connect(NodeRef from, EndpointId to, std::uint16_t port,
                 ConnectHandler on_connected);

    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] Fabric& fabric() { return fabric_; }
    [[nodiscard]] const cpu::CostModel& costs() const { return costs_; }

private:
    friend class TcpChannel;

    struct ListenerKey {
        EndpointId ep;
        std::uint16_t port;
        bool operator<(const ListenerKey& o) const {
            return ep != o.ep ? ep < o.ep : port < o.port;
        }
    };

    struct Listener {
        NodeRef node;
        AcceptHandler on_accept;
    };

    sim::Simulation& sim_;
    Fabric& fabric_;
    const cpu::CostModel& costs_;
    std::map<ListenerKey, Listener> listeners_;
    sim::Rng rng_;
    std::uint64_t next_flow_ = 0; // deterministic flow-id source
};

/// One side of an established TCP connection.
class TcpChannel final : public Channel,
                         public std::enable_shared_from_this<TcpChannel> {
public:
    TcpChannel(TcpNetwork& net, NodeRef self, EndpointId peer);

    void send(std::string_view payload) override;
    void set_on_message(MessageHandler handler) override;
    void close() override;
    [[nodiscard]] bool open() const override { return open_; }
    [[nodiscard]] EndpointId peer() const override { return peer_; }
    [[nodiscard]] std::size_t backlog_bytes() const override { return 0; }

private:
    friend class TcpNetwork;

    void wire(std::shared_ptr<TcpChannel> remote) { remote_ = std::move(remote); }
    void deliver(std::string payload);
    /// Local half of close(): stop delivery, release buffered payloads and
    /// (deferred) the installed handler. Runs on explicit close and on FIN
    /// receipt so both ends release their object graphs.
    void teardown();

    TcpNetwork& net_;
    NodeRef self_;
    EndpointId peer_;
    std::weak_ptr<TcpChannel> remote_;
    MessageHandler on_message_;
    std::deque<std::string> pending_; // arrived before a handler was set
    bool open_ = true;
    sim::Rng rng_;
};

} // namespace skv::net
