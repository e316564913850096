#pragma once

#include <cstdint>
#include <memory>

#include "cpu/cost_model.hpp"
#include "net/channel.hpp"
#include "net/fabric.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace skv::net {

/// The kernel TCP path model. Each send()/recv() pays a syscall, protocol
/// processing and per-byte copy cost on the node's core, on top of the
/// fabric's propagation/serialization — this is the "hundreds of
/// microseconds under load" path the paper replaces with RDMA.
class TcpNetwork final : public Transport {
public:
    TcpNetwork(sim::Simulation& sim, Fabric& fabric, const cpu::CostModel& costs);

    /// Three-way handshake, then both sides receive their channel ends.
    void connect(NodeRef from, EndpointId to, std::uint16_t port,
                 ConnectHandler on_connected) override;
    [[nodiscard]] const char* name() const override { return "tcp"; }

    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] const cpu::CostModel& costs() const { return costs_; }

private:
    sim::Simulation& sim_;
    const cpu::CostModel& costs_;
    sim::Rng rng_;
    std::uint64_t next_flow_ = 0; // deterministic flow-id source
};

/// One side of an established TCP connection.
class TcpChannel final : public Channel,
                         public std::enable_shared_from_this<TcpChannel> {
public:
    TcpChannel(TcpNetwork& net, NodeRef self, EndpointId peer);

    void send(std::string_view payload) override;
    void close() override;
    [[nodiscard]] bool open() const override { return open_; }
    [[nodiscard]] EndpointId peer() const override { return peer_; }
    [[nodiscard]] std::size_t backlog_bytes() const override { return 0; }

private:
    friend class TcpNetwork;

    void wire(std::shared_ptr<TcpChannel> remote) { remote_ = std::move(remote); }
    /// A segment reached this end; the kernel read() cost runs first.
    void arrive(std::string payload);
    /// Local half of close(): stop delivery, release buffered payloads and
    /// (deferred) the installed handler. Runs on explicit close and on FIN
    /// receipt so both ends release their object graphs.
    void teardown();

    TcpNetwork& net_;
    NodeRef self_;
    EndpointId peer_;
    std::weak_ptr<TcpChannel> remote_;
    bool open_ = true;
    sim::Rng rng_;
};

} // namespace skv::net
