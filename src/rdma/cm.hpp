#pragma once

#include <cstdint>

#include "net/transport.hpp"
#include "rdma/ring_channel.hpp"
#include "rdma/verbs.hpp"

namespace skv::rdma {

/// RDMA_CM analogue: listeners bound to (endpoint, port), and a
/// REQ/REP/RTU handshake that also performs the paper's MR-information
/// exchange ("the client and the server exchange their Memory Region
/// information using SEND/RECV primitives"), after which both sides hold a
/// connected RingChannel.
class ConnectionManager final : public net::Transport {
public:
    explicit ConnectionManager(RdmaNetwork& net)
        : Transport(net.fabric()), net_(net) {}

    /// Initiate a connection. `on_connected` receives the client-side
    /// channel, or nullptr if the peer rejected (nobody listening).
    void connect(net::NodeRef from, net::EndpointId to, std::uint16_t port,
                 ConnectHandler on_connected) override;
    [[nodiscard]] const char* name() const override { return "rdma"; }

private:
    /// Control-plane message size on the wire (CM MAD + MR info).
    static constexpr std::size_t kCtrlBytes = 96;

    RdmaNetwork& net_;
    // Deterministic flow-id source: handshakes complete in sim-event order,
    // so both ends of pair N get id N (see net::Channel::flow_id).
    std::uint64_t next_flow_ = 0;
};

} // namespace skv::rdma
