#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "net/channel.hpp"
#include "net/fabric.hpp"

namespace skv::net {

/// How nodes open channels to each other: one listener table keyed by
/// (endpoint, port) plus a connection handshake. Implemented by the kernel
/// TCP model (net::TcpNetwork) and the RDMA connection manager
/// (rdma::ConnectionManager). A Cluster picks one when it is built, and
/// every server, client and load generator in it listens and dials through
/// that one object, so Host-KV never asks which transport it runs on.
class Transport {
public:
    using AcceptHandler = std::function<void(ChannelPtr)>;
    using ConnectHandler = std::function<void(ChannelPtr)>;

    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;
    virtual ~Transport() = default;

    /// Bind an accept handler to (node.ep, port), replacing any earlier one.
    /// The handler receives the server side of every connection the
    /// handshake completes.
    void listen(NodeRef node, std::uint16_t port, AcceptHandler on_accept);

    /// Handshake with whoever listens on (to, port); `on_connected` then
    /// receives the client side. A refused connection never calls back over
    /// TCP (no SYN-ACK comes) and calls back with nullptr over RDMA (REJ).
    virtual void connect(NodeRef from, EndpointId to, std::uint16_t port,
                         ConnectHandler on_connected) = 0;

    /// "tcp" or "rdma", as INFO reports it.
    [[nodiscard]] virtual const char* name() const = 0;
    [[nodiscard]] Fabric& fabric() { return fabric_; }

protected:
    struct Listener {
        NodeRef node;
        AcceptHandler on_accept;
    };

    explicit Transport(Fabric& fabric) : fabric_(fabric) {}

    /// The listener bound to (ep, port), or nullptr if none is.
    [[nodiscard]] const Listener* find_listener(EndpointId ep, std::uint16_t port) const;

private:
    Fabric& fabric_;
    std::map<std::pair<EndpointId, std::uint16_t>, Listener> listeners_;
};

} // namespace skv::net
