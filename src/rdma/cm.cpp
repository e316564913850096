#include "rdma/cm.hpp"
#include "sim/check.hpp"


namespace skv::rdma {

void ConnectionManager::connect(net::NodeRef from, net::EndpointId to,
                                std::uint16_t port, ConnectHandler on_connected) {
    SKV_CHECK(from.valid());

    // Client allocates its resources up front: CQs, completion channel and
    // the receive-ring MR whose information travels in the handshake.
    auto client_ch = std::make_shared<RingChannel>(net_, from, to);
    client_ch->init_local();
    from.core->consume(net_.costs().event_dispatch);

    // REQ carries the client MR rkey + ring capacity.
    net_.fabric().send(from.ep, to, kCtrlBytes, [this, from, to, port, client_ch,
                                                 on_connected =
                                                     std::move(on_connected)]() mutable {
        const Listener* bound = find_listener(to, port);
        if (bound == nullptr) {
            // REJ back to the initiator; the client's pre-allocated ring
            // (CQs, recv MR) is torn down with the refused connection
            // instead of lingering registered forever.
            net_.fabric().send(to, from.ep, kCtrlBytes,
                               [client_ch,
                                on_connected = std::move(on_connected)]() {
                                   client_ch->close();
                                   if (on_connected) on_connected(nullptr);
                               });
            return;
        }
        const Listener listener = *bound;

        // Server allocates its side, then REPs with its MR info.
        auto server_ch =
            std::make_shared<RingChannel>(net_, listener.node, from.ep);
        server_ch->init_local();
        listener.node.core->consume(net_.costs().event_dispatch);

        // Both ends of the pair share one deterministic flow id, letting
        // the tracer correlate client and server request stamps.
        const std::uint64_t flow = ++next_flow_;
        client_ch->set_flow_id(flow);
        server_ch->set_flow_id(flow);

        net_.fabric().send(
            to, from.ep, kCtrlBytes,
            [this, from, listener, client_ch, server_ch,
             on_connected = std::move(on_connected)]() mutable {
                // Client learns the server ring, builds the QP pair, RTUs.
                from.core->consume(net_.costs().event_dispatch);
                auto client_qp = std::make_shared<QueuePair>(
                    net_, from, client_ch->send_cq(), client_ch->recv_cq());
                auto srv_qp = std::make_shared<QueuePair>(
                    net_, listener.node, server_ch->send_cq(),
                    server_ch->recv_cq());
                client_qp->connect_to(srv_qp);
                srv_qp->connect_to(client_qp);
                client_ch->attach(client_qp, server_ch->recv_mr()->rkey(),
                                  server_ch->recv_mr()->size());
                if (on_connected) on_connected(client_ch);

                net_.fabric().send(
                    from.ep, listener.node.ep, kCtrlBytes,
                    [listener, client_ch, server_ch, srv_qp]() mutable {
                        listener.node.core->consume(sim::nanoseconds(200));
                        server_ch->attach(srv_qp, client_ch->recv_mr()->rkey(),
                                          client_ch->recv_mr()->size());
                        if (listener.on_accept) listener.on_accept(server_ch);
                    });
            });
    });
}

} // namespace skv::rdma
