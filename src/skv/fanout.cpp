#include "skv/fanout.hpp"

namespace skv::offload {

using server::NodeMsg;

ReplicationProtocol fanout_protocol() { return make_protocol<FanoutHost, FanoutNic>(); }

void FanoutHost::propagate(std::int64_t start, const std::string& bytes) {
    // One replication request to the SmartNIC, regardless of the number of
    // slaves — the per-write saving the paper measures.
    const net::ChannelPtr& link = server().nic_link();
    if (!link || !link->open()) return;
    consume(costs().jittered(rng(), costs().offload_request_build));
    link->send(NodeMsg{NodeMsg::Type::kReplData, start, bytes}.encode());
    offload_counter().incr();
    trace_propagate(start, bytes.size());
}

void FanoutNic::replicate(const NodeMsg& msg) {
    const std::string wire = msg.encode();
    for (const auto& e : nodes()) {
        if (!live_slave(e)) continue;
        ship(e, wire, msg.body.size());
        fanout_sends().incr();
    }
}

} // namespace skv::offload
