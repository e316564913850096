#include "net/transport.hpp"

#include "sim/check.hpp"

namespace skv::net {

void Transport::listen(NodeRef node, std::uint16_t port, AcceptHandler on_accept) {
    SKV_CHECK(node.valid());
    listeners_[{node.ep, port}] = Listener{node, std::move(on_accept)};
}

const Transport::Listener* Transport::find_listener(EndpointId ep,
                                                    std::uint16_t port) const {
    const auto it = listeners_.find({ep, port});
    return it == listeners_.end() ? nullptr : &it->second;
}

} // namespace skv::net
