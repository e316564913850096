#pragma once

#include <memory>
#include <string>

#include "server/kv_server.hpp"
#include "skv/nic_kv.hpp"

namespace skv::offload {

/// SKV fan-out, the paper's protocol (§III-C, Fig. 9; DESIGN.md §13): the
/// master posts each write once to Nic-KV, which copies it to every valid
/// slave. Commit gating counts slave acks (HostReplication's default).
ReplicationProtocol fanout_protocol();

/// Fan-out's host half. Chain and quorum masters post to Nic-KV the same
/// way and derive from it.
class FanoutHost : public server::HostReplication {
public:
    void propagate(std::int64_t start, const std::string& bytes) override;
};

/// Fan-out's Nic-KV half: one WRITE_WITH_IMM per valid slave per request.
/// Quorum fans out the same way and derives from it.
class FanoutNic : public NicReplication {
public:
    void replicate(const server::NodeMsg& msg) override;
};

/// Both halves of protocol `Host`/`Nic`.
template <class Host, class Nic>
ReplicationProtocol make_protocol() {
    using HostPtr = std::unique_ptr<server::HostReplication>;
    return {[]() -> HostPtr { return std::make_unique<Host>(); }, std::make_unique<Nic>()};
}

} // namespace skv::offload
