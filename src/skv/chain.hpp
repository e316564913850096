#pragma once

#include "skv/nic_kv.hpp"

namespace skv::offload {

/// Chain replication (DESIGN.md §13): Nic-KV sends each write to the chain
/// head and every member relays it to the successor Nic-KV assigned it. A
/// write commits once every valid member acked it, which in an in-order
/// chain means the tail applied it, so the tail may serve reads under a
/// probe lease (ServerConfig::chain_read_lease).
ReplicationProtocol chain_protocol();

} // namespace skv::offload
