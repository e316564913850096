#pragma once

#include "skv/nic_kv.hpp"

namespace skv::offload {

/// ABD-flavoured majority replication (DESIGN.md §13): Nic-KV fans every
/// write out as in fan-out, slaves ack their applied progress to Nic-KV,
/// and Nic-KV releases a commit watermark once a replica majority (the
/// master's own copy counted) holds a write. A read parked on commit
/// pushes its not-yet-majority suffix back through Nic-KV (read repair).
ReplicationProtocol quorum_protocol();

} // namespace skv::offload
