#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace skv::server {

/// Replication role of a Host-KV instance.
enum class Role : std::uint8_t { kStandalone, kMaster, kSlave };

/// Which replication protocol the cluster runs (DESIGN.md §13): the
/// paper's fan-out, chain replication or majority quorum. Cluster turns it
/// into each side's protocol half (skv/fanout.hpp, chain.hpp, quorum.hpp).
enum class ReplicationMode : std::uint8_t { kFanout, kChain, kQuorum };

const char* to_string(Role r);
const char* to_string(ReplicationMode m);

struct ServerConfig {
    std::string name = "kv";
    /// The RESP port clients dial; node links use port + 1.
    static constexpr std::uint16_t port = 6379;

    /// Paper §III-D knobs: writes fail when fewer than `min_slaves` replicas
    /// are reachable, and replication progress lagging more than
    /// `max_repl_lag_bytes` behind returns an error to writing clients.
    int min_slaves = 0;
    std::int64_t max_repl_lag_bytes = 256 * 1024 * 1024;

    /// Slave -> master progress report interval (paper Fig. 9 step 3).
    sim::Duration ack_interval{sim::milliseconds(100)};

    /// An SKV slave that has heard no probe from Nic-KV for this long
    /// re-registers: a one-directional NIC->slave partition would otherwise
    /// leave it invalid forever (it has nothing unacked, so its reliable
    /// layer never reports the link broken).
    sim::Duration probe_silence_timeout{sim::seconds(3)};

    /// --- node-failure robustness ------------------------------------------
    /// Commit gating: when > 0, a master parks each reply until at least
    /// min(wait_for_slaves, registered valid slaves) replicas have
    /// acknowledged the write's stream offset; reads park until the offset
    /// current at read time is similarly acknowledged, so un-acked writes
    /// are never observable (no dirty reads that a failover could lose).
    /// 0 (default) replies as soon as the command executed locally.
    int wait_for_slaves = 0;
    /// Parked replies give up after this long with -WAITTIMEOUT: the write
    /// IS applied locally but not known replicated (maybe-applied from the
    /// client's point of view — retry with the same WSEQ token).
    sim::Duration wait_timeout{sim::milliseconds(500)};
    /// Slaves send a progress report immediately after applying replicated
    /// frames instead of only every ack_interval. Commit gating needs this
    /// for sane write latency.
    bool ack_on_apply = false;
    /// Periodic RDB persistence: every persist_interval the server saves a
    /// snapshot + its replication offset, which is all the state a *cold*
    /// restart recovers from. Zero (default) disables persistence — a cold
    /// restart then comes back empty at offset 0 (full resync).
    sim::Duration persist_interval{};
    /// Redis default: replicas serve reads from their (possibly lagging)
    /// copy. Set false for linearizable deployments: slaves answer reads
    /// with -READONLY so retrying clients route every operation to the
    /// current master.
    bool serve_stale_reads = true;

    /// --- replication protocol menu ----------------------------------------
    /// Read by Cluster alone, which builds the protocol's halves from it.
    /// Chain and quorum require the SKV offload topology.
    ReplicationMode replication_mode = ReplicationMode::kFanout;
    /// Chain mode: the tail serves reads only while it has heard a NIC
    /// probe within this window (and has applied up to its assignment-time
    /// read floor). The lease MUST be shorter than the failure detector's
    /// invalidation latency (waiting_time + probe_interval, and the
    /// reliable-layer retransmit-exhaustion time) or a partitioned stale
    /// tail could keep answering reads the surviving chain no longer
    /// includes in its commits.
    sim::Duration chain_read_lease{sim::milliseconds(400)};
};

} // namespace skv::server
