#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cost_model.hpp"
#include "net/channel.hpp"
#include "nic/smartnic.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "rdma/cm.hpp"
#include "server/config.hpp"
#include "server/protocol.hpp"
#include "server/reliable.hpp"
#include "sim/simulation.hpp"

namespace skv::offload {

struct NicKvConfig {
    std::string name = "nic-kv";
    std::uint16_t port = 7000;  // simlint:allow(knob-drift) endpoint identity assigned by Cluster, not a tunable
    /// Replication threads on the SmartNIC (paper §III-C). Clamped at run
    /// time to min(ARM cores, slave count); 1 disables multi-threading,
    /// the paper's default.
    int thread_num = 1;
    /// Probe cadence (paper §III-D: every 1 second).
    sim::Duration probe_interval{sim::seconds(1)};
    /// waiting-time: a node that has not answered a probe for this long is
    /// considered crashed.
    sim::Duration waiting_time{sim::milliseconds(1500)};
    /// Node-list entry footprint charged against on-board DRAM.
    std::size_t node_entry_bytes = 512 * 1024;
    /// Retransmitting-layer parameters for accepted node links (must match
    /// the KvServer side, both ends speak the same envelope).
    server::ReliableParams reliable{};
    /// Which replication protocol this NIC executes (mirrors
    /// ServerConfig::replication_mode; Cluster keeps the two in sync).
    server::ReplicationMode replication_mode = server::ReplicationMode::kFanout;
    /// Test-only fault injection: when >= 0, quorum mode pretends this many
    /// slave acks constitute a majority (0 = split-brain: the watermark
    /// advances on the master's copy alone). -1 computes the real majority
    /// of (master + registered slaves).
    int quorum_slave_acks_override = -1;
};

/// Nic-KV: the offloaded component running on the SmartNIC's ARM cores.
/// It never talks to clients (paper §III-C: "Nic-KV does not handle
/// requests from clients. Instead, it only interacts with other server
/// nodes"). It maintains the node list, performs steady-state replication
/// fan-out on behalf of the master, coordinates initial synchronization,
/// and runs the failure detector.
class NicKv {
public:
    struct NodeEntry {
        std::string name;
        net::EndpointId ep = net::kInvalidEndpoint;
        net::ChannelPtr channel;
        bool is_master = false;
        bool valid = true;
        /// Replication offset last reported by the node (probe acks).
        std::int64_t repl_offset = 0;
        /// Quorum mode: highest offset this slave acknowledged to the NIC.
        std::int64_t quorum_ack = 0;
        /// Offset seen at the previous probe ack; a valid slave stuck below
        /// the fan-out cursor across a full probe round gets a resync
        /// (chain/quorum stall healing).
        std::int64_t prev_probe_offset = -1;
        /// Probe bookkeeping.
        std::int64_t last_heard_ns = 0;
        std::uint64_t probe_seq = 0;
        /// Which ARM core handles this slave's fan-out (multi-threaded mode).
        int core_idx = 0;
    };

    NicKv(sim::Simulation& sim, const cpu::CostModel& costs,
          rdma::ConnectionManager& cm, nic::SmartNic& nic, NicKvConfig cfg);

    /// Listen on the SmartNIC endpoint and start the probe timer.
    void start();

    // --- fault injection ------------------------------------------------------
    /// Crash the Nic-KV process on the SmartNIC: the ARM cores halt and all
    /// volatile service state — node table, fan-out cursor, pending
    /// registrations, on-board memory reservations — is lost. The caller
    /// (Cluster) severs/restores the NIC's fabric endpoint, which kills the
    /// channel endpoints. Peers re-register via probe silence.
    void crash();
    /// Restart the service cold (Nic-KV keeps no persistent state): an
    /// empty node table and a fresh probe cycle. The master's and slaves'
    /// probe-silence timers drive re-registration.
    void recover();
    [[nodiscard]] bool crashed() const { return crashed_; }

    // --- introspection --------------------------------------------------------
    [[nodiscard]] const std::vector<NodeEntry>& nodes() const { return nodes_; }
    [[nodiscard]] std::size_t slave_count() const;
    [[nodiscard]] int valid_slaves() const;
    [[nodiscard]] bool master_known() const { return master_idx_ >= 0; }
    [[nodiscard]] bool master_valid() const;
    [[nodiscard]] std::int64_t fanout_offset() const { return fanout_offset_; }
    /// Quorum mode: highest offset known replicated on a replica majority.
    [[nodiscard]] std::int64_t quorum_watermark() const { return quorum_watermark_; }
    /// Chain mode: names of the current chain members, head first.
    [[nodiscard]] std::vector<std::string> chain_order() const;
    [[nodiscard]] int effective_threads() const;
    [[nodiscard]] obs::Registry& stats() { return stats_; }

    /// Wire the cluster's observability tracer; `track_name` labels the NIC
    /// row in the chrome trace. Observation only — never perturbs the sim.
    void set_tracer(obs::Tracer* tracer, const std::string& track_name) {
        tracer_ = tracer;
        obs_track_ = tracer != nullptr ? tracer->track(track_name) : UINT32_MAX;
    }
    [[nodiscard]] const NicKvConfig& config() const { return cfg_; }
    [[nodiscard]] net::EndpointId endpoint() const { return nic_.endpoint(); }

private:
    void on_accept(net::ChannelPtr ch);
    void handle(const net::ChannelPtr& ch, const server::NodeMsg& msg);

    void register_master(const net::ChannelPtr& ch, const server::NodeMsg& msg);
    void register_slave(const net::ChannelPtr& ch, const server::NodeMsg& msg);
    void fan_out(const server::NodeMsg& msg);
    void handle_probe_ack(const net::ChannelPtr& ch, const server::NodeMsg& msg);

    // --- chain replication (DESIGN.md §13) --------------------------------
    /// Forward one replication frame to the chain head (chain mode's
    /// fan_out): members relay it downstream themselves.
    void chain_forward(const server::NodeMsg& msg);
    /// (Re-)splice the chain from the failure detector's view and push
    /// fresh successor assignments (kChainSet) to every member; laggards
    /// get a master-served resync for ranges the old chain never relayed.
    void reconfigure_chain();

    // --- quorum replication (DESIGN.md §13) -------------------------------
    void handle_quorum_ack(const net::ChannelPtr& ch, const server::NodeMsg& msg);
    /// Re-fan a master-pushed backlog suffix (ABD read-phase write-back) to
    /// replicas that have not yet acknowledged it.
    void handle_read_repair(const server::NodeMsg& msg);
    [[nodiscard]] int quorum_slave_acks_needed() const;
    /// Recompute the majority watermark from per-slave acks and, when it
    /// advances, release commits to the master via kQuorumCommit.
    void recompute_quorum_watermark();
    /// Ask the master to resync a valid-but-stalled lagging slave.
    void request_resync(const NodeEntry& e);

    void probe_cycle(std::uint64_t epoch);
    void check_timeouts();
    /// Elect a stand-in when the master is invalid and nobody has been
    /// promoted yet — from the invalidation scan, or when a slave
    /// (re)joins/revalidates into a masterless cluster.
    void maybe_promote();
    /// Shared failover/publish reaction after nodes were marked invalid by
    /// the timeout scan or a broken reliable link.
    void after_invalidation();
    void on_link_broken(const net::Channel* raw);
    void publish_slave_status();
    void assign_cores();

    [[nodiscard]] NodeEntry* find_by_channel(const net::ChannelPtr& ch);
    [[nodiscard]] NodeEntry* find_by_name(const std::string& name);

    sim::Simulation& sim_;
    const cpu::CostModel& costs_;
    rdma::ConnectionManager& cm_;
    nic::SmartNic& nic_;
    NicKvConfig cfg_;
    sim::Rng rng_;

    std::vector<NodeEntry> nodes_;
    std::vector<net::ChannelPtr> pending_; // accepted, not yet registered
    int master_idx_ = -1;
    int promoted_idx_ = -1; // slave elevated while the master is down
    std::int64_t fanout_offset_ = 0;
    std::int64_t quorum_watermark_ = 0;
    std::uint64_t probe_round_ = 0;
    /// Bumped on every (re)start of the probe chain so events scheduled by
    /// a pre-crash chain are ignored after recovery.
    std::uint64_t probe_epoch_ = 0;
    bool started_ = false;
    bool crashed_ = false;

    obs::Registry stats_;
    // Fan-out hot-path counters, pre-resolved in the constructor.
    obs::Counter c_fanout_sends_;
    obs::Counter c_repl_requests_;
    obs::Tracer* tracer_ = nullptr;
    std::uint32_t obs_track_ = UINT32_MAX;
};

} // namespace skv::offload
