#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/cost_model.hpp"
#include "net/channel.hpp"
#include "nic/smartnic.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "rdma/cm.hpp"
#include "server/protocol.hpp"
#include "server/reliable.hpp"
#include "sim/simulation.hpp"

namespace skv::server {
class HostReplication;
}

namespace skv::offload {

struct NicKvConfig {
    /// The port Nic-KV listens on for node registrations.
    static constexpr std::uint16_t port = 7000;
    /// Replication threads on the SmartNIC (paper §III-C). Clamped at run
    /// time to min(ARM cores, slave count); 1 disables multi-threading,
    /// the paper's default.
    int thread_num = 1;
    /// Probe cadence (paper §III-D: every 1 second).
    sim::Duration probe_interval{sim::seconds(1)};
    /// waiting-time: a node that has not answered a probe for this long is
    /// considered crashed.
    sim::Duration waiting_time{sim::milliseconds(1500)};
    /// Test-only fault injection: when >= 0, quorum replication pretends
    /// this many slave acks constitute a majority (0 = split-brain: the
    /// watermark advances on the master's copy alone). -1 computes the real
    /// majority of (master + registered slaves).
    int quorum_slave_acks_override = -1;
};

class NicReplication;

/// One node in Nic-KV's node list (paper §III-C).
struct NodeEntry {
    std::string name;
    net::EndpointId ep = net::kInvalidEndpoint;
    net::ChannelPtr channel;
    bool is_master = false;
    bool valid = true;
    /// Replication offset last reported by the node (probe acks).
    std::int64_t repl_offset = 0;
    /// Offset reported at the previous probe ack (-1 before the first),
    /// which tells a stalled node from a progressing one.
    std::int64_t prev_probe_offset = -1;
    /// When the node last answered a probe (or registered).
    std::int64_t last_heard_ns = 0;
    /// Which ARM core handles this slave's fan-out (multi-threaded mode).
    int core_idx = 0;
};

/// Nic-KV: the offloaded component running on the SmartNIC's ARM cores.
/// It never talks to clients (paper §III-C: "Nic-KV does not handle
/// requests from clients. Instead, it only interacts with other server
/// nodes"). It maintains the node list, performs steady-state replication
/// fan-out on behalf of the master, coordinates initial synchronization,
/// and runs the failure detector.
class NicKv {
public:
    /// `repl` is the replication protocol's Nic-KV half.
    NicKv(sim::Simulation& sim, const cpu::CostModel& costs,
          rdma::ConnectionManager& cm, nic::SmartNic& nic, NicKvConfig cfg,
          std::unique_ptr<NicReplication> repl);

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
    /// Quorum replication: highest offset known replicated on a replica
    /// majority.
    [[nodiscard]] std::int64_t quorum_watermark() const;
    /// Chain replication: names of the current chain members, head first
    /// (every valid slave with an open link, in registration order).
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
    friend class NicReplication;

    void on_accept(net::ChannelPtr ch);
    void handle(const net::ChannelPtr& ch, const server::NodeMsg& msg);

    void register_master(const net::ChannelPtr& ch, const server::NodeMsg& msg);
    void register_slave(const net::ChannelPtr& ch, const server::NodeMsg& msg);
    /// The entry for a peer registering on `ch`, or nullopt (counted as
    /// malformed) when `ident` carries a malformed endpoint.
    std::optional<NodeEntry> entry_for(const net::ChannelPtr& ch, std::string name,
                                       std::string_view ident, std::int64_t offset);
    enum class Joined : std::uint8_t { kNew, kRejoinedValid, kRejoinedInvalid, kNoMemory };
    /// Enter `e` into the node table: it replaces the entry of the same
    /// name or, on-board memory permitting, is added.
    Joined join(NodeEntry e);
    /// The recovered master resumes mastership: step the stand-in down.
    void demote_stand_in();
    void fan_out(const server::NodeMsg& msg);
    void handle_probe_ack(const net::ChannelPtr& ch, const server::NodeMsg& msg);
    /// Ask the master to resync a slave that is behind the stream.
    void request_resync(const NodeEntry& e);
    /// The registered master's channel while it is open, else null.
    net::Channel* master_link();

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

    sim::Simulation& sim_;
    const cpu::CostModel& costs_;
    rdma::ConnectionManager& cm_;
    nic::SmartNic& nic_;
    NicKvConfig cfg_;
    sim::Rng rng_;
    std::unique_ptr<NicReplication> repl_;

    std::vector<NodeEntry> nodes_;
    std::vector<net::ChannelPtr> pending_; // accepted, not yet registered
    int master_idx_ = -1;
    int promoted_idx_ = -1; // slave elevated while the master is down
    std::int64_t fanout_offset_ = 0;
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

/// The Nic-KV half of a replication protocol (DESIGN.md §13): what Nic-KV
/// does with each replication request, how membership changes reshape the
/// protocol, whom it promotes while the master is down, and the protocol's
/// own frames and state. NicKv owns the node table, probes and failover and
/// calls only this interface; Cluster picks the half. Defaults: fan-out.
class NicReplication {
public:
    NicReplication() = default;
    NicReplication(const NicReplication&) = delete;
    NicReplication& operator=(const NicReplication&) = delete;
    virtual ~NicReplication() = default;

    /// Ship a replication request (parsed; the fan-out cursor is past it).
    virtual void replicate(const server::NodeMsg& msg) = 0;
    /// The valid membership changed (registration, invalidation, recovery).
    virtual void on_membership_change() {}
    virtual void on_master_registered(const net::ChannelPtr& /*ch*/) {}
    /// Slave `name` (re)registered holding the stream up to `offset`.
    virtual void on_slave_registered(const std::string& /*name*/, std::int64_t /*offset*/) {}
    /// A valid node answered a probe; it reported `prev` a round earlier.
    virtual void on_probe_ack(const NodeEntry& /*e*/, std::int64_t /*prev*/) {}
    /// Node-table index of the slave to promote while the master is down,
    /// -1 for nobody. Default: the first valid one, which is also the chain
    /// head (upstream members hold a superset of everything downstream).
    [[nodiscard]] virtual int pick_stand_in() const {
        const auto& n = nodes();
        for (std::size_t i = 0; i < n.size(); ++i) {
            if (!n[i].is_master && n[i].valid && n[i].channel) return static_cast<int>(i);
        }
        return -1;
    }
    /// Nic-KV crashed: the half's volatile state is gone.
    virtual void on_crash() {}
    /// Protocol frames; a protocol that does not speak one counts it.
    virtual void on_quorum_ack(const net::ChannelPtr&, const server::NodeMsg&) {
        stats().incr("unexpected_msgs");
    }
    virtual void on_read_repair(const server::NodeMsg&) { stats().incr("unexpected_msgs"); }
    [[nodiscard]] virtual std::int64_t quorum_watermark() const { return 0; }

protected:
    // The half's window into its Nic-KV.
    [[nodiscard]] NicKv& nic() const { return *n_; }
    [[nodiscard]] std::vector<NodeEntry>& nodes() const { return n_->nodes_; }
    [[nodiscard]] NodeEntry* node_on(const net::ChannelPtr& ch) const {
        return n_->find_by_channel(ch);
    }
    [[nodiscard]] net::Channel* master_link() const { return n_->master_link(); }
    [[nodiscard]] std::int64_t fanout_offset() const { return n_->fanout_offset_; }
    [[nodiscard]] const cpu::CostModel& costs() const { return n_->costs_; }
    [[nodiscard]] sim::Rng& rng() const { return n_->rng_; }
    [[nodiscard]] obs::Registry& stats() const { return n_->stats_; }
    [[nodiscard]] const obs::Counter& fanout_sends() const { return n_->c_fanout_sends_; }
    /// Charge `d` to the primary ARM core (parsing, control messages).
    void consume(sim::Duration d) const { n_->nic_.core(0).consume(d); }
    void request_resync(const NodeEntry& e) const { n_->request_resync(e); }
    /// A valid slave with an open link: a replication target.
    [[nodiscard]] static bool live_slave(const NodeEntry& e) {
        return !e.is_master && e.valid && e.channel && e.channel->open();
    }
    /// Copy `body_bytes` into `e`'s send buffer on its ARM core and post
    /// `wire` (paper Fig. 9 step 2: one WRITE_WITH_IMM per slave).
    void ship(const NodeEntry& e, const std::string& wire, std::size_t body_bytes) const;
    /// Chain and quorum stall healing: resync a valid slave that sat below
    /// the fan-out cursor, making no progress, for a whole probe round.
    void resync_if_stalled(const NodeEntry& e, std::int64_t prev) const;

private:
    friend class NicKv;
    NicKv* n_ = nullptr;
};

/// A replication protocol as Cluster hands it out: a maker for each
/// server's host half, and Nic-KV's half (null when there is no Nic-KV).
struct ReplicationProtocol {
    std::unique_ptr<server::HostReplication> (*make_host)() = nullptr;
    std::unique_ptr<NicReplication> nic;
};

inline std::int64_t NicKv::quorum_watermark() const { return repl_->quorum_watermark(); }

} // namespace skv::offload
