#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cost_model.hpp"
#include "kv/backlog.hpp"
#include "kv/command.hpp"
#include "kv/db.hpp"
#include "kv/resp.hpp"
#include "net/channel.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "server/config.hpp"
#include "server/protocol.hpp"
#include "sim/histogram.hpp"
#include "sim/simulation.hpp"

namespace skv::server {

class HostReplication;

/// A master's link to one replica: the channel its sync and acks ride, the
/// offset it last acknowledged, and whether the failure detector counts it.
struct SlaveLink {
    std::string name;
    net::ChannelPtr channel;
    std::int64_t ack_offset = 0;
    bool valid = true;
};

/// A Host-KV instance: the single-threaded, event-driven Redis-style
/// server. One per simulated host. Depending on configuration it acts as:
///
///  * a standalone server (Fig. 10 experiments),
///  * a master, which hands each write to its replication half
///    (HostReplication): the baseline feeds every slave itself
///    (RDMA-Redis / Fig. 7), an SKV half posts one request to Nic-KV
///    (Fig. 11/12/14),
///  * a slave applying the replication stream and reporting progress.
///
/// Two listening ports: `cfg.port` speaks RESP to clients; `cfg.port + 1`
/// speaks NodeMsg to peers (slaves, masters, Nic-KV).
class KvServer {
public:
    /// Every listen and dial goes through `transport` (TCP Redis,
    /// RDMA-Redis or SKV). `repl` is the replication protocol's host half;
    /// null gives the baseline host fan-out (RDMA-Redis / TCP Redis).
    KvServer(sim::Simulation& sim, const cpu::CostModel& costs,
             net::Transport& transport, net::NodeRef self, ServerConfig cfg,
             std::unique_ptr<HostReplication> repl = nullptr);

    /// Begin listening on the client and node ports and start serverCron.
    void start();

    // --- role wiring -------------------------------------------------------
    /// Baseline replication: connect to the master's node port and SYNC.
    void slaveof_baseline(net::EndpointId master_ep, std::uint16_t node_port);
    /// SKV replication: register with Nic-KV on the master's SmartNIC
    /// (paper Fig. 8 step 1). The NIC coordinates the rest.
    void slaveof_skv(net::EndpointId nic_ep, std::uint16_t nic_port);
    /// SKV master: open the replication-request channel to the local
    /// Nic-KV. Must be called before writes arrive.
    void attach_nic(net::EndpointId nic_ep, std::uint16_t nic_port);

    // --- fault injection ------------------------------------------------------
    /// Crash the host process: the core halts and the endpoint is severed.
    void crash();
    /// How much state a restart recovers. kWarm models a process pause
    /// (data survives in the simulated process object); kCold models a
    /// real machine restart — everything volatile is gone and the node
    /// reloads the last persisted RDB snapshot (see persist_interval),
    /// then catches up via backlog partial resync or full sync.
    enum class RecoveryMode : std::uint8_t { kWarm, kCold };
    /// Restart after a crash. The replication stream has moved on while
    /// the node was down; it resynchronizes via the NIC-driven resync.
    void recover(RecoveryMode mode = RecoveryMode::kWarm);
    [[nodiscard]] bool crashed() const { return crashed_; }
    /// Cap on the duplicate-suppression table. Beyond it the
    /// least-recently-active client is evicted (LRU), and a master
    /// replicates each eviction through the stream so slave tables stay
    /// bounded in lockstep.
    static constexpr std::size_t kDupTableMax = 1024;
    /// Retained duplicate-suppression entries (one per writing client).
    [[nodiscard]] std::size_t dup_entries() const { return dup_table_.size(); }
    /// Whether a duplicate-suppression entry for `client` is retained.
    [[nodiscard]] bool dup_has(std::uint64_t client) const {
        return dup_table_.find(client) != dup_table_.end();
    }
    /// Quorum replication: the majority watermark last released by the NIC.
    [[nodiscard]] std::int64_t quorum_commit_offset() const;

    // --- introspection -----------------------------------------------------------
    [[nodiscard]] kv::Database& db() { return db_; }
    [[nodiscard]] const kv::Database& db() const { return db_; }
    [[nodiscard]] Role role() const { return role_; }
    [[nodiscard]] const ServerConfig& config() const { return cfg_; }
    [[nodiscard]] net::NodeRef node() const { return self_; }
    [[nodiscard]] std::int64_t master_offset() const {
        return backlog_.master_offset();
    }
    [[nodiscard]] std::int64_t slave_applied_offset() const { return applied_offset_; }
    [[nodiscard]] std::size_t slave_count() const { return slaves_.size(); }
    [[nodiscard]] int available_slaves() const { return available_slaves_; }
    /// Connection objects currently retained (clients + node links); the
    /// lifetime regression test asserts this shrinks when links die.
    [[nodiscard]] std::size_t client_conns() const { return clients_.size(); }
    [[nodiscard]] obs::Registry& stats() { return stats_; }
    [[nodiscard]] std::uint64_t commands_processed() const { return commands_; }
    /// The SKV master's replication-request channel (introspection).
    [[nodiscard]] const net::ChannelPtr& nic_link() const { return nic_link_; }

    /// INFO-style one-line status (examples print this).
    [[nodiscard]] std::string info() const;
    /// The INFO command's sectioned body (Server/Clients/Replication/...).
    [[nodiscard]] std::string info_sections() const;

    /// One retained slow command (SLOWLOG GET). Times are sim-time.
    struct SlowlogEntry {
        std::uint64_t id = 0;
        std::int64_t when_ns = 0;
        std::int64_t dur_ns = 0;
        std::vector<std::string> argv;
    };

    /// Wire the cluster's observability tracer. `track_name` names this
    /// server's chrome-trace row. The tracer only observes (no events, no
    /// RNG), so wiring or enabling it never changes the trace digest.
    void set_tracer(obs::Tracer* tracer, const std::string& track_name);

private:
    friend class HostReplication;
    class HostFanout; // the baseline's replication half, a server's default

    struct ClientConn {
        net::ChannelPtr channel;
        kv::resp::RequestParser parser;
    };
    using ClientPtr = std::shared_ptr<ClientConn>;

    // -- listening / connections
    void on_client_accept(net::ChannelPtr ch);
    void on_node_accept(net::ChannelPtr ch);
    /// Wrap a node link in the retransmitting layer (when configured) and
    /// install the broken-link reaction.
    net::ChannelPtr wrap_node_link(net::ChannelPtr ch);
    void on_node_link_broken(const net::Channel* raw);
    /// Retain `ch` as a node connection and install its NodeMsg handler.
    /// The handler captures the connection weakly: it is stored inside the
    /// channel, which the connection owns, so an owning capture would be a
    /// reference cycle and the link would never be reclaimed (see
    /// DESIGN.md "Ownership model").
    void adopt_node_link(net::ChannelPtr ch);
    /// Close and drop the retained ClientConn owning `raw` (if any).
    void release_conn(const net::Channel* raw);
    /// Close `link`, drop it and the connection record that retains it.
    void drop_link(net::ChannelPtr& link);
    /// The one node-link dial, for every link a server opens. When the
    /// handshake to `ep:port` completes while the server is up and
    /// `wanted()` (if given) holds, the channel is wrapped in the
    /// retransmitting layer, retained as a node connection and handed to
    /// `up`; otherwise it is dropped (closed with `close_unwanted`). The
    /// handshake rides unprotected fabric messages: given `settled`, call
    /// `again` after kConnectRetry unless crashed or settled() by then.
    void dial_node(net::EndpointId ep, std::uint16_t port, std::function<bool()> wanted,
                   std::function<void(const net::ChannelPtr&)> up, bool close_unwanted = false,
                   std::function<bool()> settled = nullptr,
                   std::function<void()> again = nullptr);
    /// (Re)dial a persistent link (baseline master, Nic-KV as master or
    /// slave) under a fresh attempt number, release the old channel, store
    /// the new one in `link` and `greet` the peer; `again` until it is up.
    void redial(net::ChannelPtr& link, std::uint64_t& attempts, net::EndpointId ep,
                std::uint16_t port, std::function<void(const net::ChannelPtr&)> greet,
                std::function<void()> again);

    // -- client command path
    void on_client_data(const ClientPtr& conn, std::string payload);
    void run_command(const ClientPtr& conn, std::vector<std::string> argv);
    /// Send a reply, closing the request's trace flow first.
    void reply_to(const ClientConn& conn, bool traced, std::string reply);
    [[nodiscard]] sim::Duration command_cost(
        const std::vector<std::string>& argv, const kv::CommandSpec* spec) const;
    /// `reason` receives a stats-counter key naming why the write was gated.
    [[nodiscard]] bool write_allowed(std::string* err, const char** reason) const;

    // -- commit gating / duplicate suppression
    /// Deliver `reply` now, or — when commit gating is on and `offset` is
    /// not yet acknowledged by enough replicas — park it. Tagged writes
    /// also record their duplicate-suppression entry (ready once sent).
    void deliver_or_park(const ClientPtr& conn, std::string reply,
                         std::int64_t offset, bool is_write, bool tagged,
                         WriteTag tag, bool traced);
    /// Commit gating: a master with wait_for_slaves set asks its half.
    [[nodiscard]] bool commit_satisfied(std::int64_t offset) const;
    /// Re-deliver every parked reply whose offset became acknowledged
    /// (called whenever ack progress or the slave set changes).
    void flush_parked();
    void on_wait_timeout(std::uint64_t id);
    /// A retry arrived for a write that is applied but still parked:
    /// point the waiting reply at the retry's connection.
    void attach_dup_waiter(const WriteTag& tag, const ClientPtr& conn,
                           bool traced);
    void dup_record(const WriteTag& tag, std::string reply, bool ready,
                    std::int64_t offset);

    // -- persistence
    void persist_snapshot();

    // -- replication (master side)
    void propagate(const std::vector<std::string>& repl_argv);
    void handle_node_msg(const ClientPtr& conn, const NodeMsg& msg);
    void serve_initial_sync(const std::string& slave_name,
                            std::int64_t slave_offset, net::ChannelPtr direct);
    /// Catch a replica at `from` up over `ch`: the backlog range while the
    /// ring still holds it, else a full snapshot.
    void send_catch_up(const net::ChannelPtr& ch, std::int64_t from);
    void connect_and_sync_slave(const std::string& slave_name,
                                std::int64_t offset);

    // -- replication (slave side)
    void apply_repl_stream(std::int64_t start_offset, const std::string& bytes);
    /// Trace and apply a replication frame that reached this slave.
    void apply_frame(const NodeMsg& msg);
    void apply_contiguous(std::int64_t start_offset, std::string_view bytes);
    void drain_pending_stream();
    void apply_one(std::vector<std::string> argv);
    void load_snapshot(std::int64_t offset, const std::string& rdb_bytes);
    /// Slave: ack applied progress to the master (and through the half).
    void report_progress();

    // -- introspection commands / latency accounting
    void record_command_latency(const std::vector<std::string>& argv,
                                bool is_write, sim::SimTime t0);
    [[nodiscard]] std::string slowlog_reply(const std::vector<std::string>& argv);
    [[nodiscard]] std::string latency_reply(const std::vector<std::string>& argv);

    // -- cron
    void cron();

    sim::Simulation& sim_;
    const cpu::CostModel& costs_;
    net::Transport& transport_;
    net::NodeRef self_;
    ServerConfig cfg_;
    sim::Rng rng_;
    std::unique_ptr<HostReplication> repl_;

    kv::Database db_;
    kv::ReplBacklog backlog_;
    const kv::CommandTable& commands_table_;

    Role role_ = Role::kStandalone;
    bool started_ = false;
    bool crashed_ = false;

    std::vector<ClientPtr> clients_;

    // master state
    std::vector<SlaveLink> slaves_;      // direct links: sync, acks, fan-out
    net::ChannelPtr nic_link_;           // SKV: replication requests to Nic-KV
    int available_slaves_ = 0;           // as reported by the failure detector
    bool attached_as_master_ = false;    // SKV: registered with Nic-KV as master

    // slave state
    net::ChannelPtr master_link_;        // baseline: channel to master;
                                         // SKV: direct channel from master
    net::ChannelPtr nic_registration_;   // SKV slave: channel to Nic-KV
    net::EndpointId skv_nic_ep_ = net::kInvalidEndpoint; // for re-registration
    std::uint16_t skv_nic_port_ = 0;
    net::EndpointId baseline_master_ep_ = net::kInvalidEndpoint;
    std::uint16_t baseline_master_port_ = 0;
    // Connect attempts are numbered so a late handshake completion (or a
    // scheduled retry) from a superseded attempt is ignored.
    std::uint64_t skv_connect_attempt_ = 0;
    std::uint64_t baseline_connect_attempt_ = 0;
    std::int64_t last_probe_ns_ = 0;     // when Nic-KV last probed us
    std::int64_t last_reregister_ns_ = 0;
    std::int64_t applied_offset_ = 0;
    kv::resp::RequestParser repl_parser_;
    /// Stream frames that arrived ahead of applied_offset_ (e.g. fan-out
    /// racing an in-flight snapshot during resync), drained once the
    /// snapshot lands. Bounded; overflow forces another resync.
    std::deque<std::pair<std::int64_t, std::string>> pending_stream_;
    std::size_t pending_stream_bytes_ = 0;
    static constexpr std::size_t kPendingStreamCap = 64 * 1024 * 1024;

    // Duplicate suppression: last write sequence executed per client, with
    // the cached reply. `ready` flips once the reply was actually released
    // to a client (commit gating can hold it back); `offset` is the stream
    // offset a retry must wait on while not ready. `last_used` orders LRU
    // eviction beyond kDupTableMax (see dup_record).
    struct DupState {
        std::uint64_t seq = 0;
        std::string reply;
        bool ready = true;
        std::int64_t offset = 0;
        std::uint64_t last_used = 0;
    };
    std::map<std::uint64_t, DupState> dup_table_;
    std::uint64_t dup_use_tick_ = 0;

    // Replies parked by commit gating, keyed by a monotonic id so flush
    // order is deterministic.
    struct Parked {
        std::weak_ptr<ClientConn> conn;
        std::string reply;
        std::int64_t offset = 0;
        bool is_write = false;
        bool tagged = false;
        WriteTag tag{};
        bool traced = false;
    };
    std::map<std::uint64_t, Parked> parked_;
    std::uint64_t next_parked_id_ = 0;

    // Last persisted snapshot (the "disk" a cold restart recovers from).
    std::string persisted_rdb_;
    std::int64_t persisted_offset_ = 0;

    std::uint64_t commands_ = 0;
    std::int64_t cron_ticks_ = 0;
    obs::Registry stats_;
    // Hot-path counters pre-resolved against stats_ in the constructor
    // (same cells the string API addresses).
    obs::Counter c_reads_;
    obs::Counter c_writes_;
    obs::Counter c_repl_offload_;
    obs::Counter c_repl_sends_;
    obs::Counter c_repl_applied_;
    /// Service time of every command, entry to reply; INFO's Latencystats.
    sim::LatencyHistogram cmd_service_;

    obs::Tracer* tracer_ = nullptr;
    std::uint32_t obs_track_ = UINT32_MAX;

    // SLOWLOG / LATENCY state (sim-time, deterministic).
    std::uint64_t next_slowlog_id_ = 0;
    std::deque<SlowlogEntry> slowlog_;
    struct LatencyEvent {
        std::int64_t last_ns = 0;
        std::int64_t last_dur_ns = 0;
        std::int64_t max_dur_ns = 0;
        std::deque<std::pair<std::int64_t, std::int64_t>> history;
    };
    std::map<std::string, LatencyEvent> latency_events_;
};

/// The host half of a replication protocol (DESIGN.md §13): what a server
/// sends per write, when a write commits, and the protocol's own frames,
/// relay and read rules. KvServer calls only this interface; Cluster picks
/// the half. The defaults are the fan-out rules. The baseline's host
/// fan-out is a server's default; the SKV halves live in src/skv.
class HostReplication {
public:
    HostReplication() = default;
    HostReplication(const HostReplication&) = delete;
    HostReplication& operator=(const HostReplication&) = delete;
    virtual ~HostReplication() = default;

    /// Master: ship the write at [start, start + bytes.size()) of the stream.
    virtual void propagate(std::int64_t start, const std::string& bytes) = 0;
    /// Master with commit gating: may a reply at `offset` be released?
    /// Default: min(wait_for_slaves, valid slaves) acks, Redis WAIT's rule.
    [[nodiscard]] virtual bool committed(std::int64_t offset) const;
    /// Master: a slave link was added, refreshed or dropped.
    virtual void on_slaves_changed() {}
    /// Master: a read parked until `offset` commits.
    virtual void on_read_parked(std::int64_t /*offset*/) {}
    /// Slave: report applied progress (after applying, and every ack tick).
    virtual void report_progress() {}
    /// Slave with stale reads off: may this read be served here anyway?
    virtual bool serve_replica_read() { return false; }
    /// The server was promoted to stand-in master, or demoted.
    virtual void on_role_change() {}
    /// A node link broke; true when it was this half's own.
    virtual bool on_link_broken(const net::Channel* /*raw*/) { return false; }
    /// The process crashed: the half's volatile state is gone.
    virtual void on_crash() {}
    /// Protocol frames; a protocol that does not speak one counts it.
    virtual void on_chain_set(const NodeMsg&) { stats().incr("node_msgs_unexpected"); }
    virtual void on_chain_data(const NodeMsg&) { stats().incr("node_msgs_unexpected"); }
    virtual void on_quorum_commit(const NodeMsg&) { stats().incr("node_msgs_unexpected"); }
    [[nodiscard]] virtual std::int64_t quorum_commit_offset() const { return 0; }

protected:
    // The half's window into its server.
    [[nodiscard]] KvServer& server() const { return *s_; }
    [[nodiscard]] sim::Simulation& sim() const { return s_->sim_; }
    [[nodiscard]] const cpu::CostModel& costs() const { return s_->costs_; }
    [[nodiscard]] sim::Rng& rng() const { return s_->rng_; }
    void consume(sim::Duration d) const { s_->self_.core->consume(d); }
    [[nodiscard]] obs::Registry& stats() const { return s_->stats_; }
    [[nodiscard]] const ServerConfig& config() const { return s_->cfg_; }
    [[nodiscard]] Role role() const { return s_->role_; }
    /// Valid slave links, and those that acked `offset`.
    [[nodiscard]] int valid_slaves() const { return acked_slaves(INT64_MIN); }
    [[nodiscard]] int acked_slaves(std::int64_t offset) const;
    [[nodiscard]] const kv::ReplBacklog& backlog() const { return s_->backlog_; }
    [[nodiscard]] const net::ChannelPtr& nic_reg() const { return s_->nic_registration_; }
    [[nodiscard]] std::int64_t last_probe_ns() const { return s_->last_probe_ns_; }
    [[nodiscard]] const obs::Counter& offload_counter() const { return s_->c_repl_offload_; }
    /// Tracer span: a write left the master.
    void trace_propagate(std::int64_t start, std::size_t bytes) const;
    void apply_frame(const NodeMsg& msg) const { s_->apply_frame(msg); }
    void flush_parked() const { s_->flush_parked(); }
    void drop_link(net::ChannelPtr& link) const { s_->drop_link(link); }
    void dial_node(net::EndpointId ep, std::uint16_t port, std::function<bool()> wanted,
                   std::function<void(const net::ChannelPtr&)> up, bool close_unwanted,
                   std::function<bool()> settled, std::function<void()> again) const {
        s_->dial_node(ep, port, std::move(wanted), std::move(up), close_unwanted,
                      std::move(settled), std::move(again));
    }

private:
    friend class KvServer;
    KvServer* s_ = nullptr;
};

inline std::int64_t KvServer::quorum_commit_offset() const {
    return repl_->quorum_commit_offset();
}

} // namespace skv::server
