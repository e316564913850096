#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hpp"
#include "cpu/cost_model.hpp"
#include "net/fabric.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "nic/smartnic.hpp"
#include "obs/tracer.hpp"
#include "rdma/cm.hpp"
#include "rdma/verbs.hpp"
#include "server/kv_server.hpp"
#include "sim/simulation.hpp"
#include "skv/nic_kv.hpp"

namespace skv::offload {

/// Everything needed to stand up the paper's testbed in one call: a
/// master host (optionally with a BlueField-class SmartNIC running
/// Nic-KV), N slave hosts, the RoCE fabric, and the transport they share.
struct ClusterConfig {
    std::uint64_t seed = 42;
    int n_slaves = 3;
    /// TCP Redis or RDMA; SKV (offload) requires RDMA.
    server::Transport transport = server::Transport::kRdma;
    /// true = SKV (replication offloaded to Nic-KV); false = the baseline
    /// where the master fans out itself (RDMA-Redis or TCP Redis).
    bool offload = false;
    nic::SmartNicParams nic_params{};
    NicKvConfig nic_cfg{};
    server::ServerConfig server_tmpl{};
};

class Cluster {
public:
    explicit Cluster(ClusterConfig cfg);

    /// Build and start every component, then run the simulation until the
    /// cluster settles (connections up, slaves synchronized).
    void start();

    [[nodiscard]] sim::Simulation& sim() { return sim_; }
    [[nodiscard]] net::Fabric& fabric() { return fabric_; }
    /// Cluster-wide span tracer. Created disabled; call
    /// `tracer().set_enabled(true)` before the workload to collect spans.
    /// Enabling it never changes simulation behavior or the trace digest.
    [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
    /// The calibrated cost model every component of the cluster charges.
    [[nodiscard]] const cpu::CostModel& costs() const { return costs_; }
    [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

    [[nodiscard]] server::KvServer& master() { return *master_; }
    [[nodiscard]] server::KvServer& slave(int i) {
        return *slaves_.at(static_cast<std::size_t>(i));
    }
    [[nodiscard]] int slave_count() const { return static_cast<int>(slaves_.size()); }
    /// Server by cluster node index: -1 = master, 0..n_slaves-1 = slaves.
    [[nodiscard]] server::KvServer& server(int idx);
    [[nodiscard]] NicKv* nic_kv() { return nickv_.get(); }
    [[nodiscard]] nic::SmartNic* smartnic() { return nic_.get(); }

    /// The transport every server listens and dials on, picked once from
    /// ClusterConfig::transport. Clients dial through it too.
    [[nodiscard]] net::Transport& transport() { return transport_; }
    [[nodiscard]] rdma::RdmaNetwork& rdma() { return rdma_; }
    /// The RDMA connection manager (Nic-KV always listens on it).
    [[nodiscard]] rdma::ConnectionManager& cm() { return cm_; }

    /// Create an additional host (with its own core) for load generators.
    net::NodeRef add_client_host(const std::string& name);

    /// True once every slave has applied the full master stream.
    [[nodiscard]] bool converged() const;

    // --- node crash/restart fault model ------------------------------------
    /// Crash a process instance by cluster node index: -1 = master,
    /// 0..n_slaves-1 = slaves. Volatile state, in-flight events and channel
    /// endpoints die with it (KvServer::crash()).
    void crash_node(int idx);
    /// Restart a crashed node. kWarm keeps process memory; kCold reloads
    /// the last persisted snapshot (server_tmpl.persist_interval) and
    /// rejoins via backlog partial resync or full sync.
    void restart_node(int idx, server::KvServer::RecoveryMode mode =
                                   server::KvServer::RecoveryMode::kWarm);
    [[nodiscard]] bool node_crashed(int idx) const;
    /// Crash/restart the Nic-KV process on the SmartNIC (SKV mode only):
    /// the node table and fan-out cursor are volatile, so peers must
    /// re-register after the restart.
    void crash_nic();
    void restart_nic();

    /// A seeded storm of crash/restart events, scheduled from `sim.now()`.
    /// Gaps and victims come from a forked RNG stream so the storm is a
    /// deterministic function of the cluster seed.
    struct CrashStormSpec {
        int crashes = 6;
        sim::Duration min_gap{sim::milliseconds(250)};
        sim::Duration max_gap{sim::milliseconds(900)};
        /// How long each victim stays down before restarting.
        sim::Duration downtime{sim::milliseconds(400)};
        bool include_master = false;
        server::KvServer::RecoveryMode mode =
            server::KvServer::RecoveryMode::kWarm;
    };
    /// Returns the number of crash/restart pairs actually scheduled (a
    /// pick landing on a still-down node is skipped, never stacked).
    int schedule_crash_storm(const CrashStormSpec& spec);

private:
    ClusterConfig cfg_;
    cpu::CostModel costs_{};
    sim::Simulation sim_;
    obs::Tracer tracer_;
    net::Fabric fabric_;
    net::TcpNetwork tcp_;
    rdma::RdmaNetwork rdma_;
    rdma::ConnectionManager cm_;
    net::Transport& transport_; // tcp_ or cm_

    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<nic::SmartNic> nic_;
    std::unique_ptr<NicKv> nickv_;
    std::unique_ptr<server::KvServer> master_;
    std::vector<std::unique_ptr<server::KvServer>> slaves_;
    bool started_ = false;
};

} // namespace skv::offload
