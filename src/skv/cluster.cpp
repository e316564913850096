#include "skv/cluster.hpp"

#include "sim/check.hpp"
#include "skv/chain.hpp"
#include "skv/fanout.hpp"
#include "skv/quorum.hpp"

namespace skv::offload {

namespace {

/// Simulated time start() allows for connection setup and the initial sync.
constexpr sim::Duration kSettle = sim::milliseconds(300);

/// The one place that decides which replication protocol runs (DESIGN.md
/// §13): each server gets the protocol's host half, Nic-KV its own half.
/// Chain successor tables and quorum ack aggregation live on Nic-KV, so
/// neither protocol exists in the baseline topology.
ReplicationProtocol choose_protocol(const ClusterConfig& cfg) {
    // Nic-KV listens on the RDMA connection manager alone.
    SKV_CHECK(!cfg.offload || cfg.transport == Transport::kRdma,
              "SKV mode requires the RDMA transport");
    constexpr const char* kNeedsNic =
        "chain/quorum replication requires the SKV offload topology";
    switch (cfg.server_tmpl.replication_mode) {
        case server::ReplicationMode::kFanout:
            break;
        case server::ReplicationMode::kChain:
            SKV_CHECK(cfg.offload, kNeedsNic);
            return chain_protocol();
        case server::ReplicationMode::kQuorum:
            SKV_CHECK(cfg.offload, kNeedsNic);
            return quorum_protocol();
    }
    if (cfg.offload) return fanout_protocol();
    // The baseline: every server's default host fan-out, and no Nic-KV.
    return {[] { return std::unique_ptr<server::HostReplication>(); }, nullptr};
}

/// The one place that decides which transport every server, client and
/// load generator of the cluster listens and dials on.
net::Transport& choose_transport(const ClusterConfig& cfg, net::TcpNetwork& tcp,
                                 rdma::ConnectionManager& cm) {
    if (cfg.transport == Transport::kTcp) return tcp;
    return cm;
}

} // namespace

const char* name_of(System s) {
    switch (s) {
        case System::kTcpRedis: return "Redis";
        case System::kRdmaRedis: return "RDMA-Redis";
        case System::kSkv: return "SKV";
    }
    SKV_UNREACHABLE("bad System");
}

ClusterConfig config_of(System s) {
    ClusterConfig cfg;
    cfg.transport = s == System::kTcpRedis ? Transport::kTcp : Transport::kRdma;
    cfg.offload = s == System::kSkv;
    return cfg;
}

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), sim_(cfg_.seed), tracer_(sim_), fabric_(sim_),
      tcp_(sim_, fabric_, costs_), rdma_(sim_, fabric_, costs_),
      cm_(rdma_), transport_(choose_transport(cfg_, tcp_, cm_)) {
    // Observability wiring: every component shares the cluster tracer. It
    // starts disabled, so instrumented code paths are no-ops by default.
    fabric_.set_tracer(&tracer_);
    rdma_.set_tracer(&tracer_);
}

void Cluster::start() {
    SKV_CHECK(!started_);
    started_ = true;
    ReplicationProtocol protocol = choose_protocol(cfg_);

    // Master host.
    const net::EndpointId master_ep = fabric_.add_host("master");
    cores_.push_back(std::make_unique<cpu::Core>(sim_, "master/cpu"));
    const net::NodeRef master_node{master_ep, cores_.back().get()};
    server::ServerConfig mcfg = cfg_.server_tmpl;
    mcfg.name = "master";
    master_ = std::make_unique<server::KvServer>(sim_, costs_, transport_,
                                                 master_node, mcfg, protocol.make_host());
    master_->set_tracer(&tracer_, "server/master");

    // SmartNIC + Nic-KV on the master (SKV mode only; the baseline's NIC
    // switch steers everything straight to the host).
    if (cfg_.offload) {
        nic_ = std::make_unique<nic::SmartNic>(sim_, fabric_, master_ep,
                                               "master/bf2", cfg_.nic_params);
        nickv_ = std::make_unique<NicKv>(sim_, costs_, cm_, *nic_, cfg_.nic_cfg,
                                         std::move(protocol.nic));
        nickv_->set_tracer(&tracer_, "nic/nic-kv");
    }

    // Slave hosts.
    for (int i = 0; i < cfg_.n_slaves; ++i) {
        const std::string name = "slave" + std::to_string(i);
        const net::EndpointId ep = fabric_.add_host(name);
        cores_.push_back(std::make_unique<cpu::Core>(sim_, name + "/cpu"));
        const net::NodeRef node{ep, cores_.back().get()};
        server::ServerConfig scfg = cfg_.server_tmpl;
        scfg.name = name;
        slaves_.push_back(std::make_unique<server::KvServer>(
            sim_, costs_, transport_, node, scfg, protocol.make_host()));
        slaves_.back()->set_tracer(&tracer_, "server/" + name);
    }

    // Bring everything up: listeners first, then the replication topology.
    master_->start();
    for (auto& s : slaves_) s->start();
    if (nickv_) nickv_->start();

    sim_.after(sim::milliseconds(1), [this]() {
        if (cfg_.offload) {
            master_->attach_nic(nickv_->endpoint(), cfg_.nic_cfg.port);
        }
    });
    sim_.after(sim::milliseconds(10), [this]() {
        for (auto& s : slaves_) {
            if (cfg_.offload) {
                s->slaveof_skv(nickv_->endpoint(), cfg_.nic_cfg.port);
            } else {
                s->slaveof_baseline(
                    master_->node().ep,
                    static_cast<std::uint16_t>(master_->config().port + 1));
            }
        }
    });

    sim_.run_until(sim_.now() + kSettle);
}

net::NodeRef Cluster::add_client_host(const std::string& name) {
    const net::EndpointId ep = fabric_.add_host(name);
    cores_.push_back(std::make_unique<cpu::Core>(sim_, name + "/cpu"));
    return net::NodeRef{ep, cores_.back().get()};
}

// --- node crash/restart fault model ------------------------------------------

server::KvServer& Cluster::server(int idx) {
    SKV_CHECK(idx >= -1 && idx < slave_count());
    return idx < 0 ? *master_ : *slaves_[static_cast<std::size_t>(idx)];
}

void Cluster::crash_node(int idx) { server(idx).crash(); }

void Cluster::restart_node(int idx, server::KvServer::RecoveryMode mode) {
    server(idx).recover(mode);
}

bool Cluster::node_crashed(int idx) const {
    SKV_CHECK(idx >= -1 && idx < static_cast<int>(slaves_.size()));
    return idx < 0 ? master_->crashed()
                   : slaves_[static_cast<std::size_t>(idx)]->crashed();
}

void Cluster::crash_nic() {
    SKV_CHECK(nickv_ != nullptr);
    nickv_->crash();
    fabric_.sever(nickv_->endpoint());
}

void Cluster::restart_nic() {
    SKV_CHECK(nickv_ != nullptr);
    fabric_.restore(nickv_->endpoint());
    nickv_->recover();
}

int Cluster::schedule_crash_storm(const CrashStormSpec& spec) {
    SKV_CHECK(started_);
    SKV_CHECK(spec.max_gap.ns() >= spec.min_gap.ns());
    sim::Rng rng = sim_.fork_rng();
    sim::SimTime t = sim_.now();
    // Per-node time until which it is scheduled to be down (index 0 = the
    // master, 1.. = slaves), so picks never stack on a crashed node.
    std::vector<sim::SimTime> down_until(slaves_.size() + 1,
                                         sim::SimTime::zero());
    const int candidates =
        static_cast<int>(slaves_.size()) + (spec.include_master ? 1 : 0);
    SKV_CHECK(candidates > 0);
    int scheduled = 0;
    for (int i = 0; i < spec.crashes; ++i) {
        const std::int64_t span = spec.max_gap.ns() - spec.min_gap.ns();
        t = t + spec.min_gap +
            sim::Duration(span > 0 ? rng.next_range(0, span) : 0);
        // Victim index in cluster convention (-1 = master). Linear-probe to
        // the next free node when the pick is still down.
        int pick = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(candidates)));
        int victim = 1 + slave_count(); // sentinel: none free
        for (int probe = 0; probe < candidates; ++probe) {
            const int cand = (pick + probe) % candidates;
            const int node = spec.include_master ? cand - 1 : cand;
            if (down_until[static_cast<std::size_t>(node + 1)] < t) {
                victim = node;
                break;
            }
        }
        if (victim > slave_count()) continue; // everyone is down; skip
        down_until[static_cast<std::size_t>(victim + 1)] = t + spec.downtime;
        const auto mode = spec.mode;
        sim_.at(t, [this, victim]() {
            if (!node_crashed(victim)) crash_node(victim);
        });
        sim_.at(t + spec.downtime, [this, victim, mode]() {
            if (node_crashed(victim)) restart_node(victim, mode);
        });
        ++scheduled;
    }
    return scheduled;
}

bool Cluster::converged() const {
    const std::int64_t target = master_->master_offset();
    for (const auto& s : slaves_) {
        if (s->slave_applied_offset() != target) return false;
    }
    return true;
}

} // namespace skv::offload
