#include <gtest/gtest.h>

#include "server/reliable.hpp"
#include "skv/cluster.hpp"
#include "workload/session.hpp"

namespace skv::offload {
namespace {

std::unique_ptr<Cluster> make_skv(int slaves, std::uint64_t seed = 9,
                                  NicKvConfig nic_cfg = {}) {
    ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = slaves;
    cfg.offload = true;
    cfg.nic_cfg = nic_cfg;
    auto c = std::make_unique<Cluster>(cfg);
    c->start();
    return c;
}

void drive_writes(Cluster& c, int n) {
    workload::Session s(c, "driver");
    ASSERT_TRUE(s.connected());
    for (int i = 0; i < n; ++i) {
        s.send({"SET", std::string("k").append(std::to_string(i)), "v"});
    }
    c.sim().run_until(c.sim().now() + sim::milliseconds(100));
}

TEST(NicKv, NodeListPopulatedOnStart) {
    auto c = make_skv(3);
    auto* nic = c->nic_kv();
    ASSERT_NE(nic, nullptr);
    EXPECT_EQ(nic->nodes().size(), 4u); // 1 master + 3 slaves
    EXPECT_TRUE(nic->master_known());
    EXPECT_TRUE(nic->master_valid());
    EXPECT_EQ(nic->slave_count(), 3u);
    EXPECT_EQ(nic->valid_slaves(), 3);
}

TEST(NicKv, NodeListChargesOnBoardMemory) {
    auto c = make_skv(3);
    EXPECT_GT(c->smartnic()->memory_used(), 0u);
    EXPECT_LT(c->smartnic()->memory_used(), c->smartnic()->memory_capacity());
}

TEST(NicKv, ClusterBuildsTheSmartNicItIsGiven) {
    ClusterConfig cfg;
    cfg.n_slaves = 1;
    cfg.offload = true;
    cfg.nic_params.core_slowdown = 4.0;
    Cluster c(cfg);
    c.start();
    ASSERT_NE(c.smartnic(), nullptr);
    EXPECT_EQ(c.smartnic()->core_count(), 8);
    EXPECT_DOUBLE_EQ(c.smartnic()->core(7).speed_factor(), 4.0);
}

TEST(NicKv, NodeTableStopsAtOnBoardMemory) {
    // A node entry takes 512 KB of on-board DRAM. With room for two, the
    // master and one slave join and the other two slaves are turned away.
    ClusterConfig cfg;
    cfg.n_slaves = 3;
    cfg.offload = true;
    cfg.nic_params.dram_bytes = 2 * 512 * 1024;
    Cluster c(cfg);
    c.start();
    const NicKv* nic = c.nic_kv();
    ASSERT_NE(nic, nullptr);
    EXPECT_EQ(nic->nodes().size(), 2u);
    EXPECT_TRUE(nic->master_known());
    EXPECT_EQ(nic->slave_count(), 1u);
    EXPECT_EQ(c.smartnic()->memory_used(), c.smartnic()->memory_capacity());
    EXPECT_GE(c.nic_kv()->stats().counter("oom_rejects"), 2u);
}

TEST(NicKv, FanOutForwardsEveryWriteToEverySlave) {
    auto c = make_skv(3);
    drive_writes(*c, 50);
    auto& stats = c->nic_kv()->stats();
    EXPECT_EQ(stats.counter("repl_requests"), 50u);
    EXPECT_EQ(stats.counter("fanout_sends"), 150u);
    EXPECT_TRUE(c->converged());
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db()));
    }
}

TEST(NicKv, MasterPostsOneRequestPerWrite) {
    auto c = make_skv(3);
    drive_writes(*c, 50);
    // The SKV master's saving: 50 offload requests, zero per-slave sends.
    EXPECT_EQ(c->master().stats().counter("repl_offload_requests"), 50u);
    EXPECT_EQ(c->master().stats().counter("repl_sends"), 0u);
}

TEST(NicKv, ProbesFlowAndNodesStayValid) {
    auto c = make_skv(2);
    c->sim().run_until(c->sim().now() + sim::seconds(5));
    auto& stats = c->nic_kv()->stats();
    EXPECT_GE(stats.counter("probes_sent"), 12u); // ~5 rounds x 3 nodes
    EXPECT_EQ(stats.counter("failures_detected"), 0u);
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 2);
}

TEST(NicKv, DetectsSlaveFailureWithinWaitingTime) {
    auto c = make_skv(3);
    c->sim().run_until(c->sim().now() + sim::seconds(2));
    c->slave(1).crash();
    const auto t_crash = c->sim().now();
    // Detection bound: probe_interval + waiting_time + one probe cycle.
    c->sim().run_until(t_crash + sim::milliseconds(3600));
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 2);
    EXPECT_EQ(c->nic_kv()->stats().counter("failures_detected"), 1u);
    // The master learned the new availability.
    EXPECT_EQ(c->master().available_slaves(), 2);
}

TEST(NicKv, InvalidSlaveSkippedInFanOut) {
    auto c = make_skv(2);
    c->slave(0).crash();
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    const auto before = c->nic_kv()->stats().counter("fanout_sends");
    drive_writes(*c, 10);
    const auto delta =
        c->nic_kv()->stats().counter("fanout_sends") - before;
    EXPECT_EQ(delta, 10u); // one live slave only
}

TEST(NicKv, MinSlavesGatesWritesAfterFailures) {
    ClusterConfig cfg;
    cfg.n_slaves = 2;
    cfg.offload = true;
    cfg.server_tmpl.min_slaves = 2;
    Cluster c(cfg);
    c.start();

    workload::Session s(c, "w");
    s.send({"SET", "ok", "1"});
    c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    EXPECT_TRUE(s.replies().at(0).is_ok());

    c.slave(0).crash();
    c.sim().run_until(c.sim().now() + sim::seconds(4)); // detect
    s.send({"SET", "blocked", "1"});
    c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    EXPECT_TRUE(s.replies().at(1).is_error());
    EXPECT_EQ(s.replies().at(1).str.find("NOREPLICAS"), 0u);
    EXPECT_FALSE(c.master().db().exists("blocked"));
}

TEST(NicKv, MasterFailoverPromotesSlaveAndDemotesOnRecovery) {
    auto c = make_skv(2);
    c->sim().run_until(c->sim().now() + sim::seconds(2));
    c->master().crash();
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    EXPECT_FALSE(c->nic_kv()->master_valid());
    EXPECT_EQ(c->nic_kv()->stats().counter("failovers"), 1u);
    // One of the slaves was promoted.
    int masters = 0;
    for (int i = 0; i < 2; ++i) {
        if (c->slave(i).role() == server::Role::kMaster) ++masters;
    }
    EXPECT_EQ(masters, 1);

    // The original master returns: it resumes mastership, the stand-in is
    // demoted (paper §III-D).
    c->master().recover();
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    EXPECT_TRUE(c->nic_kv()->master_valid());
    masters = 0;
    for (int i = 0; i < 2; ++i) {
        if (c->slave(i).role() == server::Role::kMaster) ++masters;
    }
    EXPECT_EQ(masters, 0);
    EXPECT_EQ(c->master().role(), server::Role::kMaster);
}

TEST(NicKv, ThreadClampFollowsPaperRule) {
    NicKvConfig nic_cfg;
    nic_cfg.thread_num = 16;
    auto c = make_skv(3, 9, nic_cfg);
    // min(16 requested, 8 cores, 3 slaves) = 3.
    EXPECT_EQ(c->nic_kv()->effective_threads(), 3);

    NicKvConfig one;
    one.thread_num = 1;
    auto c1 = make_skv(3, 10, one);
    EXPECT_EQ(c1->nic_kv()->effective_threads(), 1);
}

TEST(NicKv, MultiThreadedFanOutStillConverges) {
    NicKvConfig nic_cfg;
    nic_cfg.thread_num = 4;
    auto c = make_skv(3, 11, nic_cfg);
    drive_writes(*c, 100);
    EXPECT_TRUE(c->converged());
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db()));
    }
    // Fan-out work actually spread: at least one non-zero secondary core.
    bool spread = false;
    for (int i = 1; i < c->smartnic()->core_count(); ++i) {
        if (c->smartnic()->core(i).tasks_executed() > 0) spread = true;
    }
    EXPECT_TRUE(spread);
}

TEST(NicKv, RecoveredSlaveGetsResyncedThroughNic) {
    auto c = make_skv(2);
    drive_writes(*c, 30);
    c->slave(0).crash();
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    drive_writes(*c, 30); // stream moves on while the slave is dead
    c->slave(0).recover();
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    EXPECT_EQ(c->slave(0).slave_applied_offset(), c->master().master_offset());
    EXPECT_TRUE(c->master().db().equals(c->slave(0).db()));
    EXPECT_GE(c->nic_kv()->stats().counter("slave_reregistered"), 1u);
}

// --- malformed peer identities -------------------------------------------
// Registration and sync-notify bodies carry "<name>@<endpoint>". A peer
// that sends a body whose endpoint does not parse must be counted and
// ignored; it must never abort the simulation or throw out of run_until.

/// Send one NodeMsg from a fresh host over a raw reliable node link to
/// `ep:port`, and run the cluster on for 50 ms.
void send_as_peer(Cluster& c, net::EndpointId ep, std::uint16_t port,
                  const server::NodeMsg& msg) {
    auto node = c.add_client_host("peer");
    net::ChannelPtr raw;
    c.cm().connect(node, ep, port, [&raw](net::ChannelPtr ch) {
        raw = std::move(ch);
    });
    c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    ASSERT_TRUE(raw);
    auto link = server::ReliableChannel::wrap(c.sim(), raw);
    link->send(msg.encode());
    c.sim().run_until(c.sim().now() + sim::milliseconds(50));
}

void expect_master_rejects(const std::string& body) {
    auto c = make_skv(1);
    auto& m = c->master();
    const std::uint64_t before = m.stats().counter("node_msgs_malformed");
    send_as_peer(*c, m.node().ep, static_cast<std::uint16_t>(m.config().port + 1),
                 {server::NodeMsg::Type::kSyncNotify, 0, body});
    EXPECT_EQ(m.stats().counter("node_msgs_malformed"), before + 1) << body;
    EXPECT_EQ(m.slave_count(), 1u) << body;
    // Replication carries on: a write still reaches the real slave.
    drive_writes(*c, 5);
    EXPECT_TRUE(c->converged()) << body;
}

void expect_nic_rejects(server::NodeMsg::Type type, const std::string& body) {
    auto c = make_skv(1);
    auto* nic = c->nic_kv();
    send_as_peer(*c, nic->endpoint(), nic->config().port, {type, 0, body});
    EXPECT_EQ(nic->stats().counter("malformed"), 1u) << body;
    EXPECT_EQ(nic->nodes().size(), 2u) << body;
    EXPECT_TRUE(nic->master_valid()) << body;
    drive_writes(*c, 5);
    EXPECT_TRUE(c->converged()) << body;
}

TEST(PeerIdentity, MasterIgnoresSyncNotifyWithoutEndpoint) {
    expect_master_rejects("slave9");
}

TEST(PeerIdentity, MasterIgnoresSyncNotifyWithNonNumericEndpoint) {
    expect_master_rejects("slave9@x");
}

TEST(PeerIdentity, NicIgnoresInitSyncWithNonNumericEndpoint) {
    expect_nic_rejects(server::NodeMsg::Type::kInitSync, "evil@x");
}

TEST(PeerIdentity, NicIgnoresMasterSyncWithOutOfRangeEndpoint) {
    expect_nic_rejects(server::NodeMsg::Type::kSync,
                       "master:evil@99999999999999999999999");
}

} // namespace
} // namespace skv::offload
