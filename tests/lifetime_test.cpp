#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kv/resp.hpp"
#include "net/channel.hpp"
#include "rdma/verbs.hpp"
#include "skv/cluster.hpp"

namespace skv::offload {
namespace {

// Lifetime regression suite: connection object graphs must be reclaimed
// *while the simulation is still running*, at the moment their link dies —
// not at process exit when the Cluster is torn down. Before the weak-capture
// refactor the conn->channel->handler->conn shared_ptr cycle kept every
// connection ever made alive forever; these tests pin the fix with the
// live-object counters on Channel, QueuePair and MemoryRegion.

ClusterConfig base_config(System sys, int slaves) {
    ClusterConfig cfg = config_of(sys);
    cfg.seed = 0x11fe;
    cfg.n_slaves = slaves;
    return cfg;
}

void settle(Cluster& c, sim::Duration d) {
    c.sim().run_until(c.sim().now() + d);
}

// A closed TCP client connection must be fully reclaimed on both sides:
// the server's ClientConn record (pruned by cron once the FIN lands) and
// the channel objects themselves, mid-simulation.
TEST(LifetimeTest, TcpClientCloseReclaimsBothSides) {
    Cluster c(base_config(System::kTcpRedis, 1));
    c.start();

    const long channels_before = net::Channel::live_count();
    const std::size_t conns_before = c.master().client_conns();

    auto node = c.add_client_host("probe");
    net::ChannelPtr ch;
    c.transport().connect(node, c.master().node().ep, c.master().config().port,
                          [&](net::ChannelPtr got) { ch = std::move(got); });
    settle(c, sim::milliseconds(50));
    ASSERT_NE(ch, nullptr);
    EXPECT_GT(net::Channel::live_count(), channels_before);
    EXPECT_EQ(c.master().client_conns(), conns_before + 1);

    // Exercise the link so a handler has actually been stored and invoked.
    std::string reply;
    ch->set_on_message([&](std::string payload) { reply = std::move(payload); });
    ch->send(kv::resp::command({"SET", "k", "v"}));
    settle(c, sim::milliseconds(50));
    EXPECT_FALSE(reply.empty());

    ch->close();
    ch.reset();
    settle(c, sim::milliseconds(500)); // FIN + cron prune

    EXPECT_GT(c.sim().events_pending(), 0u); // still mid-simulation
    EXPECT_EQ(c.master().client_conns(), conns_before);
    EXPECT_EQ(net::Channel::live_count(), channels_before);
}

// Crashing a slave in the offloaded cluster must release RDMA state on
// every peer while the cluster keeps running: the slave drops its rings at
// crash time, Nic-KV closes its fan-out channel when the failure detector
// declares death, and the master's direct sync channel breaks via RTO.
TEST(LifetimeTest, OffloadSlaveCrashReleasesRdmaState) {
    Cluster c(base_config(System::kSkv, 3));
    c.start();
    ASSERT_TRUE(c.converged());

    const long channels_before = net::Channel::live_count();
    const long qps_before = rdma::QueuePair::live_count();
    const long mrs_before = rdma::MemoryRegion::live_count();

    c.slave(0).crash();
    settle(c, sim::seconds(5)); // probes time out, links break, teardown runs

    EXPECT_GT(c.sim().events_pending(), 0u); // still mid-simulation
    EXPECT_LT(net::Channel::live_count(), channels_before);
    EXPECT_LT(rdma::QueuePair::live_count(), qps_before);
    EXPECT_LT(rdma::MemoryRegion::live_count(), mrs_before);

    // The surviving replicas still make progress.
    const auto offset_before = c.master().master_offset();
    auto node = c.add_client_host("writer");
    net::ChannelPtr ch;
    c.transport().connect(node, c.master().node().ep, c.master().config().port,
                          [&](net::ChannelPtr got) { ch = std::move(got); });
    settle(c, sim::milliseconds(50));
    ASSERT_NE(ch, nullptr);
    ch->send(kv::resp::command({"SET", "after-crash", "1"}));
    settle(c, sim::milliseconds(200));
    EXPECT_GT(c.master().master_offset(), offset_before);
}

// Re-pointing a baseline slave at its master over and over must not
// accumulate connection state: each slaveof_baseline releases the previous
// master link (slave side) and the superseded sync channel (master side).
TEST(LifetimeTest, RepeatedSlaveofDoesNotAccumulateChannels) {
    Cluster c(base_config(System::kRdmaRedis, 1));
    c.start();
    ASSERT_TRUE(c.converged());

    const auto master_ep = c.master().node().ep;
    const auto node_port =
        static_cast<std::uint16_t>(c.master().config().port + 1);

    c.slave(0).slaveof_baseline(master_ep, node_port);
    settle(c, sim::seconds(2));
    const long channels_after_first = net::Channel::live_count();
    const long qps_after_first = rdma::QueuePair::live_count();

    for (int i = 0; i < 5; ++i) {
        c.slave(0).slaveof_baseline(master_ep, node_port);
        settle(c, sim::seconds(2));
    }

    // Pre-fix this grew by >= 2 channels per re-point (both sides leaked).
    EXPECT_LE(net::Channel::live_count(), channels_after_first + 2);
    EXPECT_LE(rdma::QueuePair::live_count(), qps_after_first + 2);
    EXPECT_TRUE(c.converged());
}

// A rejected connection attempt (nobody listening on the port) must tear
// down the initiator's pre-allocated ring: CQs, QP-less channel, and the
// receive MR that was registered for the handshake.
TEST(LifetimeTest, ConnectionRejectReclaimsInitiatorRing) {
    Cluster c(base_config(System::kRdmaRedis, 1));
    c.start();

    const long channels_before = net::Channel::live_count();
    const long mrs_before = rdma::MemoryRegion::live_count();

    auto node = c.add_client_host("dialer");
    bool called = false;
    net::ChannelPtr got;
    c.cm().connect(node, c.master().node().ep, /*port=*/59999,
                   [&](net::ChannelPtr ch) {
                       called = true;
                       got = std::move(ch);
                   });
    settle(c, sim::milliseconds(100));

    EXPECT_TRUE(called);
    EXPECT_EQ(got, nullptr);
    EXPECT_EQ(net::Channel::live_count(), channels_before);
    EXPECT_EQ(rdma::MemoryRegion::live_count(), mrs_before);
}

} // namespace
} // namespace skv::offload
