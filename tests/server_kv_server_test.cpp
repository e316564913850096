#include <gtest/gtest.h>

#include "kv/resp.hpp"
#include "net/tcp.hpp"
#include "rdma/cm.hpp"
#include "server/kv_server.hpp"
#include "workload/session.hpp"

namespace skv::server {
namespace {

using offload::Transport;

class ServerTest : public ::testing::TestWithParam<Transport> {
protected:
    ServerTest()
        : sim(1), fabric(sim), tcp(sim, fabric, costs),
          rdma(sim, fabric, costs), cm(rdma), server_core(sim, "srv"),
          client_core(sim, "cli") {
        server_ep = fabric.add_host("server");
        client_ep = fabric.add_host("client");
        ServerConfig cfg;
        cfg.name = "test-server";
        server = std::make_unique<KvServer>(
            sim, costs, transport(), net::NodeRef{server_ep, &server_core}, cfg);
        server->start();
    }

    net::Transport& transport() {
        if (GetParam() == Transport::kTcp) return tcp;
        return cm;
    }

    workload::Session connect() {
        return {sim, transport(), {client_ep, &client_core}, server_ep, 6379};
    }

    void settle() { sim.run_until(sim.now() + sim::milliseconds(10)); }

    cpu::CostModel costs;
    sim::Simulation sim;
    net::Fabric fabric;
    net::TcpNetwork tcp;
    rdma::RdmaNetwork rdma;
    rdma::ConnectionManager cm;
    cpu::Core server_core;
    cpu::Core client_core;
    net::EndpointId server_ep = 0;
    net::EndpointId client_ep = 0;
    std::unique_ptr<KvServer> server;
};

TEST_P(ServerTest, SetGetRoundTrip) {
    auto c = connect();
    ASSERT_TRUE(c.connected());
    c.send({"SET", "k", "v"});
    c.send({"GET", "k"});
    settle();
    ASSERT_EQ(c.replies().size(), 2u);
    EXPECT_TRUE(c.replies()[0].is_ok());
    EXPECT_EQ(c.replies()[1].str, "v");
    EXPECT_EQ(server->db().lookup("k")->string_value(), "v");
}

TEST_P(ServerTest, PipelinedCommandsInOneMessage) {
    auto c = connect();
    c.send_raw(kv::resp::command({"SET", "a", "1"}) +
               kv::resp::command({"INCR", "a"}) +
               kv::resp::command({"GET", "a"}));
    settle();
    ASSERT_EQ(c.replies().size(), 3u);
    EXPECT_TRUE(c.replies()[0].is_ok());
    EXPECT_EQ(c.replies()[1].num, 2);
    EXPECT_EQ(c.replies()[2].str, "2");
}

TEST_P(ServerTest, UnknownCommandGetsError) {
    auto c = connect();
    c.send({"NOSUCH", "x"});
    settle();
    ASSERT_EQ(c.replies().size(), 1u);
    EXPECT_TRUE(c.replies()[0].is_error());
}

TEST_P(ServerTest, MultipleClientsIsolatedParsers) {
    auto c1 = connect();
    auto c2 = connect();
    c1.send({"SET", "from1", "a"});
    c2.send({"SET", "from2", "b"});
    c1.send({"GET", "from2"});
    settle();
    ASSERT_EQ(c1.replies().size(), 2u);
    EXPECT_EQ(c1.replies()[1].str, "b"); // shared keyspace, separate parsers
}

TEST_P(ServerTest, ProtocolErrorClosesConnection) {
    auto c = connect();
    c.send_raw("*zzz\r\n");
    settle();
    ASSERT_GE(c.replies().size(), 1u);
    EXPECT_TRUE(c.replies()[0].is_error());
    EXPECT_EQ(server->stats().counter("protocol_errors"), 1u);
    // Further commands are ignored: the server closed the channel.
    const auto replies_before = c.replies().size();
    c.send({"PING"});
    settle();
    EXPECT_EQ(c.replies().size(), replies_before);
}

TEST_P(ServerTest, ExpiryIntegratedWithSimClock) {
    auto c = connect();
    c.send({"SET", "k", "v", "PX", "50"});
    settle(); // ~10ms: still alive
    c.send({"GET", "k"});
    settle();
    sim.run_until(sim.now() + sim::milliseconds(60));
    c.send({"GET", "k"});
    settle();
    ASSERT_EQ(c.replies().size(), 3u);
    EXPECT_EQ(c.replies()[1].str, "v");
    EXPECT_EQ(c.replies()[2].kind, kv::resp::Value::Kind::kNull);
}

TEST_P(ServerTest, ActiveExpireEvictsWithoutAccess) {
    auto c = connect();
    for (int i = 0; i < 20; ++i) {
        c.send({"SET", "gone" + std::to_string(i), "v", "PX", "30"});
    }
    settle();
    // Far past the TTL: cron's active cycle should collect them unaided.
    sim.run_until(sim.now() + sim::seconds(2));
    EXPECT_EQ(server->db().size(), 0u);
    EXPECT_GT(server->stats().counter("expired_keys"), 0u);
}

TEST_P(ServerTest, CommandsProcessedCounter) {
    auto c = connect();
    c.send({"PING"});
    c.send({"PING"});
    settle();
    EXPECT_EQ(server->commands_processed(), 2u);
    EXPECT_EQ(server->stats().counter("reads"), 2u);
}

TEST_P(ServerTest, CrashedServerStopsResponding) {
    auto c = connect();
    c.send({"PING"});
    settle();
    ASSERT_EQ(c.replies().size(), 1u);
    server->crash();
    c.send({"PING"});
    settle();
    EXPECT_EQ(c.replies().size(), 1u);
    EXPECT_TRUE(server->crashed());
}

TEST_P(ServerTest, InfoCommandReportsSections) {
    auto c = connect();
    c.send({"INFO"});
    settle();
    ASSERT_EQ(c.replies().size(), 1u);
    ASSERT_EQ(c.replies()[0].kind, kv::resp::Value::Kind::kBulk);
    const std::string& body = c.replies()[0].str;
    EXPECT_NE(body.find("# Replication"), std::string::npos);
    EXPECT_NE(body.find("role:standalone"), std::string::npos);
    EXPECT_NE(body.find("server_name:test-server"), std::string::npos);
    EXPECT_NE(body.find("connected_clients:1"), std::string::npos);
    EXPECT_NE(body.find("db0:keys=0"), std::string::npos);
}

TEST_P(ServerTest, InfoTracksKeyspaceAndOffsets) {
    auto c = connect();
    c.send({"SET", "k", "v"});
    c.send({"INFO"});
    settle();
    ASSERT_EQ(c.replies().size(), 2u);
    const std::string& body = c.replies()[1].str;
    EXPECT_NE(body.find("db0:keys=1"), std::string::npos);
    EXPECT_NE(body.find("total_commands_processed:2"), std::string::npos);
}

TEST_P(ServerTest, InfoMentionsRole) {
    EXPECT_NE(server->info().find("standalone"), std::string::npos);
    EXPECT_NE(server->info().find("test-server"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Transports, ServerTest,
                         ::testing::Values(Transport::kTcp, Transport::kRdma),
                         [](const auto& info) {
                             return info.param == Transport::kTcp ? "Tcp"
                                                                  : "Rdma";
                         });

} // namespace
} // namespace skv::server
