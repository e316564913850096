#include <gtest/gtest.h>

#include "net/tcp.hpp"

namespace skv::net {
namespace {

class TcpTest : public ::testing::Test {
protected:
    TcpTest()
        : sim(1), fabric(sim), tcp(sim, fabric, costs),
          core_a(sim, "a"), core_b(sim, "b") {
        ep_a = fabric.add_host("a");
        ep_b = fabric.add_host("b");
    }

    NodeRef a() { return {ep_a, &core_a}; }
    NodeRef b() { return {ep_b, &core_b}; }

    cpu::CostModel costs;
    sim::Simulation sim;
    Fabric fabric;
    TcpNetwork tcp;
    cpu::Core core_a;
    cpu::Core core_b;
    EndpointId ep_a = 0;
    EndpointId ep_b = 0;
};

TEST_F(TcpTest, ConnectAcceptDeliverBothWays) {
    ChannelPtr server;
    ChannelPtr client;
    tcp.listen(b(), 80, [&](ChannelPtr ch) { server = std::move(ch); });
    tcp.connect(a(), ep_b, 80, [&](ChannelPtr ch) { client = std::move(ch); });
    sim.run();
    ASSERT_TRUE(client);
    ASSERT_TRUE(server);

    std::string got_at_server;
    std::string got_at_client;
    server->set_on_message([&](std::string m) {
        got_at_server = std::move(m);
        server->send("pong");
    });
    client->set_on_message([&](std::string m) { got_at_client = std::move(m); });
    client->send("ping");
    sim.run();
    EXPECT_EQ(got_at_server, "ping");
    EXPECT_EQ(got_at_client, "pong");
}

TEST_F(TcpTest, ConnectionRefusedWithoutListener) {
    bool called = false;
    ChannelPtr client;
    tcp.connect(a(), ep_b, 81, [&](ChannelPtr ch) {
        called = true;
        client = std::move(ch);
    });
    sim.run();
    EXPECT_FALSE(called); // no SYN-ACK ever comes back
}

TEST_F(TcpTest, MessagesArriveInOrder) {
    ChannelPtr server;
    ChannelPtr client;
    tcp.listen(b(), 80, [&](ChannelPtr ch) { server = std::move(ch); });
    tcp.connect(a(), ep_b, 80, [&](ChannelPtr ch) { client = std::move(ch); });
    sim.run();
    std::vector<std::string> got;
    server->set_on_message([&](std::string m) { got.push_back(std::move(m)); });
    for (int i = 0; i < 20; ++i) {
        client->send(std::string("m").append(std::to_string(i)));
    }
    sim.run();
    ASSERT_EQ(got.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  std::string("m").append(std::to_string(i)));
    }
}

TEST_F(TcpTest, KernelCostsChargedToCores) {
    ChannelPtr server;
    ChannelPtr client;
    tcp.listen(b(), 80, [&](ChannelPtr ch) { server = std::move(ch); });
    tcp.connect(a(), ep_b, 80, [&](ChannelPtr ch) { client = std::move(ch); });
    sim.run();
    server->set_on_message([](std::string) {});
    const auto busy_a = core_a.total_busy().ns();
    const auto busy_b = core_b.total_busy().ns();
    client->send(std::string(10'000, 'x'));
    sim.run();
    // Sender pays syscall + copy; receiver pays the same on read().
    EXPECT_GT(core_a.total_busy().ns(), busy_a + 2'000);
    EXPECT_GT(core_b.total_busy().ns(), busy_b + 2'000);
}

TEST_F(TcpTest, TcpSlowerThanRawFabric) {
    ChannelPtr server;
    ChannelPtr client;
    tcp.listen(b(), 80, [&](ChannelPtr ch) { server = std::move(ch); });
    tcp.connect(a(), ep_b, 80, [&](ChannelPtr ch) { client = std::move(ch); });
    sim.run();
    sim::SimTime sent;
    sim::SimTime got;
    server->set_on_message([&](std::string) { got = sim.now(); });
    sent = sim.now();
    client->send("x");
    sim.run();
    // Kernel path: several microseconds, far above the ~0.8us raw fabric.
    EXPECT_GT((got - sent).ns(), 4'000);
}

TEST_F(TcpTest, BufferedDeliveryBeforeHandlerInstalled) {
    ChannelPtr server;
    ChannelPtr client;
    tcp.listen(b(), 80, [&](ChannelPtr ch) { server = std::move(ch); });
    tcp.connect(a(), ep_b, 80, [&](ChannelPtr ch) { client = std::move(ch); });
    sim.run();
    client->send("early");
    sim.run(); // message arrives with no handler installed
    std::string got;
    server->set_on_message([&](std::string m) { got = std::move(m); });
    EXPECT_EQ(got, "early");
}

TEST_F(TcpTest, CloseStopsTraffic) {
    ChannelPtr server;
    ChannelPtr client;
    tcp.listen(b(), 80, [&](ChannelPtr ch) { server = std::move(ch); });
    tcp.connect(a(), ep_b, 80, [&](ChannelPtr ch) { client = std::move(ch); });
    sim.run();
    int received = 0;
    server->set_on_message([&](std::string) { ++received; });
    client->close();
    EXPECT_FALSE(client->open());
    client->send("dropped");
    sim.run();
    EXPECT_EQ(received, 0);
    EXPECT_FALSE(server->open()); // FIN arrived
}

TEST_F(TcpTest, StopListening) {
    tcp.listen(b(), 80, [](ChannelPtr) { FAIL() << "should not accept"; });
    tcp.stop_listening(ep_b, 80);
    bool connected = false;
    tcp.connect(a(), ep_b, 80, [&](ChannelPtr) { connected = true; });
    sim.run();
    EXPECT_FALSE(connected);
}

} // namespace
} // namespace skv::net
