#include <gtest/gtest.h>

#include "rdma/cm.hpp"
#include "rdma/ring_channel.hpp"

namespace skv::rdma {
namespace {

class RingTest : public ::testing::Test {
protected:
    RingTest()
        : sim(1), fabric(sim), net(sim, fabric, costs),
          core_a(sim, "a"), core_b(sim, "b") {
        ep_a = fabric.add_host("a");
        ep_b = fabric.add_host("b");
    }

    /// CM-establish a channel pair. The handshake completes inside
    /// sim.run(), so the CM may go out of scope.
    void connect() {
        ConnectionManager cm(net);
        cm.listen({ep_b, &core_b}, 7000, [&](net::ChannelPtr ch) {
            server = std::dynamic_pointer_cast<RingChannel>(std::move(ch));
        });
        cm.connect({ep_a, &core_a}, ep_b, 7000, [&](net::ChannelPtr ch) {
            client = std::dynamic_pointer_cast<RingChannel>(std::move(ch));
        });
        sim.run();
        ASSERT_TRUE(client);
        ASSERT_TRUE(server);
    }

    cpu::CostModel costs;
    sim::Simulation sim;
    net::Fabric fabric;
    RdmaNetwork net;
    cpu::Core core_a;
    cpu::Core core_b;
    net::EndpointId ep_a = 0;
    net::EndpointId ep_b = 0;
    RingChannelPtr client;
    RingChannelPtr server;
};

TEST_F(RingTest, ConnectRejectedWithoutListener) {
    ConnectionManager cm(net);
    bool called = false;
    net::ChannelPtr ch;
    cm.connect({ep_a, &core_a}, ep_b, 7777, [&](net::ChannelPtr c) {
        called = true;
        ch = std::move(c);
    });
    sim.run();
    EXPECT_TRUE(called);
    EXPECT_EQ(ch, nullptr);
}

TEST_F(RingTest, RoundTripMessages) {
    connect();
    std::string at_server;
    std::string at_client;
    server->set_on_message([&](std::string m) {
        at_server = std::move(m);
        server->send("reply:" + at_server);
    });
    client->set_on_message([&](std::string m) { at_client = std::move(m); });
    client->send("hello");
    sim.run();
    EXPECT_EQ(at_server, "hello");
    EXPECT_EQ(at_client, "reply:hello");
}

TEST_F(RingTest, OrderedDelivery) {
    connect();
    std::vector<std::string> got;
    server->set_on_message([&](std::string m) { got.push_back(std::move(m)); });
    for (int i = 0; i < 100; ++i) client->send("msg" + std::to_string(i));
    sim.run();
    ASSERT_EQ(got.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], "msg" + std::to_string(i));
    }
}

TEST_F(RingTest, BinaryPayloadsSurvive) {
    connect();
    std::string got;
    server->set_on_message([&](std::string m) { got = std::move(m); });
    std::string payload;
    for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
    client->send(payload);
    sim.run();
    EXPECT_EQ(got, payload);
}

TEST_F(RingTest, CreditFlowControlUnderPressure) {
    connect();
    int received = 0;
    server->set_on_message([&](std::string) { ++received; });
    // Three rings' worth of 101-byte frames (flag + 100): the sender must
    // stall on a full ring and resume on credits.
    const int n = static_cast<int>(3 * RingChannel::kRingBytes / 101);
    for (int i = 0; i < n; ++i) client->send(std::string(100, 'x'));
    EXPECT_GT(client->backlog_bytes(), 0u); // the ring filled
    sim.run();
    EXPECT_EQ(received, n);
    // One credit per kCreditThreshold bytes consumed.
    EXPECT_GE(server->credit_messages(),
              3 * RingChannel::kRingBytes / RingChannel::kCreditThreshold - 1);
    EXPECT_EQ(client->backlog_bytes(), 0u);
}

TEST_F(RingTest, LargeMessageFragmentsAndReassembles) {
    connect();
    std::string got;
    server->set_on_message([&](std::string m) { got = std::move(m); });
    std::string big(4 * RingChannel::kRingBytes - 1000, '?');
    for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<char>('a' + i % 26);
    }
    client->send(big);
    sim.run();
    EXPECT_EQ(got, big); // reassembled exactly from almost four rings' worth
    // Fragments are at most a quarter ring each.
    EXPECT_EQ(client->frames_sent(), 16u);
}

TEST_F(RingTest, MessageStraddlingTheWrapPointArrivesIntact) {
    // 901-byte frames (flag + 900) put the 291st frame across the ring's
    // end, and the second lap straddles it elsewhere.
    static_assert(290 * 901 < RingChannel::kRingBytes &&
                  291 * 901 > RingChannel::kRingBytes);
    connect();
    std::vector<std::string> got;
    server->set_on_message([&](std::string m) { got.push_back(std::move(m)); });
    sim::Rng rng(11);
    std::vector<std::string> sent;
    for (int i = 0; i < 600; ++i) {
        std::string m(900, '\0');
        for (auto& c : m) c = static_cast<char>(rng.next_u64());
        sent.push_back(m);
        client->send(m);
    }
    sim.run();
    EXPECT_EQ(got, sent);
    EXPECT_EQ(server->frames_received(), 600u);
    EXPECT_EQ(server->lost_gap_bytes(), 0u);
}

TEST_F(RingTest, InterleavedLargeAndSmall) {
    connect();
    std::vector<std::size_t> sizes;
    server->set_on_message([&](std::string m) { sizes.push_back(m.size()); });
    client->send(std::string(300'000, 'A'));
    client->send("tiny");
    client->send(std::string(100'000, 'B'));
    sim.run();
    ASSERT_EQ(sizes.size(), 3u);
    EXPECT_EQ(sizes[0], 300'000u);
    EXPECT_EQ(sizes[1], 4u);
    EXPECT_EQ(sizes[2], 100'000u);
}

TEST_F(RingTest, MrReregistrationAfterRingFills) {
    connect();
    int received = 0;
    server->set_on_message([&](std::string) { ++received; });
    // Stall the receiver so the sender fills the entire ring, then let the
    // receiver drain it all in one CQ batch: the full-drain condition. The
    // frames are large enough that one batch of posted receives covers a
    // ring.
    core_b.consume(sim::milliseconds(1));
    for (int i = 0; i < 200; ++i) client->send(std::string(4000, 'r'));
    sim.run();
    EXPECT_EQ(received, 200);
    EXPECT_GT(server->mr_reregistrations(), 0u);
}

TEST_F(RingTest, CloseStopsDelivery) {
    connect();
    int received = 0;
    server->set_on_message([&](std::string) { ++received; });
    client->send("one");
    sim.run();
    server->close();
    client->send("two");
    sim.run();
    EXPECT_EQ(received, 1);
    EXPECT_FALSE(server->open());
}

TEST_F(RingTest, PendingBufferedBeforeHandler) {
    connect();
    client->send("early");
    sim.run();
    std::string got;
    server->set_on_message([&](std::string m) { got = std::move(m); });
    EXPECT_EQ(got, "early");
}

TEST_F(RingTest, StatsCountFrames) {
    connect();
    server->set_on_message([](std::string) {});
    for (int i = 0; i < 10; ++i) client->send("x");
    sim.run();
    EXPECT_EQ(client->frames_sent(), 10u);
    EXPECT_EQ(server->frames_received(), 10u);
}

TEST_F(RingTest, HaltedReceiverStallsChannel) {
    connect();
    int received = 0;
    server->set_on_message([&](std::string) { ++received; });
    core_b.halt();
    client->send("while-down");
    sim.run();
    EXPECT_EQ(received, 0); // the crashed host consumed nothing
}

} // namespace
} // namespace skv::rdma
