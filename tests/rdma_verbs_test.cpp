#include <gtest/gtest.h>

#include "rdma/verbs.hpp"

namespace skv::rdma {
namespace {

class VerbsTest : public ::testing::Test {
protected:
    VerbsTest()
        : sim(1), fabric(sim), net(sim, fabric, costs),
          core_a(sim, "a"), core_b(sim, "b") {
        ep_a = fabric.add_host("a");
        ep_b = fabric.add_host("b");
        cq_a = std::make_shared<CompletionQueue>();
        rq_a = std::make_shared<CompletionQueue>();
        cq_b = std::make_shared<CompletionQueue>();
        rq_b = std::make_shared<CompletionQueue>();
        qp_a = std::make_shared<QueuePair>(net, node_a(), cq_a, rq_a);
        qp_b = std::make_shared<QueuePair>(net, node_b(), cq_b, rq_b);
        qp_a->connect_to(qp_b);
        qp_b->connect_to(qp_a);
    }

    net::NodeRef node_a() { return {ep_a, &core_a}; }
    net::NodeRef node_b() { return {ep_b, &core_b}; }

    cpu::CostModel costs;
    sim::Simulation sim;
    net::Fabric fabric;
    RdmaNetwork net;
    cpu::Core core_a;
    cpu::Core core_b;
    net::EndpointId ep_a = 0;
    net::EndpointId ep_b = 0;
    CompletionQueuePtr cq_a, rq_a, cq_b, rq_b;
    QueuePairPtr qp_a, qp_b;
};

TEST_F(VerbsTest, MemoryRegionReadWrite) {
    auto mr = net.register_mr(node_b(), 1024);
    mr->write(10, "hello");
    EXPECT_EQ(mr->read(10, 5), "hello");
    EXPECT_EQ(mr->read(0, 1), std::string(1, '\0'));
    EXPECT_EQ(mr->size(), 1024u);
    EXPECT_NE(mr->rkey(), 0u);
}

TEST_F(VerbsTest, MemoryRegionWrapped) {
    auto mr = net.register_mr(node_b(), 8);
    mr->write_wrapped(6, "abcd"); // wraps: positions 6,7,0,1
    EXPECT_EQ(mr->read_wrapped(6, 4), "abcd");
    EXPECT_EQ(mr->read(0, 2), "cd");
}

TEST_F(VerbsTest, MrRegistryLookup) {
    auto mr = net.register_mr(node_b(), 64);
    EXPECT_EQ(net.lookup_mr(mr->rkey()), mr);
    EXPECT_EQ(net.lookup_mr(9999), nullptr);
}

TEST_F(VerbsTest, UnwrittenBytesReadAsZero) {
    const std::size_t size = 5 * MemoryRegion::kPageBytes;
    auto mr = net.register_mr(node_b(), size);
    EXPECT_EQ(mr->read(0, size), std::string(size, '\0'));
    EXPECT_EQ(mr->at_wrapped(size + 3), '\0');
    // A write fills only its own bytes; the rest of its page and every
    // other page still read as zero.
    mr->write(2 * MemoryRegion::kPageBytes + 10, "xy");
    std::string expect(size, '\0');
    expect.replace(2 * MemoryRegion::kPageBytes + 10, 2, "xy");
    EXPECT_EQ(mr->read(0, size), expect);
    EXPECT_EQ(mr->read_wrapped(size - 2, 4), std::string(4, '\0'));
}

TEST_F(VerbsTest, WritesAndWrappedReadsCrossPagesAndTheEnd) {
    constexpr std::size_t kPage = MemoryRegion::kPageBytes;
    // Not a whole number of pages, so the last page is short.
    const std::size_t size = 3 * kPage + 100;
    auto mr = net.register_mr(node_b(), size);
    std::string across_page;
    for (std::size_t i = 0; i < kPage + 40; ++i) {
        across_page.push_back(static_cast<char>('a' + i % 26));
    }
    mr->write(kPage - 20, across_page); // spans pages 0, 1 and 2
    EXPECT_EQ(mr->read(kPage - 20, across_page.size()), across_page);
    EXPECT_EQ(mr->read_wrapped(kPage - 20 + size, across_page.size()), across_page);

    const std::string across_end = "0123456789ABCDEFGHIJ";
    mr->write_wrapped(size - 7, across_end); // 7 bytes at the end, 13 at 0
    EXPECT_EQ(mr->read_wrapped(size - 7, across_end.size()), across_end);
    EXPECT_EQ(mr->read(size - 7, 7), "0123456");
    EXPECT_EQ(mr->read(0, 13), "789ABCDEFGHIJ");
    EXPECT_EQ(mr->at_wrapped(size - 1), '6');
    EXPECT_EQ(mr->at_wrapped(size), '7');
    std::string out = "prefix:";
    mr->append_wrapped(size - 3, 6, out);
    EXPECT_EQ(out, "prefix:456789");
}

TEST_F(VerbsTest, LookupIsNullForDeregisteredDestroyedAndUnissuedRkeys) {
    auto kept = net.register_mr(node_b(), 64);
    auto dereg = net.register_mr(node_b(), 64);
    auto dropped = net.register_mr(node_b(), 64);
    const std::uint32_t dropped_rkey = dropped->rkey();
    net.deregister_mr(dereg->rkey());
    dropped.reset(); // registration does not keep an MR alive
    EXPECT_EQ(net.lookup_mr(dereg->rkey()), nullptr);
    EXPECT_EQ(net.lookup_mr(dropped_rkey), nullptr);
    EXPECT_EQ(net.lookup_mr(0), nullptr);
    EXPECT_EQ(net.lookup_mr(dropped_rkey + 1), nullptr); // not issued yet
    EXPECT_EQ(net.lookup_mr(kept->rkey()), kept);
    // rkeys are never reused.
    auto next = net.register_mr(node_b(), 64);
    EXPECT_GT(next->rkey(), dropped_rkey);
    EXPECT_EQ(net.lookup_mr(dropped_rkey), nullptr);
    EXPECT_EQ(net.lookup_mr(next->rkey()), next);
}

TEST_F(VerbsTest, WriteWithImmToDeregisteredMrIsDroppedAndCounted) {
    auto mr = net.register_mr(node_b(), 256);
    qp_b->post_recv(1, mr, 0, 0);
    net.deregister_mr(mr->rkey());
    SendWr wr;
    wr.op = Opcode::kWriteWithImm;
    wr.payload = "late";
    wr.rkey = mr->rkey();
    wr.has_imm = true;
    wr.imm = 4;
    wr.signaled = false;
    qp_a->post_send(std::move(wr));
    sim.run();
    EXPECT_EQ(net.writes_unknown_mr(), 1u);
    EXPECT_EQ(rq_b->depth(), 0u);   // no completion
    EXPECT_EQ(qp_b->posted_recvs(), 1u); // the receive was not consumed
    EXPECT_EQ(mr->read(0, 4), std::string(4, '\0'));
}

TEST_F(VerbsTest, WriteLandsInRemoteMemoryNoRemoteCompletion) {
    auto mr = net.register_mr(node_b(), 256);
    SendWr wr;
    wr.wr_id = 7;
    wr.op = Opcode::kWrite;
    wr.payload = "data!";
    wr.rkey = mr->rkey();
    wr.remote_offset = 100;
    qp_a->post_send(std::move(wr));
    sim.run();
    EXPECT_EQ(mr->read(100, 5), "data!");
    EXPECT_EQ(rq_b->depth(), 0u); // plain WRITE: remote CPU sees nothing
    // Sender got its ack-driven completion.
    const auto comps = cq_a->poll();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].wr_id, 7u);
    EXPECT_TRUE(comps[0].success);
}

TEST_F(VerbsTest, WriteWithImmConsumesRecv) {
    auto mr = net.register_mr(node_b(), 256);
    qp_b->post_recv(1, mr, 0, 0);
    SendWr wr;
    wr.op = Opcode::kWriteWithImm;
    wr.payload = "xyz";
    wr.rkey = mr->rkey();
    wr.remote_offset = 0;
    wr.has_imm = true;
    wr.imm = 3;
    qp_a->post_send(std::move(wr));
    sim.run();
    const auto comps = rq_b->poll();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].op, Opcode::kRecv);
    EXPECT_TRUE(comps[0].has_imm);
    EXPECT_EQ(comps[0].imm, 3u);
    EXPECT_EQ(mr->read(0, 3), "xyz");
}

TEST_F(VerbsTest, SendRecvCarriesPayload) {
    auto mr = net.register_mr(node_b(), 64);
    qp_b->post_recv(42, mr, 8, 16);
    SendWr wr;
    wr.op = Opcode::kSend;
    wr.payload = "control";
    qp_a->post_send(std::move(wr));
    sim.run();
    const auto comps = rq_b->poll();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].wr_id, 42u);
    EXPECT_EQ(comps[0].inline_payload, "control");
    EXPECT_EQ(comps[0].byte_len, 7u);
    EXPECT_EQ(mr->read(8, 7), "control"); // landed in the posted buffer
}

TEST_F(VerbsTest, RnrHoldsUntilRecvPosted) {
    auto mr = net.register_mr(node_b(), 64);
    SendWr wr;
    wr.op = Opcode::kSend;
    wr.payload = "early";
    qp_a->post_send(std::move(wr));
    sim.run();
    EXPECT_EQ(rq_b->depth(), 0u); // nothing delivered: no recv posted
    qp_b->post_recv(1, mr, 0, 32);
    sim.run();
    const auto comps = rq_b->poll();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].inline_payload, "early");
}

TEST_F(VerbsTest, UnsignaledWriteNoSenderCompletion) {
    auto mr = net.register_mr(node_b(), 64);
    SendWr wr;
    wr.op = Opcode::kWrite;
    wr.payload = "q";
    wr.rkey = mr->rkey();
    wr.signaled = false;
    qp_a->post_send(std::move(wr));
    sim.run();
    EXPECT_EQ(cq_a->poll().size(), 0u);
    EXPECT_EQ(mr->read(0, 1), "q");
}

TEST_F(VerbsTest, DisconnectedQpFailsCompletion) {
    qp_a->disconnect();
    SendWr wr;
    wr.wr_id = 5;
    wr.op = Opcode::kSend;
    wr.payload = "x";
    qp_b->post_send(std::move(wr)); // b's peer (a) is still set
    qp_b->disconnect();
    SendWr wr2;
    wr2.wr_id = 6;
    wr2.op = Opcode::kSend;
    wr2.payload = "y";
    qp_b->post_send(std::move(wr2));
    sim.run();
    bool saw_failure = false;
    for (const auto& c : cq_b->poll()) {
        if (!c.success && c.wr_id == 6) saw_failure = true;
    }
    EXPECT_TRUE(saw_failure);
}

TEST_F(VerbsTest, SeveredFabricSilentlyLosesWr) {
    fabric.sever(ep_b);
    auto mr = net.register_mr(node_b(), 64);
    SendWr wr;
    wr.wr_id = 9;
    wr.op = Opcode::kWrite;
    wr.payload = "lost";
    wr.rkey = mr->rkey();
    qp_a->post_send(std::move(wr));
    sim.run();
    EXPECT_EQ(cq_a->poll().size(), 0u); // no completion, no error: hangs
    EXPECT_EQ(mr->read(0, 4), std::string(4, '\0'));
}

TEST_F(VerbsTest, CompletionChannelFiresOncePerArm) {
    auto chan_ptr = std::make_shared<CompletionChannel>(sim);
    CompletionChannel& chan = *chan_ptr;
    CompletionQueue cq(chan_ptr);
    int events = 0;
    chan.set_on_event([&] { ++events; });
    chan.req_notify();
    cq.push(Completion{});
    cq.push(Completion{}); // second push: channel already disarmed
    sim.run();
    EXPECT_EQ(events, 1);
    EXPECT_EQ(cq.depth(), 2u);
    chan.req_notify();
    cq.push(Completion{});
    sim.run();
    EXPECT_EQ(events, 2);
}

TEST_F(VerbsTest, PostCostsChargeSenderCore) {
    auto mr = net.register_mr(node_b(), 64);
    const auto busy0 = core_a.total_busy().ns();
    for (int i = 0; i < 100; ++i) {
        SendWr wr;
        wr.op = Opcode::kWrite;
        wr.payload = "z";
        wr.rkey = mr->rkey();
        wr.signaled = false;
        qp_a->post_send(std::move(wr));
    }
    sim.run();
    // ~100 x wr_post (200ns nominal + jitter + occasional stall).
    EXPECT_GT(core_a.total_busy().ns(), busy0 + 15'000);
}

TEST_F(VerbsTest, WrOrderPreservedThroughCore) {
    auto mr = net.register_mr(node_b(), 1024);
    for (int i = 0; i < 10; ++i) {
        SendWr wr;
        wr.op = Opcode::kWrite;
        wr.payload = std::string(1, static_cast<char>('0' + i));
        wr.rkey = mr->rkey();
        wr.remote_offset = static_cast<std::size_t>(i);
        wr.signaled = false;
        qp_a->post_send(std::move(wr));
    }
    sim.run();
    EXPECT_EQ(mr->read(0, 10), "0123456789");
}

} // namespace
} // namespace skv::rdma
