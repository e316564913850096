#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "kv/resp.hpp"
#include "skv/cluster.hpp"

namespace skv {
namespace {

/// The determinism auditor's tier-1 contract: the rolling FNV-1a digest over
/// the event trace (event type, sim time, endpoints) must be bit-identical
/// across two runs of the same seeded scenario. If this test ever fails, a
/// non-deterministic input (wall clock, raw RNG, unordered iteration,
/// address-dependent ordering) has leaked into a sim-visible path — bisect
/// with the digest the chaos suite prints on failure.

/// Run a replicated SET/GET workload against an SKV cluster (1 master,
/// 2 slaves, NIC-offloaded fan-out) and return the audit state.
std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> run_set_get(
    std::uint64_t seed, int ops) {
    offload::ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = 2;
    cfg.offload = true;
    offload::Cluster c(cfg);
    c.start();

    auto node = c.add_client_host("audit-client");
    net::ChannelPtr ch;
    c.connect_client(node, [&ch](net::ChannelPtr got) { ch = std::move(got); });
    c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    EXPECT_TRUE(ch) << "client connect failed";
    if (!ch) return {0, 0, 0};

    // Closed loop: alternate SET k v / GET k, next command on reply.
    int sent = 0;
    int replies = 0;
    ch->set_on_message([&](std::string reply) {
        EXPECT_FALSE(reply.empty());
        ++replies;
        if (sent >= ops) return;
        const std::string key = std::string("k").append(std::to_string(sent / 2));
        ch->send(sent % 2 == 0 ? kv::resp::command({"SET", key, "v"})
                               : kv::resp::command({"GET", key}));
        ++sent;
    });
    ch->send(kv::resp::command({"SET", "k0", "v"}));
    ++sent;
    const auto deadline = c.sim().now() + sim::seconds(10);
    while (replies < sent && c.sim().now() < deadline) {
        if (c.sim().run_until(c.sim().now() + sim::milliseconds(20)) == 0 &&
            c.sim().events_pending() == 0) {
            break;
        }
    }
    EXPECT_EQ(replies, ops) << "workload did not complete";
    // Drain replication fan-out so slave-side events are audited too.
    c.sim().run_until(c.sim().now() + sim::milliseconds(200));
    EXPECT_TRUE(c.converged());
    return {c.sim().trace_digest(), c.sim().trace().total_noted(),
            c.sim().events_executed()};
}

TEST(TraceAudit, DoubleRunSameSeedIdenticalDigests) {
    const auto a = run_set_get(0xd1ce'5eedULL, 200);
    const auto b = run_set_get(0xd1ce'5eedULL, 200);
    EXPECT_EQ(std::get<0>(a), std::get<0>(b)) << "trace digests diverged";
    EXPECT_EQ(std::get<1>(a), std::get<1>(b)) << "audited event counts diverged";
    EXPECT_EQ(std::get<2>(a), std::get<2>(b)) << "executed event counts diverged";
}

TEST(TraceAudit, AuditActuallyObservesTraffic) {
    const auto [digest, noted, executed] = run_set_get(77, 50);
    // A replicated SET/GET run crosses the fabric constantly; an audit that
    // saw nothing means the hooks fell off.
    EXPECT_GT(noted, 100u);
    EXPECT_GT(executed, noted);
    EXPECT_NE(digest, 0xcbf29ce484222325ULL) << "digest still at FNV basis";
}

TEST(TraceAudit, DifferentSeedsDiverge) {
    // Different seeds jitter different costs: the event streams, and so the
    // digests, must differ.
    EXPECT_NE(std::get<0>(run_set_get(1, 100)), std::get<0>(run_set_get(2, 100)));
}

TEST(TraceAudit, FaultsFoldIntoDigest) {
    // Sever/restore and in-flight kills are part of the audited stream.
    offload::ClusterConfig cfg;
    cfg.seed = 42;
    cfg.n_slaves = 2;
    cfg.offload = true;
    auto run = [&cfg] {
        offload::Cluster c(cfg);
        c.start();
        c.sim().run_until(c.sim().now() + sim::milliseconds(50));
        c.slave(0).crash();
        c.sim().run_until(c.sim().now() + sim::seconds(2));
        c.slave(0).recover();
        c.sim().run_until(c.sim().now() + sim::seconds(3));
        return c.sim().trace_digest();
    };
    EXPECT_EQ(run(), run());
}

TEST(TraceAudit, TeardownEventsFoldIntoDigest) {
    // Channel teardown is part of the audited stream: kChannelClose and
    // kHandlerClear notes fire when links are severed and reconnected, so
    // two identical sever/reconnect runs must agree bit-for-bit, and a run
    // with the sever must diverge from one without it even though both end
    // converged on the same data.
    auto run = [](bool sever) {
        offload::ClusterConfig cfg;
        cfg.seed = 0x7e32'd0c5ULL;
        cfg.n_slaves = 2;
        cfg.offload = true;
        offload::Cluster c(cfg);
        c.start();
        c.sim().run_until(c.sim().now() + sim::milliseconds(50));
        if (sever) {
            c.slave(1).crash();
            c.sim().run_until(c.sim().now() + sim::seconds(2));
            c.slave(1).recover();
        }
        c.sim().run_until(c.sim().now() + sim::seconds(4));
        EXPECT_TRUE(c.converged());
        return c.sim().trace_digest();
    };
    const auto severed_a = run(true);
    const auto severed_b = run(true);
    const auto clean = run(false);
    EXPECT_EQ(severed_a, severed_b)
        << "teardown/reconnect event stream is non-deterministic";
    EXPECT_NE(severed_a, clean)
        << "teardown events are not reaching the digest";
}

} // namespace
} // namespace skv
