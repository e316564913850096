#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "chaos_support.hpp"
#include "kv/resp.hpp"
#include "obs/export.hpp"
#include "skv/cluster.hpp"

namespace skv {
namespace {

/// Observability determinism contract (DESIGN.md §11): the tracer only
/// observes. Same-seed double runs must produce byte-identical chrome-trace
/// JSON and INFO replies, and flipping the tracer on must not move the
/// sim::Trace determinism digest by a single bit.

struct ObsRun {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::string chrome_json;
    std::string info_reply;
    std::string master_stats;
    std::uint64_t spans = 0;
};

/// Replicated SET/GET workload plus a crash/recover failover against an SKV
/// cluster; collects every deterministic export the subsystem offers.
ObsRun run_scenario(std::uint64_t seed, bool tracing, int ops) {
    offload::ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = 2;
    cfg.offload = true;
    offload::Cluster c(cfg);
    c.tracer().set_enabled(tracing);
    c.start();

    auto node = c.add_client_host("obs-client");
    net::ChannelPtr ch;
    c.connect_client(node, [&ch](net::ChannelPtr got) { ch = std::move(got); });
    c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    EXPECT_TRUE(ch) << "client connect failed";
    ObsRun out;
    if (!ch) return out;

    // Stamp the request flow by hand (what BenchClient does internally), so
    // the critical-path stages are exercised without the workload runner.
    const std::uint32_t client_track = c.tracer().track("client/0");
    int sent = 0;
    int replies = 0;
    std::string last_reply;
    const auto issue = [&](std::vector<std::string> argv) {
        c.tracer().flow_issue(ch->flow_id(), client_track);
        ch->send(kv::resp::command(argv));
        ++sent;
    };
    ch->set_on_message([&](std::string reply) {
        EXPECT_FALSE(reply.empty());
        c.tracer().flow_complete(ch->flow_id());
        last_reply = reply;
        ++replies;
        if (sent >= ops) return;
        const std::string key = std::string("k").append(std::to_string(sent / 2));
        issue(sent % 2 == 0 ? std::vector<std::string>{"SET", key, "v"}
                            : std::vector<std::string>{"GET", key});
    });
    issue({"SET", "k0", "v"});
    const auto deadline = c.sim().now() + sim::seconds(10);
    while (replies < sent && c.sim().now() < deadline) {
        if (c.sim().run_until(c.sim().now() + sim::milliseconds(20)) == 0 &&
            c.sim().events_pending() == 0) {
            break;
        }
    }
    EXPECT_EQ(replies, ops) << "workload did not complete";

    // Failover leg: crash a slave mid-run, let the NIC failure detector
    // react, recover, and drain replication.
    c.slave(0).crash();
    c.sim().run_until(c.sim().now() + sim::seconds(2));
    c.slave(0).recover();
    c.sim().run_until(c.sim().now() + sim::seconds(3));
    EXPECT_TRUE(c.converged());

    // One INFO over the live connection: the reply must be deterministic
    // too (it folds command counts, offsets and latency stats together).
    const int replies_before_info = replies;
    sent = ops + 1; // stop the SET/GET alternation
    c.tracer().flow_issue(ch->flow_id(), client_track);
    ch->send(kv::resp::command({"INFO"}));
    c.sim().run_until(c.sim().now() + sim::milliseconds(50));
    EXPECT_GT(replies, replies_before_info) << "INFO got no reply";

    out.digest = c.sim().trace_digest();
    out.events = c.sim().events_executed();
    out.chrome_json = obs::chrome_trace_json(c.tracer());
    out.info_reply = last_reply;
    out.master_stats = c.master().stats().format();
    out.spans = c.tracer().spans().size();
    return out;
}

TEST(ObsDeterminism, SameSeedByteIdenticalExports) {
    const ObsRun a = run_scenario(0x0b5'feedULL, /*tracing=*/true, 200);
    const ObsRun b = run_scenario(0x0b5'feedULL, /*tracing=*/true, 200);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.chrome_json, b.chrome_json) << "chrome trace diverged";
    EXPECT_EQ(a.info_reply, b.info_reply) << "INFO reply diverged";
    EXPECT_EQ(a.master_stats, b.master_stats);
    EXPECT_GT(a.spans, 0u) << "tracer saw no spans";
    // The double run compares a commit with itself; this constant, recorded
    // from an earlier commit, catches a change that moves any of the three
    // exports between commits.
    const std::uint64_t exports =
        offload::chaos::fnv1a(a.chrome_json + a.info_reply + a.master_stats);
    EXPECT_EQ(exports, 0x7c72a5c67fe83107u) << std::hex << exports;
}

TEST(ObsDeterminism, TracerDoesNotPerturbTheDigest) {
    // The tentpole's hard rule: enabling span collection must not change
    // what the simulation does — digest and event count stay bit-identical.
    const ObsRun off = run_scenario(0xabcdULL, /*tracing=*/false, 120);
    const ObsRun on = run_scenario(0xabcdULL, /*tracing=*/true, 120);
    EXPECT_EQ(off.digest, on.digest)
        << "tracer changed the simulation event stream";
    EXPECT_EQ(off.events, on.events);
    EXPECT_EQ(off.info_reply, on.info_reply);
    EXPECT_EQ(off.spans, 0u);
    EXPECT_GT(on.spans, 0u);
}

TEST(ObsDeterminism, TraceCoversRequestAndReplicationStages) {
    const ObsRun r = run_scenario(0x51abULL, /*tracing=*/true, 150);
    // The chrome trace must carry both the critical-path stages and the
    // offloaded replication legs, plus named tracks for every component.
    EXPECT_NE(r.chrome_json.find("client_e2e"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("rdma_write"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("master_apply"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("reply"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("offload_request"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("nic_fanout"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("slave_ack"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("cq_wakeup"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("server/master"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("server/slave0"), std::string::npos);
    EXPECT_NE(r.chrome_json.find("nic/nic-kv"), std::string::npos);
    // INFO must include the new Stats/Latencystats lines.
    EXPECT_NE(r.info_reply.find("total_writes:"), std::string::npos);
    EXPECT_NE(r.info_reply.find("cmd_service_p50_usec:"), std::string::npos);
}

TEST(ObsDeterminism, SlowlogAndLatencyCommandsWork) {
    offload::ClusterConfig cfg;
    cfg.seed = 99;
    cfg.n_slaves = 1;
    cfg.offload = true;
    // Threshold zero: every command lands in the slowlog.
    cfg.server_tmpl.slowlog_threshold = sim::Duration::zero();
    offload::Cluster c(cfg);
    c.start();

    auto node = c.add_client_host("shell");
    net::ChannelPtr ch;
    c.connect_client(node, [&ch](net::ChannelPtr got) { ch = std::move(got); });
    c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    ASSERT_TRUE(ch);

    std::string last;
    int replies = 0;
    ch->set_on_message([&](std::string reply) {
        last = std::move(reply);
        ++replies;
    });
    const auto roundtrip = [&](std::vector<std::string> argv) {
        const int before = replies;
        ch->send(kv::resp::command(argv));
        c.sim().run_until(c.sim().now() + sim::milliseconds(20));
        EXPECT_GT(replies, before) << "no reply to " << argv[0];
        return last;
    };

    roundtrip({"SET", "a", "1"});
    roundtrip({"GET", "a"});
    const std::string len = roundtrip({"SLOWLOG", "LEN"});
    EXPECT_EQ(len.substr(0, 1), ":");
    EXPECT_NE(len, ":0\r\n") << "zero threshold should log every command";
    const std::string got = roundtrip({"SLOWLOG", "GET"});
    EXPECT_EQ(got.substr(0, 1), "*");
    EXPECT_NE(got.find("SET"), std::string::npos);
    const std::string latest = roundtrip({"LATENCY", "LATEST"});
    EXPECT_NE(latest.find("command-write"), std::string::npos);
    EXPECT_NE(latest.find("command-read"), std::string::npos);
    const std::string hist = roundtrip({"LATENCY", "HISTORY", "command-write"});
    EXPECT_EQ(hist.substr(0, 1), "*");
    const std::string reset = roundtrip({"SLOWLOG", "RESET"});
    EXPECT_EQ(reset, "+OK\r\n");
    const std::string len2 = roundtrip({"SLOWLOG", "LEN"});
    // Only the RESET itself (logged after clearing) can be present.
    EXPECT_TRUE(len2 == ":1\r\n" || len2 == ":0\r\n") << len2;
    const std::string lreset = roundtrip({"LATENCY", "RESET"});
    EXPECT_EQ(lreset.substr(0, 1), ":");
}

} // namespace
} // namespace skv
