#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "chaos_support.hpp"
#include "kv/resp.hpp"
#include "obs/export.hpp"
#include "skv/cluster.hpp"
#include "workload/session.hpp"

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

    workload::Session s(c, "obs-client");
    EXPECT_TRUE(s.connected()) << "client connect failed";
    ObsRun out;
    if (!s.connected()) return out;

    // Stamp the request flow (the Session does what BenchClient does), so
    // the critical-path stages are exercised without the workload runner.
    s.set_tracer(&c.tracer(), "client/0");
    EXPECT_EQ(offload::chaos::set_get_loop(s, ops), ops)
        << "workload did not complete";

    // Failover leg: crash a slave mid-run, let the NIC failure detector
    // react, recover, and drain replication.
    c.slave(0).crash();
    c.sim().run_until(c.sim().now() + sim::seconds(2));
    c.slave(0).recover();
    c.sim().run_until(c.sim().now() + sim::seconds(3));
    EXPECT_TRUE(c.converged());

    // One INFO over the live connection: the reply must be deterministic
    // too (it folds command counts, offsets and latency stats together).
    const std::size_t replies_before_info = s.replies().size();
    s.send({"INFO"});
    c.sim().run_until(c.sim().now() + sim::milliseconds(50));
    EXPECT_GT(s.replies().size(), replies_before_info) << "INFO got no reply";

    out.digest = c.sim().trace_digest();
    out.events = c.sim().events_executed();
    out.chrome_json = obs::chrome_trace_json(c.tracer());
    // The reply's wire bytes: INFO answers with one bulk string.
    out.info_reply = kv::resp::bulk(s.replies().back().str);
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
    offload::Cluster c(cfg);
    c.start();

    workload::Session s(c, "shell");
    ASSERT_TRUE(s.connected());

    using Kind = kv::resp::Value::Kind;
    const auto roundtrip = [&](const std::vector<std::string>& argv) {
        const std::size_t before = s.replies().size();
        s.send(argv);
        c.sim().run_until(c.sim().now() + sim::milliseconds(20));
        EXPECT_GT(s.replies().size(), before) << "no reply to " << argv[0];
        return s.replies().empty() ? kv::resp::Value{} : s.replies().back();
    };

    roundtrip({"SET", "a", "1"});
    roundtrip({"GET", "a"});
    EXPECT_EQ(roundtrip({"SLOWLOG", "LEN"}).num, 0) << "nothing was slow yet";
    // One pipelined burst of GETs parsed together and queued on the master
    // core: the tail waits well past the 10 ms SLOWLOG threshold.
    std::string burst;
    for (int i = 0; i < 6'000; ++i) burst += kv::resp::command({"GET", "a"});
    s.send_raw(burst);
    c.sim().run_until(c.sim().now() + sim::milliseconds(50));
    const auto len = roundtrip({"SLOWLOG", "LEN"});
    EXPECT_EQ(len.kind, Kind::kInteger);
    EXPECT_GT(len.num, 0) << "the burst's tail should be logged";
    const auto got = roundtrip({"SLOWLOG", "GET", "1"});
    ASSERT_EQ(got.kind, Kind::kArray);
    ASSERT_EQ(got.elems.size(), 1u);
    // Entry: id, time, duration (us), argv.
    const auto& newest = got.elems[0];
    ASSERT_EQ(newest.elems.size(), 4u);
    EXPECT_GE(newest.elems[2].num, 10'000);
    EXPECT_NE(newest.to_debug_string().find("GET"), std::string::npos);
    const std::string latest = roundtrip({"LATENCY", "LATEST"}).to_debug_string();
    EXPECT_NE(latest.find("command-write"), std::string::npos);
    EXPECT_NE(latest.find("command-read"), std::string::npos);
    EXPECT_EQ(roundtrip({"LATENCY", "HISTORY", "command-write"}).kind, Kind::kArray);
    EXPECT_TRUE(roundtrip({"SLOWLOG", "RESET"}).is_ok());
    EXPECT_EQ(roundtrip({"SLOWLOG", "LEN"}).num, 0);
    EXPECT_EQ(roundtrip({"LATENCY", "RESET"}).kind, Kind::kInteger);
}

} // namespace
} // namespace skv
