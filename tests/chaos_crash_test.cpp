#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos_support.hpp"
#include "check/history.hpp"
#include "check/linearize.hpp"
#include "kv/resp.hpp"
#include "net/fault.hpp"
#include "skv/cluster.hpp"
#include "workload/chaos.hpp"

namespace skv::offload {
namespace {

// The scenario runner lives in workload/chaos.hpp; the linearizability
// gate and the traps' bounded call in chaos_support.hpp, shared with the
// protocol-matrix suite.
using chaos::call;
using chaos::gate_linearizable;
using chaos::record;
using workload::ChaosScenario;
using workload::crash_cluster_config;
using enum workload::ChaosStep::Action;

ChaosScenario fanout(std::uint64_t seed, int n_slaves = 2) {
    return {.cluster = crash_cluster_config(seed, server::ReplicationMode::kFanout,
                                            n_slaves)};
}

// ---------------------------------------------------------------------------
// Scenario 1: master crash + failover. The master dies mid-workload and
// stays dead; the recorded history must be linearizable.
TEST(ChaosCrash, MasterCrashFailoverLinearizable) {
    for (const std::uint64_t seed : {9101ull, 9202ull, 9303ull}) {
        chaos::master_crash(fanout(seed), "master-crash");
    }
}

// Scenario 2: slave crash during replication fan-out under commit gating,
// then a warm restart that must partially resync.
TEST(ChaosCrash, SlaveCrashDuringFanoutLinearizable) {
    for (const std::uint64_t seed : {9404ull, 9505ull, 9606ull}) {
        chaos::slave_crash(fanout(seed), "slave-crash", sim::seconds(8));
    }
}

// Scenario 3: crash + partition at the same time. One slave is fully
// partitioned, another crashes; the master keeps serving through the
// survivor, then both impairments heal.
TEST(ChaosCrash, CrashPlusPartitionLinearizable) {
    for (const std::uint64_t seed : {9707ull, 9808ull, 9909ull}) {
        chaos::crash_plus_partition(fanout(seed, 3), "crash+partition");
    }
}

// Scenario 4: seeded restart storm across the slaves (warm restarts) with
// the workload running throughout.
TEST(ChaosCrash, RestartStormLinearizable) {
    for (const std::uint64_t seed : {8111ull, 8222ull, 8333ull}) {
        ChaosScenario s = fanout(seed, 3);
        s.fleet.ops_each = 60;
        chaos::restart_storm(s, "restart-storm");
    }
}

// Scenario 5: cold restarts recover from the periodic RDB snapshot plus
// backlog partial resync instead of process memory.
TEST(ChaosCrash, ColdRestartStormRecoversFromSnapshot) {
    for (const std::uint64_t seed : {8444ull, 8555ull, 8666ull}) {
        ChaosScenario s = fanout(seed);
        s.cluster.server_tmpl.persist_interval = sim::milliseconds(200);
        s.fleet.ops_each = 50;
        s.fleet.spec.set_ratio = 0.7;
        s.fleet.policy.turnaround = sim::milliseconds(60);
        s.schedule = {{.action = kStorm,
                       .storm = {.crashes = 4,
                                 .min_gap = sim::milliseconds(400),
                                 .max_gap = sim::seconds(1),
                                 .downtime = sim::milliseconds(500),
                                 .mode = server::KvServer::RecoveryMode::kCold}}};
        s.drain_cap = sim::seconds(90);
        auto r = s.run();
        EXPECT_GT(r.storm_crashes, 0) << "seed " << seed;
        ASSERT_TRUE(r.drained) << "seed " << seed;
        EXPECT_TRUE(r.complete) << "seed " << seed;
        gate_linearizable(r, "cold-storm");

        EXPECT_TRUE(r.settle(sim::seconds(10))) << "seed " << seed;
        auto& c = *r.cluster;
        std::uint64_t cold = 0;
        std::uint64_t snaps = 0;
        for (int i = 0; i < c.slave_count(); ++i) {
            cold += c.slave(i).stats().counter("cold_recoveries");
            snaps += c.slave(i).stats().counter("snapshots_persisted");
        }
        EXPECT_GT(cold, 0u) << "seed " << seed;
        EXPECT_GT(snaps, 0u) << "seed " << seed;
        for (int i = 0; i < c.slave_count(); ++i) {
            EXPECT_TRUE(c.master().db().equals(c.slave(i).db()))
                << "seed " << seed << " slave" << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Self-test: the checker must provably reject a real injected consistency
// bug. With stale replica reads enabled and no commit gating, a read
// served by a replication-cut slave observes an old value; the recorded
// history is genuinely non-linearizable and the gate must say so.
TEST(ChaosCrash, CheckerRejectsInjectedStaleRead) {
    auto cfg = crash_cluster_config(7777);
    cfg.server_tmpl.wait_for_slaves = 0;
    cfg.server_tmpl.serve_stale_reads = true; // the injected bug
    auto c = workload::start_traced(cfg);
    check::History hist;

    workload::Session master(*c, "w");
    ASSERT_TRUE(master.connected());
    std::int64_t t0 = c->sim().now().ns();
    EXPECT_TRUE(call(master, {"SET", "sk", "v1"}).is_ok());
    record(hist, check::OpType::kWrite, "sk", "v1", t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    // Cut replication to slave0 (both the NIC fan-out and the direct
    // master link), then overwrite the key. slave0 keeps v1 forever.
    net::FaultSpec cut;
    cut.blocked = true;
    c->fabric().faults().set_pair(c->nic_kv()->endpoint(),
                                  c->slave(0).node().ep, cut);
    c->fabric().faults().set_pair(c->master().node().ep,
                                  c->slave(0).node().ep, cut);
    t0 = c->sim().now().ns();
    EXPECT_TRUE(call(master, {"SET", "sk", "v2"}).is_ok());
    record(hist, check::OpType::kWrite, "sk", "v2", t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::milliseconds(100));

    workload::Session stale(*c, "r", 0);
    ASSERT_TRUE(stale.connected());
    t0 = c->sim().now().ns();
    const auto v = call(stale, {"GET", "sk"});
    ASSERT_EQ(v.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(v.str, "v1") << "expected the injected stale read";
    record(hist, check::OpType::kRead, "sk", v.str, t0, c->sim().now().ns());

    const auto res = check::check_history(hist);
    EXPECT_FALSE(res.linearizable)
        << "checker failed to reject an injected stale read";
}

// Duplicate-suppressed write retries never double-apply, across both the
// direct-retry path and the replicated stream (APPEND makes re-execution
// visible as a doubled suffix).
TEST(ChaosCrash, DuplicateWriteRetryNeverDoubleApplies) {
    auto cfg = crash_cluster_config(4242);
    cfg.server_tmpl.wait_for_slaves = 0;
    auto c = workload::start_traced(cfg);
    workload::Session conn(*c, "dup");
    ASSERT_TRUE(conn.connected());

    auto v1 = call(conn, {"WSEQ", "7", "1", "APPEND", "dk", "x"});
    ASSERT_EQ(v1.kind, kv::resp::Value::Kind::kInteger);
    EXPECT_EQ(v1.num, 1);
    // The "retry": same client, same sequence. The cached reply comes
    // back; the command must NOT run again.
    auto v2 = call(conn, {"WSEQ", "7", "1", "APPEND", "dk", "x"});
    ASSERT_EQ(v2.kind, kv::resp::Value::Kind::kInteger);
    EXPECT_EQ(v2.num, 1);
    EXPECT_GE(c->master().stats().counter("dup_suppressed"), 1u);

    auto v3 = call(conn, {"WSEQ", "7", "2", "APPEND", "dk", "y"});
    ASSERT_EQ(v3.kind, kv::resp::Value::Kind::kInteger);
    EXPECT_EQ(v3.num, 2);
    // A stale (superseded) sequence is refused outright.
    auto v4 = call(conn, {"WSEQ", "7", "1", "APPEND", "dk", "z"});
    EXPECT_TRUE(v4.is_error());
    EXPECT_EQ(v4.str.find("DUPSEQ"), 0u);

    auto got = call(conn, {"GET", "dk"});
    ASSERT_EQ(got.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(got.str, "xy");

    // The replicated stream carried the tags: slaves applied each write
    // exactly once too.
    c->sim().run_until(c->sim().now() + sim::seconds(2));
    ASSERT_TRUE(c->converged());
    for (int i = 0; i < c->slave_count(); ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db())) << i;
    }
}

// Satellite: retransmit exhaustion. A one-directional NIC->slave cut with
// a deliberately slow probe detector: the reliable layer must reach its
// terminal broken state first and that event alone must invalidate the
// slave in Nic-KV's node table and the master's replica count.
TEST(ChaosCrash, RetransmitExhaustionBreaksLinkAndInvalidates) {
    auto cfg = crash_cluster_config(5151);
    cfg.nic_cfg.waiting_time = sim::seconds(30); // probes can't win this race
    auto c = workload::start_traced(cfg);
    ASSERT_EQ(c->nic_kv()->valid_slaves(), 2);
    ASSERT_EQ(c->master().available_slaves(), 2);

    net::FaultSpec cut;
    cut.blocked = true;
    c->fabric().faults().set_pair(c->nic_kv()->endpoint(),
                                  c->slave(0).node().ep, cut);

    // Traffic to retransmit: fan-out frames pile up unacked on the cut
    // link while the healthy replica keeps the writes committing.
    workload::Session conn(*c, "rt");
    ASSERT_TRUE(conn.connected());
    for (int i = 0; i < 20; ++i) {
        call(conn, {"SET", "rk" + std::to_string(i), "v"});
    }
    // The reliable layer: 8 retries, RTO 5ms doubling to 160ms —
    // terminal broken well under 3 seconds.
    c->sim().run_until(c->sim().now() + sim::seconds(3));

    EXPECT_GE(c->nic_kv()->stats().counter("links_broken"), 1u);
    EXPECT_GE(c->nic_kv()->stats().counter("failures_detected"), 1u);
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 1);
    EXPECT_EQ(c->master().available_slaves(), 1);
    EXPECT_GT(c->nic_kv()->stats().counter("rel.retransmits"), 0u);
}

// Acceptance: with every server down, ops never hang — each completes
// with an explicit failure/timeout inside its deadline.
TEST(ChaosCrash, TotalOutageOpsFailExplicitlyWithinDeadline) {
    ChaosScenario s = fanout(6161, 1);
    s.fleet.clients = 2;
    s.fleet.ops_each = 6;
    s.fleet.spec.set_ratio = 1.0;
    s.fleet.policy.turnaround = sim::milliseconds(150);
    s.schedule = {{sim::milliseconds(300), kCrash, -1}, {{}, kCrash, 0}};
    s.drain_cap = sim::seconds(40);
    const auto r = s.run();
    ASSERT_TRUE(r.live);
    ASSERT_TRUE(r.drained) << "clients hung";
    EXPECT_TRUE(r.complete);
    const auto deadline = sim::seconds(4);
    for (const auto& op : r.history->ops()) {
        EXPECT_LE(op.complete_ns - op.invoke_ns, deadline.ns())
            << "op exceeded its deadline";
        if (op.invoke_ns > r.first_fault.ns()) {
            EXPECT_NE(op.outcome, check::Outcome::kOk)
                << "op succeeded against a fully crashed cluster";
        }
    }
}

// Satellite: timeout/backoff determinism. The full crash scenario — with
// retries, backoff jitter, and failover — is a pure function of the seed:
// double-running it yields bit-identical trace digests and histories.
TEST(ChaosCrash, CrashScenarioDeterministicWithRetries) {
    using chaos::crash_sequence_fingerprint;
    constexpr auto kFanout = server::ReplicationMode::kFanout;
    const std::string fp = crash_sequence_fingerprint(31, kFanout, 25);
    EXPECT_EQ(fp, crash_sequence_fingerprint(31, kFanout, 25));
    EXPECT_NE(fp, crash_sequence_fingerprint(32, kFanout, 25));
    EXPECT_EQ(chaos::fnv1a(fp), 0x5233a8576c541c05u) << std::hex << chaos::fnv1a(fp);
}

} // namespace
} // namespace skv::offload
