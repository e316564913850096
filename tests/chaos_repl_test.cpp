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

// Protocol-matrix chaos suite (DESIGN.md §13): every replication protocol
// Nic-KV can execute — async fan-out, chain, majority quorum — must pass
// the same fault scenarios under the linearizability checker, across
// three seeds each. The TEST blocks are grouped per protocol
// (ChaosReplFanout / ChaosReplChain / ChaosReplQuorum) so CI can run one
// protocol per sanitizer job with --gtest_filter.

namespace skv::offload {
namespace {

using chaos::call;
using chaos::fnv1a;
using chaos::gate_linearizable;
using chaos::record;
using server::ReplicationMode;
using workload::ChaosScenario;
using workload::crash_cluster_config;
using enum workload::ChaosStep::Action;

/// The protocol's crash-tuned cluster and three retrying clients × 30 ops;
/// chain fleets read from the tail first.
ChaosScenario scenario(ReplicationMode m, std::uint64_t seed, int n_slaves = 2) {
    return {.cluster = crash_cluster_config(seed, m, n_slaves),
            .fleet = {.ops_each = 30}};
}

std::string tag(const char* scenario, ReplicationMode m) {
    return std::string(scenario) + "/" + to_string(m);
}

// ---------------------------------------------------------------------------
// Scenario bodies, parameterized by protocol. Each runs 3 seeds.

void run_network_faults(ReplicationMode m, std::uint64_t seed) {
    ChaosScenario s = scenario(m, seed);
    s.link_faults = {.drop_prob = 0.01, .dup_prob = 0.02, .jitter_prob = 0.2,
                     .jitter_mean = sim::microseconds(200)};
    auto r = s.run();
    ASSERT_TRUE(r.drained) << "seed " << seed;
    EXPECT_TRUE(r.complete) << "seed " << seed;
    EXPECT_GT(r.cluster->fabric().faults().stats().counter("drops"), 0u);
    gate_linearizable(r, tag("net-faults", m));
    // Retransmission (and, for chain/quorum, stall resync) must finish the
    // job with the faults still active.
    EXPECT_TRUE(r.settle(sim::seconds(10))) << "seed " << seed;
}

void run_partition_heal(ReplicationMode m, std::uint64_t seed) {
    ChaosScenario s = scenario(m, seed);
    // Partition the chain tail when there is one (the most interesting
    // victim: its lease must lapse before the detector shrinks the commit
    // set); otherwise the last slave.
    const int victim = m == ReplicationMode::kChain
                           ? workload::ChaosStep::kChainTail
                           : s.cluster.n_slaves - 1;
    s.schedule = {{sim::milliseconds(300), kBlock, victim},
                  {sim::milliseconds(1500), kUnblock, victim}};
    auto r = s.run();
    ASSERT_TRUE(r.live) << "workload finished pre-fault";
    ASSERT_TRUE(r.drained) << "seed " << seed;
    EXPECT_TRUE(r.complete) << "seed " << seed;
    gate_linearizable(r, tag("partition-heal", m));
    EXPECT_TRUE(r.settle(sim::seconds(10))) << "seed " << seed;
}

void run_master_crash(ReplicationMode m, std::uint64_t seed) {
    chaos::master_crash(scenario(m, seed), tag("master-crash", m));
}

void run_slave_crash(ReplicationMode m, std::uint64_t seed) {
    chaos::slave_crash(scenario(m, seed), tag("slave-crash", m),
                       sim::seconds(10));
}

void run_crash_plus_partition(ReplicationMode m, std::uint64_t seed) {
    chaos::crash_plus_partition(scenario(m, seed, /*n_slaves=*/3),
                                tag("crash+partition", m));
}

void run_restart_storm(ReplicationMode m, std::uint64_t seed) {
    ChaosScenario s = scenario(m, seed, /*n_slaves=*/3);
    s.fleet.ops_each = 40;
    chaos::restart_storm(s, tag("restart-storm", m));
}

/// Double-run determinism: the full crash scenario — retries, backoff
/// jitter, failover, protocol-specific repair — is a pure function of the
/// seed under every protocol.
std::string deterministic_run(ReplicationMode m, std::uint64_t seed) {
    return chaos::crash_sequence_fingerprint(seed, m, 20);
}

// ---------------------------------------------------------------------------
// Fan-out (the PR2/PR6 baseline protocol, now selected explicitly).

TEST(ChaosReplFanout, NetworkFaultsLinearizable) {
    for (const std::uint64_t seed : {60011ull, 60012ull, 60013ull}) {
        run_network_faults(ReplicationMode::kFanout, seed);
    }
}
TEST(ChaosReplFanout, PartitionHealLinearizable) {
    for (const std::uint64_t seed : {60021ull, 60022ull, 60023ull}) {
        run_partition_heal(ReplicationMode::kFanout, seed);
    }
}
TEST(ChaosReplFanout, MasterCrashFailoverLinearizable) {
    for (const std::uint64_t seed : {60031ull, 60032ull, 60033ull}) {
        run_master_crash(ReplicationMode::kFanout, seed);
    }
}
TEST(ChaosReplFanout, SlaveCrashDuringReplLinearizable) {
    for (const std::uint64_t seed : {60041ull, 60042ull, 60043ull}) {
        run_slave_crash(ReplicationMode::kFanout, seed);
    }
}
TEST(ChaosReplFanout, CrashPlusPartitionLinearizable) {
    for (const std::uint64_t seed : {60051ull, 60052ull, 60053ull}) {
        run_crash_plus_partition(ReplicationMode::kFanout, seed);
    }
}
TEST(ChaosReplFanout, RestartStormLinearizable) {
    for (const std::uint64_t seed : {60061ull, 60062ull, 60063ull}) {
        run_restart_storm(ReplicationMode::kFanout, seed);
    }
}
TEST(ChaosReplFanout, DeterministicDoubleRun) {
    const std::string fp = deterministic_run(ReplicationMode::kFanout, 71);
    EXPECT_EQ(fp, deterministic_run(ReplicationMode::kFanout, 71));
    EXPECT_NE(fp, deterministic_run(ReplicationMode::kFanout, 72));
    EXPECT_EQ(fnv1a(fp), 0x17421e381017ffc8u) << std::hex << fnv1a(fp);
}

// ---------------------------------------------------------------------------
// Chain replication: NIC -> head -> ... -> tail, tail serves reads.

TEST(ChaosReplChain, NetworkFaultsLinearizable) {
    for (const std::uint64_t seed : {61011ull, 61012ull, 61013ull}) {
        run_network_faults(ReplicationMode::kChain, seed);
    }
}
TEST(ChaosReplChain, PartitionHealLinearizable) {
    for (const std::uint64_t seed : {61021ull, 61022ull, 61023ull}) {
        run_partition_heal(ReplicationMode::kChain, seed);
    }
}
TEST(ChaosReplChain, MasterCrashFailoverLinearizable) {
    for (const std::uint64_t seed : {61031ull, 61032ull, 61033ull}) {
        run_master_crash(ReplicationMode::kChain, seed);
    }
}
TEST(ChaosReplChain, SlaveCrashDuringReplLinearizable) {
    for (const std::uint64_t seed : {61041ull, 61042ull, 61043ull}) {
        run_slave_crash(ReplicationMode::kChain, seed);
    }
}
TEST(ChaosReplChain, CrashPlusPartitionLinearizable) {
    for (const std::uint64_t seed : {61051ull, 61052ull, 61053ull}) {
        run_crash_plus_partition(ReplicationMode::kChain, seed);
    }
}
TEST(ChaosReplChain, RestartStormLinearizable) {
    for (const std::uint64_t seed : {61061ull, 61062ull, 61063ull}) {
        run_restart_storm(ReplicationMode::kChain, seed);
    }
}
TEST(ChaosReplChain, DeterministicDoubleRun) {
    const std::string fp = deterministic_run(ReplicationMode::kChain, 81);
    EXPECT_EQ(fp, deterministic_run(ReplicationMode::kChain, 81));
    EXPECT_NE(fp, deterministic_run(ReplicationMode::kChain, 82));
    EXPECT_EQ(fnv1a(fp), 0xeac09e12a351d63fu) << std::hex << fnv1a(fp);
}

// Steady state: the NIC pays one send per write regardless of chain
// length, frames relay member-to-member, and the tail genuinely serves
// reads (the fleet routes them there) — all under the checker.
TEST(ChaosReplChain, TailServesLinearizableReads) {
    ChaosScenario s = scenario(ReplicationMode::kChain, 61071);
    s.fleet.spec.set_ratio = 0.3;
    const auto r = s.run();
    ASSERT_EQ(r.chain_length, 2u);
    ASSERT_GE(r.read_tail, 0);
    auto& c = *r.cluster;
    ASSERT_TRUE(r.drained);
    EXPECT_TRUE(r.complete);

    std::uint64_t tail_reads = 0;
    std::uint64_t relayed = 0;
    for (int i = 0; i < c.slave_count(); ++i) {
        tail_reads += c.slave(i).stats().counter("chain_tail_reads");
        relayed += c.slave(i).stats().counter("chain_forwards");
    }
    EXPECT_GT(tail_reads, 0u) << "reads never reached the tail";
    EXPECT_GT(relayed, 0u) << "no frame was relayed down the chain";
    // One NIC send per replication request: the chain's bandwidth win.
    EXPECT_EQ(c.nic_kv()->stats().counter("fanout_sends"),
              c.nic_kv()->stats().counter("repl_requests"));
    gate_linearizable(r, "chain-tail-reads");
}

// Consistency-trap self-test: with the protocol's signature bug injected
// — a tail lease far above the detector's invalidation latency — an
// isolated tail keeps serving a value the re-spliced chain has already
// overwritten, and the checker MUST reject the recorded history.
TEST(ChaosReplChain, CheckerRejectsInjectedStaleTailRead) {
    auto cfg = crash_cluster_config(61081, ReplicationMode::kChain);
    cfg.server_tmpl.chain_read_lease = sim::seconds(60); // the injected bug
    auto c = workload::start_traced(cfg);
    const int tail = workload::chain_tail(*c);
    ASSERT_GE(tail, 0);

    check::History hist;
    workload::Session master(*c, "w");
    ASSERT_TRUE(master.connected());
    std::int64_t t0 = c->sim().now().ns();
    EXPECT_TRUE(call(master, {"SET", "tk", "v1"}).is_ok());
    record(hist, check::OpType::kWrite, "tk", "v1", t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    // Isolate the tail from the NIC, the master, and its chain
    // predecessor — clients can still reach it.
    chaos::isolate_tail(*c, tail);

    // Overwrite through the surviving chain. The write parks on the full
    // commit set until the detector drops the tail, so retry until the
    // re-spliced chain commits it (same value — idempotent).
    t0 = c->sim().now().ns();
    bool v2_ok = false;
    for (int i = 0; i < 20 && !v2_ok; ++i) {
        v2_ok = call(master, {"SET", "tk", "v2"}).is_ok();
    }
    ASSERT_TRUE(v2_ok) << "re-spliced chain never committed the overwrite";
    record(hist, check::OpType::kWrite, "tk", "v2", t0, c->sim().now().ns());
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 1);

    // The isolated tail still thinks its lease is fresh (60s bug) and
    // serves the stale value.
    workload::Session stale(*c, "r", tail);
    ASSERT_TRUE(stale.connected());
    t0 = c->sim().now().ns();
    const auto v = call(stale, {"GET", "tk"});
    ASSERT_EQ(v.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(v.str, "v1") << "expected the injected stale tail read";
    record(hist, check::OpType::kRead, "tk", v.str, t0, c->sim().now().ns());

    const auto res = check::check_history(hist);
    EXPECT_FALSE(res.linearizable)
        << "checker failed to reject an injected stale tail read";
    EXPECT_EQ(res.offending_key, "tk");
}

// The production lease is shorter than the detector's invalidation
// latency: the same isolation makes the tail refuse reads instead.
TEST(ChaosReplChain, DefaultLeaseRefusesIsolatedTailReads) {
    auto c = workload::start_traced(
        crash_cluster_config(61091, ReplicationMode::kChain));
    const int tail = workload::chain_tail(*c);
    ASSERT_GE(tail, 0);
    workload::Session master(*c, "w");
    ASSERT_TRUE(master.connected());
    EXPECT_TRUE(call(master, {"SET", "tk", "v1"}).is_ok());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    chaos::isolate_tail(*c, tail);
    // Past the lease (400ms) but with the isolation still in place.
    c->sim().run_until(c->sim().now() + sim::seconds(2));

    workload::Session reader(*c, "r", tail);
    ASSERT_TRUE(reader.connected());
    const auto v = call(reader, {"GET", "tk"});
    EXPECT_TRUE(v.is_error()) << "isolated tail served a read past its lease";
    EXPECT_EQ(v.str.find("READONLY"), 0u);
}

// ---------------------------------------------------------------------------
// Majority quorum: NIC-side ack aggregation releases commits.

TEST(ChaosReplQuorum, NetworkFaultsLinearizable) {
    for (const std::uint64_t seed : {62011ull, 62012ull, 62013ull}) {
        run_network_faults(ReplicationMode::kQuorum, seed);
    }
}
TEST(ChaosReplQuorum, PartitionHealLinearizable) {
    for (const std::uint64_t seed : {62021ull, 62022ull, 62023ull}) {
        run_partition_heal(ReplicationMode::kQuorum, seed);
    }
}
TEST(ChaosReplQuorum, MasterCrashFailoverLinearizable) {
    for (const std::uint64_t seed : {62031ull, 62032ull, 62033ull}) {
        run_master_crash(ReplicationMode::kQuorum, seed);
    }
}
TEST(ChaosReplQuorum, SlaveCrashDuringReplLinearizable) {
    for (const std::uint64_t seed : {62041ull, 62042ull, 62043ull}) {
        run_slave_crash(ReplicationMode::kQuorum, seed);
    }
}
TEST(ChaosReplQuorum, CrashPlusPartitionLinearizable) {
    for (const std::uint64_t seed : {62051ull, 62052ull, 62053ull}) {
        run_crash_plus_partition(ReplicationMode::kQuorum, seed);
    }
}
TEST(ChaosReplQuorum, RestartStormLinearizable) {
    for (const std::uint64_t seed : {62061ull, 62062ull, 62063ull}) {
        run_restart_storm(ReplicationMode::kQuorum, seed);
    }
}
TEST(ChaosReplQuorum, DeterministicDoubleRun) {
    const std::string fp = deterministic_run(ReplicationMode::kQuorum, 91);
    EXPECT_EQ(fp, deterministic_run(ReplicationMode::kQuorum, 91));
    EXPECT_NE(fp, deterministic_run(ReplicationMode::kQuorum, 92));
    EXPECT_EQ(fnv1a(fp), 0x3df2b1b8d076741bu) << std::hex << fnv1a(fp);
}

// Steady state: commits are released by the NIC's watermark, not by the
// master's own ack counting.
TEST(ChaosReplQuorum, WatermarkReleasesCommits) {
    auto c = workload::start_traced(
        crash_cluster_config(62071, ReplicationMode::kQuorum));
    workload::Session conn(*c, "q");
    ASSERT_TRUE(conn.connected());
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(call(conn, {"SET", "qk" + std::to_string(i), "v"}).is_ok());
    }
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    EXPECT_GT(c->nic_kv()->stats().counter("quorum_acks"), 0u);
    EXPECT_GT(c->nic_kv()->stats().counter("quorum_commits"), 0u);
    EXPECT_GT(c->master().stats().counter("quorum_commit_updates"), 0u);
    EXPECT_EQ(c->nic_kv()->quorum_watermark(), c->master().master_offset());
    EXPECT_GE(c->master().quorum_commit_offset(), c->master().master_offset());
}

// Consistency-trap self-test: with the protocol's signature bug injected
// — the NIC accepting zero slave acks as a majority (split-brain) — a
// write "commits" on the master's copy alone, the master dies, failover
// promotes a replica that never saw it, and the checker MUST reject the
// resulting stale read.
TEST(ChaosReplQuorum, CheckerRejectsInjectedSplitBrainAck) {
    auto cfg = crash_cluster_config(62081, ReplicationMode::kQuorum);
    cfg.nic_cfg.quorum_slave_acks_override = 0; // the injected bug
    auto c = workload::start_traced(cfg);
    check::History hist;

    workload::Session master(*c, "w");
    ASSERT_TRUE(master.connected());
    std::int64_t t0 = c->sim().now().ns();
    EXPECT_TRUE(call(master, {"SET", "qk", "v1"}).is_ok());
    record(hist, check::OpType::kWrite, "qk", "v1", t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    // Both replicas die; the zero-ack "majority" still commits the
    // overwrite on the master's copy alone.
    c->crash_node(0);
    c->crash_node(1);
    c->sim().run_until(c->sim().now() + sim::milliseconds(50));
    t0 = c->sim().now().ns();
    const auto v2 = call(master, {"SET", "qk", "v2"});
    ASSERT_TRUE(v2.is_ok()) << "split-brain override failed to commit solo";
    record(hist, check::OpType::kWrite, "qk", "v2", t0, c->sim().now().ns());

    // The master dies with the only copy of v2; the replicas come back
    // and one of them — holding only v1 — is promoted.
    c->crash_node(-1);
    c->sim().run_until(c->sim().now() + sim::milliseconds(200));
    c->restart_node(0, server::KvServer::RecoveryMode::kWarm);
    c->restart_node(1, server::KvServer::RecoveryMode::kWarm);
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    ASSERT_EQ(c->nic_kv()->stats().counter("failovers"), 1u);
    int promoted = -1;
    for (int i = 0; i < c->slave_count(); ++i) {
        if (c->slave(i).role() == server::Role::kMaster) promoted = i;
    }
    ASSERT_GE(promoted, 0) << "no stand-in was promoted";

    workload::Session stale(*c, "r", promoted);
    ASSERT_TRUE(stale.connected());
    t0 = c->sim().now().ns();
    const auto v = call(stale, {"GET", "qk"});
    ASSERT_EQ(v.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(v.str, "v1") << "expected the acked-write loss to surface";
    record(hist, check::OpType::kRead, "qk", v.str, t0, c->sim().now().ns());

    const auto res = check::check_history(hist);
    EXPECT_FALSE(res.linearizable)
        << "checker failed to reject an injected split-brain ack";
    EXPECT_EQ(res.offending_key, "qk");
}

} // namespace
} // namespace skv::offload
