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
#include "workload/retry_client.hpp"

// Protocol-matrix chaos suite (DESIGN.md §13): every replication protocol
// Nic-KV can execute — async fan-out, chain, majority quorum — must pass
// the same fault scenarios under the linearizability checker, across
// three seeds each. The TEST blocks are grouped per protocol
// (ChaosReplFanout / ChaosReplChain / ChaosReplQuorum) so CI can run one
// protocol per sanitizer job with --gtest_filter.

namespace skv::offload {
namespace {

using chaos::CrashClusterOpts;
using chaos::Fleet;
using chaos::RawConn;
using chaos::fnv1a;
using chaos::gate_linearizable;
using chaos::make_crash_cluster;
using server::ReplicationMode;

CrashClusterOpts opts_for(ReplicationMode m, int n_slaves = 2) {
    CrashClusterOpts o;
    o.n_slaves = n_slaves;
    o.replication_mode = m;
    return o;
}

/// Which slave is the current chain tail (-1 when no chain exists). Node
/// names in the chain are full "<name>@<ep>" identities.
int tail_slave_index(Cluster& c) {
    const auto order = c.nic_kv()->chain_order();
    if (order.empty()) return -1;
    for (int i = 0; i < c.slave_count(); ++i) {
        if (order.back().rfind("slave" + std::to_string(i) + "@", 0) == 0) {
            return i;
        }
    }
    return -1;
}

/// Chain fleets read from the tail first (the protocol's read-path win);
/// the other protocols keep the sticky master-first rotation.
void maybe_route_reads(Cluster& c, Fleet& fleet, ReplicationMode m) {
    if (m != ReplicationMode::kChain) return;
    const int tail = tail_slave_index(c);
    if (tail >= 0) fleet.read_first = static_cast<std::size_t>(1 + tail);
}

/// Attach `spec` to every replication path: NIC <-> slave (fan-out,
/// probes, quorum acks), master <-> slave (direct sync, acks), and
/// slave <-> slave (chain relay hops). Client links stay clean.
void fault_all_repl_links(Cluster& c, const net::FaultSpec& spec) {
    auto& faults = c.fabric().faults();
    const auto nic_ep = c.nic_kv()->endpoint();
    const auto master_ep = c.master().node().ep;
    for (int i = 0; i < c.slave_count(); ++i) {
        const auto si = c.slave(i).node().ep;
        faults.set_link(nic_ep, si, spec);
        faults.set_link(master_ep, si, spec);
        for (int j = i + 1; j < c.slave_count(); ++j) {
            faults.set_link(si, c.slave(j).node().ep, spec);
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario bodies, parameterized by protocol. Each runs 3 seeds.

void run_network_faults(ReplicationMode m, std::uint64_t seed) {
    auto c = make_crash_cluster(seed, opts_for(m));
    net::FaultSpec mess;
    mess.drop_prob = 0.01;
    mess.dup_prob = 0.02;
    mess.jitter_prob = 0.2;
    mess.jitter_mean = sim::microseconds(200);
    fault_all_repl_links(*c, mess);

    Fleet fleet;
    maybe_route_reads(*c, fleet, m);
    fleet.spawn(*c, 3, 30, 0.5);
    ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
    EXPECT_GT(c->fabric().faults().stats().counter("drops"), 0u);
    gate_linearizable(*c, fleet.history,
                      std::string("net-faults/") + to_string(m));
    // Retransmission (and, for chain/quorum, stall resync) must finish the
    // job with the faults still active.
    c->sim().run_until(c->sim().now() + sim::seconds(10));
    EXPECT_TRUE(c->converged()) << "seed " << seed;
}

void run_partition_heal(ReplicationMode m, std::uint64_t seed) {
    auto c = make_crash_cluster(seed, opts_for(m));
    // Partition the chain tail when there is one (the most interesting
    // victim: its lease must lapse before the detector shrinks the commit
    // set); otherwise the last slave.
    int victim = m == ReplicationMode::kChain ? tail_slave_index(*c) : -1;
    if (victim < 0) victim = c->slave_count() - 1;

    Fleet fleet;
    maybe_route_reads(*c, fleet, m);
    fleet.spawn(*c, 3, 30, 0.5);
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    ASSERT_FALSE(fleet.all_idle()) << "workload finished pre-fault";

    net::FaultSpec cut;
    cut.blocked = true;
    c->fabric().faults().set_endpoint(c->slave(victim).node().ep, cut);
    c->sim().run_until(c->sim().now() + sim::milliseconds(1500));
    c->fabric().faults().clear_endpoint(c->slave(victim).node().ep);

    ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
    gate_linearizable(*c, fleet.history,
                      std::string("partition-heal/") + to_string(m));
    c->sim().run_until(c->sim().now() + sim::seconds(10));
    EXPECT_TRUE(c->converged()) << "seed " << seed;
}

void run_master_crash(ReplicationMode m, std::uint64_t seed) {
    auto c = make_crash_cluster(seed, opts_for(m));
    Fleet fleet;
    maybe_route_reads(*c, fleet, m);
    fleet.spawn(*c, 3, 30, 0.5);
    c->sim().run_until(c->sim().now() + sim::milliseconds(400));
    ASSERT_FALSE(fleet.all_idle()) << "workload finished pre-crash";
    const auto crash_at = c->sim().now();
    c->crash_node(-1);

    ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
    EXPECT_EQ(c->nic_kv()->stats().counter("failovers"), 1u) << "seed " << seed;
    int promoted = 0;
    for (int i = 0; i < c->slave_count(); ++i) {
        if (c->slave(i).role() == server::Role::kMaster) ++promoted;
    }
    EXPECT_EQ(promoted, 1) << "seed " << seed;
    bool ok_after_crash = false;
    for (const auto& cl : fleet.clients) {
        if (cl->last_ok_at() > crash_at) ok_after_crash = true;
    }
    EXPECT_TRUE(ok_after_crash) << "seed " << seed;
    gate_linearizable(*c, fleet.history,
                      std::string("master-crash/") + to_string(m));
}

void run_slave_crash(ReplicationMode m, std::uint64_t seed) {
    auto c = make_crash_cluster(seed, opts_for(m));
    Fleet fleet;
    maybe_route_reads(*c, fleet, m);
    fleet.spawn(*c, 3, 30, 0.7);
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    ASSERT_FALSE(fleet.all_idle()) << "workload finished pre-crash";
    c->crash_node(0);
    c->sim().run_until(c->sim().now() + sim::milliseconds(800));
    c->restart_node(0, server::KvServer::RecoveryMode::kWarm);

    ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
    // Commit gating was actually exercised (all three protocols park the
    // reply for at least the replication round trip).
    EXPECT_GT(c->master().stats().counter("writes_parked"), 0u)
        << "seed " << seed;
    gate_linearizable(*c, fleet.history,
                      std::string("slave-crash/") + to_string(m));
    c->sim().run_until(c->sim().now() + sim::seconds(10));
    EXPECT_TRUE(c->converged()) << "seed " << seed;
    EXPECT_TRUE(c->master().db().equals(c->slave(0).db())) << "seed " << seed;
}

void run_crash_plus_partition(ReplicationMode m, std::uint64_t seed) {
    auto c = make_crash_cluster(seed, opts_for(m, /*n_slaves=*/3));
    Fleet fleet;
    maybe_route_reads(*c, fleet, m);
    fleet.spawn(*c, 3, 30, 0.5);
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    ASSERT_FALSE(fleet.all_idle()) << "workload finished pre-fault";

    net::FaultSpec cut;
    cut.blocked = true;
    c->fabric().faults().set_endpoint(c->slave(2).node().ep, cut);
    c->sim().run_until(c->sim().now() + sim::milliseconds(200));
    c->crash_node(1);
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    c->restart_node(1, server::KvServer::RecoveryMode::kWarm);
    c->fabric().faults().clear_endpoint(c->slave(2).node().ep);

    // Quorum note: while 2 of 4 replicas are impaired the majority is
    // unreachable, so writes park and time out explicitly until the heal —
    // the gate checks consistency, not availability.
    ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
    gate_linearizable(*c, fleet.history,
                      std::string("crash+partition/") + to_string(m));
    c->sim().run_until(c->sim().now() + sim::seconds(10));
    EXPECT_TRUE(c->converged()) << "seed " << seed;
}

void run_restart_storm(ReplicationMode m, std::uint64_t seed) {
    auto c = make_crash_cluster(seed, opts_for(m, /*n_slaves=*/3));
    Fleet fleet;
    maybe_route_reads(*c, fleet, m);
    fleet.spawn(*c, 4, 40, 0.5, sim::milliseconds(60));
    Cluster::CrashStormSpec storm;
    storm.crashes = 6;
    storm.downtime = sim::milliseconds(400);
    EXPECT_GT(c->schedule_crash_storm(storm), 0) << "seed " << seed;

    ASSERT_TRUE(fleet.drain(*c, sim::seconds(90))) << "seed " << seed;
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
    EXPECT_EQ(c->master().role(), server::Role::kMaster) << "seed " << seed;
    gate_linearizable(*c, fleet.history,
                      std::string("restart-storm/") + to_string(m));
    c->sim().run_until(c->sim().now() + sim::seconds(10));
    EXPECT_TRUE(c->converged()) << "seed " << seed;
}

/// Double-run determinism: the full crash scenario — retries, backoff
/// jitter, failover, protocol-specific repair — is a pure function of the
/// seed under every protocol.
std::string determinism_fingerprint(ReplicationMode m, std::uint64_t seed) {
    auto c = make_crash_cluster(seed, opts_for(m));
    Fleet fleet;
    maybe_route_reads(*c, fleet, m);
    fleet.spawn(*c, 2, 20, 0.5);
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    EXPECT_FALSE(fleet.all_idle());
    c->crash_node(-1);
    c->sim().run_until(c->sim().now() + sim::milliseconds(400));
    c->crash_node(0);
    c->sim().run_until(c->sim().now() + sim::milliseconds(500));
    c->restart_node(0, server::KvServer::RecoveryMode::kWarm);
    EXPECT_TRUE(fleet.drain(*c, sim::seconds(60)));
    std::string fp;
    fp += std::to_string(c->sim().events_executed()) + "|";
    fp += std::to_string(c->sim().trace_digest()) + "|";
    fp += fleet.history.to_json() + "|";
    fp += c->nic_kv()->stats().format() + "|";
    fp += std::to_string(fleet.ok());
    return fp;
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
    const std::string fp = determinism_fingerprint(ReplicationMode::kFanout, 71);
    EXPECT_EQ(fp, determinism_fingerprint(ReplicationMode::kFanout, 71));
    EXPECT_NE(fp, determinism_fingerprint(ReplicationMode::kFanout, 72));
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
    const std::string fp = determinism_fingerprint(ReplicationMode::kChain, 81);
    EXPECT_EQ(fp, determinism_fingerprint(ReplicationMode::kChain, 81));
    EXPECT_NE(fp, determinism_fingerprint(ReplicationMode::kChain, 82));
    EXPECT_EQ(fnv1a(fp), 0xeac09e12a351d63fu) << std::hex << fnv1a(fp);
}

// Steady state: the NIC pays one send per write regardless of chain
// length, frames relay member-to-member, and the tail genuinely serves
// reads (the fleet routes them there) — all under the checker.
TEST(ChaosReplChain, TailServesLinearizableReads) {
    auto c = make_crash_cluster(61071, opts_for(ReplicationMode::kChain));
    ASSERT_EQ(c->nic_kv()->chain_order().size(), 2u);
    Fleet fleet;
    maybe_route_reads(*c, fleet, ReplicationMode::kChain);
    ASSERT_NE(fleet.read_first, SIZE_MAX);
    fleet.spawn(*c, 3, 30, 0.3);
    ASSERT_TRUE(fleet.drain(*c, sim::seconds(60)));
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued);

    std::uint64_t tail_reads = 0;
    std::uint64_t relayed = 0;
    for (int i = 0; i < c->slave_count(); ++i) {
        tail_reads += c->slave(i).stats().counter("chain_tail_reads");
        relayed += c->slave(i).stats().counter("chain_forwards");
    }
    EXPECT_GT(tail_reads, 0u) << "reads never reached the tail";
    EXPECT_GT(relayed, 0u) << "no frame was relayed down the chain";
    // One NIC send per replication request: the chain's bandwidth win.
    EXPECT_EQ(c->nic_kv()->stats().counter("fanout_sends"),
              c->nic_kv()->stats().counter("repl_requests"));
    gate_linearizable(*c, fleet.history, "chain-tail-reads");
}

// Consistency-trap self-test: with the protocol's signature bug injected
// — a tail lease far above the detector's invalidation latency — an
// isolated tail keeps serving a value the re-spliced chain has already
// overwritten, and the checker MUST reject the recorded history.
TEST(ChaosReplChain, CheckerRejectsInjectedStaleTailRead) {
    CrashClusterOpts o = opts_for(ReplicationMode::kChain);
    o.chain_read_lease = sim::seconds(60); // the injected bug
    auto c = make_crash_cluster(61081, o);
    const int tail = tail_slave_index(*c);
    ASSERT_GE(tail, 0);
    const int head = tail == 0 ? 1 : 0;

    check::History hist;
    auto record = [&](check::OpType type, const std::string& value,
                      std::int64_t invoke, std::int64_t complete) {
        check::Op op;
        op.client = type == check::OpType::kWrite ? 1 : 2;
        op.seq = static_cast<std::uint64_t>(invoke);
        op.type = type;
        op.key = "tk";
        op.value = value;
        op.invoke_ns = invoke;
        op.complete_ns = complete;
        hist.record(op);
    };

    RawConn master(*c, c->master().node().ep, c->master().config().port, "w");
    ASSERT_TRUE(master.connected());
    std::int64_t t0 = c->sim().now().ns();
    EXPECT_TRUE(master.call({"SET", "tk", "v1"}).is_ok());
    record(check::OpType::kWrite, "v1", t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    // Isolate the tail from the NIC, the master, and its chain
    // predecessor — clients can still reach it.
    net::FaultSpec cut;
    cut.blocked = true;
    auto& faults = c->fabric().faults();
    const auto tail_ep = c->slave(tail).node().ep;
    for (const auto peer : {c->nic_kv()->endpoint(), c->master().node().ep,
                            c->slave(head).node().ep}) {
        faults.set_pair(peer, tail_ep, cut);
        faults.set_pair(tail_ep, peer, cut);
    }

    // Overwrite through the surviving chain. The write parks on the full
    // commit set until the detector drops the tail, so retry until the
    // re-spliced chain commits it (same value — idempotent).
    t0 = c->sim().now().ns();
    bool v2_ok = false;
    for (int i = 0; i < 20 && !v2_ok; ++i) {
        v2_ok = master.call({"SET", "tk", "v2"}).is_ok();
    }
    ASSERT_TRUE(v2_ok) << "re-spliced chain never committed the overwrite";
    record(check::OpType::kWrite, "v2", t0, c->sim().now().ns());
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 1);

    // The isolated tail still thinks its lease is fresh (60s bug) and
    // serves the stale value.
    RawConn stale(*c, tail_ep, c->slave(tail).config().port, "r");
    ASSERT_TRUE(stale.connected());
    t0 = c->sim().now().ns();
    const auto v = stale.call({"GET", "tk"});
    ASSERT_EQ(v.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(v.str, "v1") << "expected the injected stale tail read";
    record(check::OpType::kRead, v.str, t0, c->sim().now().ns());

    const auto res = check::check_history(hist);
    EXPECT_FALSE(res.linearizable)
        << "checker failed to reject an injected stale tail read";
    EXPECT_EQ(res.offending_key, "tk");
}

// The production lease is shorter than the detector's invalidation
// latency: the same isolation makes the tail refuse reads instead.
TEST(ChaosReplChain, DefaultLeaseRefusesIsolatedTailReads) {
    auto c = make_crash_cluster(61091, opts_for(ReplicationMode::kChain));
    const int tail = tail_slave_index(*c);
    ASSERT_GE(tail, 0);
    const int head = tail == 0 ? 1 : 0;
    RawConn master(*c, c->master().node().ep, c->master().config().port, "w");
    ASSERT_TRUE(master.connected());
    EXPECT_TRUE(master.call({"SET", "tk", "v1"}).is_ok());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    net::FaultSpec cut;
    cut.blocked = true;
    auto& faults = c->fabric().faults();
    const auto tail_ep = c->slave(tail).node().ep;
    for (const auto peer : {c->nic_kv()->endpoint(), c->master().node().ep,
                            c->slave(head).node().ep}) {
        faults.set_pair(peer, tail_ep, cut);
        faults.set_pair(tail_ep, peer, cut);
    }
    // Past the lease (400ms) but with the isolation still in place.
    c->sim().run_until(c->sim().now() + sim::seconds(2));

    RawConn reader(*c, tail_ep, c->slave(tail).config().port, "r");
    ASSERT_TRUE(reader.connected());
    const auto v = reader.call({"GET", "tk"});
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
    const std::string fp = determinism_fingerprint(ReplicationMode::kQuorum, 91);
    EXPECT_EQ(fp, determinism_fingerprint(ReplicationMode::kQuorum, 91));
    EXPECT_NE(fp, determinism_fingerprint(ReplicationMode::kQuorum, 92));
    EXPECT_EQ(fnv1a(fp), 0x3df2b1b8d076741bu) << std::hex << fnv1a(fp);
}

// Steady state: commits are released by the NIC's watermark, not by the
// master's own ack counting.
TEST(ChaosReplQuorum, WatermarkReleasesCommits) {
    auto c = make_crash_cluster(62071, opts_for(ReplicationMode::kQuorum));
    RawConn conn(*c, c->master().node().ep, c->master().config().port, "q");
    ASSERT_TRUE(conn.connected());
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(conn.call({"SET", "qk" + std::to_string(i), "v"}).is_ok());
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
    CrashClusterOpts o = opts_for(ReplicationMode::kQuorum);
    o.quorum_slave_acks_override = 0; // the injected bug
    auto c = make_crash_cluster(62081, o);

    check::History hist;
    auto record = [&](check::OpType type, const std::string& value,
                      std::int64_t invoke, std::int64_t complete) {
        check::Op op;
        op.client = type == check::OpType::kWrite ? 1 : 2;
        op.seq = static_cast<std::uint64_t>(invoke);
        op.type = type;
        op.key = "qk";
        op.value = value;
        op.invoke_ns = invoke;
        op.complete_ns = complete;
        hist.record(op);
    };

    RawConn master(*c, c->master().node().ep, c->master().config().port, "w");
    ASSERT_TRUE(master.connected());
    std::int64_t t0 = c->sim().now().ns();
    EXPECT_TRUE(master.call({"SET", "qk", "v1"}).is_ok());
    record(check::OpType::kWrite, "v1", t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    // Both replicas die; the zero-ack "majority" still commits the
    // overwrite on the master's copy alone.
    c->crash_node(0);
    c->crash_node(1);
    c->sim().run_until(c->sim().now() + sim::milliseconds(50));
    t0 = c->sim().now().ns();
    const auto v2 = master.call({"SET", "qk", "v2"});
    ASSERT_TRUE(v2.is_ok()) << "split-brain override failed to commit solo";
    record(check::OpType::kWrite, "v2", t0, c->sim().now().ns());

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

    RawConn stale(*c, c->slave(promoted).node().ep,
                  c->slave(promoted).config().port, "r");
    ASSERT_TRUE(stale.connected());
    t0 = c->sim().now().ns();
    const auto v = stale.call({"GET", "qk"});
    ASSERT_EQ(v.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(v.str, "v1") << "expected the acked-write loss to surface";
    record(check::OpType::kRead, v.str, t0, c->sim().now().ns());

    const auto res = check::check_history(hist);
    EXPECT_FALSE(res.linearizable)
        << "checker failed to reject an injected split-brain ack";
    EXPECT_EQ(res.offending_key, "qk");
}

} // namespace
} // namespace skv::offload
