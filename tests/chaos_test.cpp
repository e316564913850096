#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kv/resp.hpp"
#include "net/fault.hpp"
#include "obs/export.hpp"
#include "skv/cluster.hpp"
#include "workload/chaos.hpp"
#include "workload/session.hpp"

namespace skv::offload {
namespace {

/// `n` SETs of prefix0, prefix1, ... over a fresh session `s` on the (clean)
/// client link, run to completion (bounded by `deadline` of simulated
/// time). The next SET goes out only after the previous reply arrived, so
/// "acknowledged" is exact: key i was acked iff reply i is a simple string.
/// Returns the acked keys; every other reply in s.replies() is a rejection.
std::vector<std::string> run_sets(workload::Session& s, const std::string& prefix,
                                  int n, sim::Duration deadline = sim::seconds(30)) {
    std::vector<std::string> acked;
    if (!s.connected()) return acked;
    int sent = 0;
    const auto send_next = [&] {
        if (sent < n) s.send({"SET", prefix + std::to_string(sent++), "v"});
    };
    s.on_reply([&](const kv::resp::Value& v) {
        if (v.kind == kv::resp::Value::Kind::kSimple) {
            acked.push_back(prefix + std::to_string(sent - 1));
        }
        send_next();
    });
    send_next();
    s.run_until([&] { return std::ssize(s.replies()) == n; }, deadline,
                sim::milliseconds(50));
    s.on_reply(nullptr);
    return acked;
}

/// Determinism-audit hook: when a chaos test fails, print the run's seed and
/// the rolling trace digest (see sim::Trace::note), and dump the run's
/// chrome trace to chaos_trace_<seed>.json (CI uploads it as a workflow
/// artifact). A failing scenario can then be bisected by rerunning the seed
/// and diffing digests at intermediate sim times to find the first
/// divergent event — or simply read span-by-span in chrome://tracing.
class DigestReporter {
public:
    explicit DigestReporter(Cluster& c) : cluster_(c) {}
    ~DigestReporter() {
        if (::testing::Test::HasFailure()) {
            std::fprintf(stderr,
                         "[chaos-audit] seed=0x%016llx trace_digest=0x%016llx "
                         "events=%llu noted=%llu\n",
                         static_cast<unsigned long long>(cluster_.sim().seed()),
                         static_cast<unsigned long long>(
                             cluster_.sim().trace_digest()),
                         static_cast<unsigned long long>(
                             cluster_.sim().events_executed()),
                         static_cast<unsigned long long>(
                             cluster_.sim().trace().total_noted()));
            char path[64];
            std::snprintf(path, sizeof(path), "chaos_trace_%016llx.json",
                          static_cast<unsigned long long>(cluster_.sim().seed()));
            if (obs::write_chrome_trace(cluster_.tracer(), path)) {
                std::fprintf(stderr, "[chaos-audit] chrome trace written to %s\n",
                             path);
            }
        }
    }

    DigestReporter(const DigestReporter&) = delete;
    DigestReporter& operator=(const DigestReporter&) = delete;

private:
    Cluster& cluster_;
};

std::unique_ptr<Cluster> make_skv(int slaves, std::uint64_t seed,
                                  int min_slaves = 0) {
    ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = slaves;
    cfg.offload = true;
    cfg.server_tmpl.min_slaves = min_slaves;
    // Traced: a failing seed leaves a chrome trace behind.
    return workload::start_traced(cfg);
}

void expect_acked_everywhere(Cluster& c, const std::vector<std::string>& keys) {
    for (int i = 0; i < c.slave_count(); ++i) {
        for (const auto& k : keys) {
            EXPECT_TRUE(c.slave(i).db().exists(k))
                << "slave" << i << " lost acknowledged key " << k;
        }
    }
}

TEST(Chaos, DropLossConvergesAcrossSeeds) {
    for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
        auto c = make_skv(3, seed);
        DigestReporter audit(*c);
        net::FaultSpec loss;
        loss.drop_prob = 0.01;
        workload::fault_replication_links(*c, loss);

        workload::Session driver(*c, "driver-k");
        ASSERT_TRUE(driver.connected()) << "seed " << seed;
        const auto acked = run_sets(driver, "k", 200);
        EXPECT_EQ(acked.size(), 200u) << "seed " << seed;

        // Drain with the faults still active: retransmission must finish
        // the job on its own.
        c->sim().run_until(c->sim().now() + sim::seconds(10));
        EXPECT_TRUE(c->converged()) << "seed " << seed;
        expect_acked_everywhere(*c, acked);
        // Loss really was injected, and nobody was declared dead over it.
        EXPECT_GT(c->fabric().faults().stats().counter("drops"), 0u);
        EXPECT_EQ(c->nic_kv()->stats().counter("failures_detected"), 0u)
            << "seed " << seed;
    }
}

TEST(Chaos, DeterministicUnderChaos) {
    auto run_once = [](std::uint64_t seed) {
        auto c = make_skv(3, seed);
        DigestReporter audit(*c);
        net::FaultSpec mess;
        mess.drop_prob = 0.02;
        mess.dup_prob = 0.02;
        mess.jitter_prob = 0.2;
        mess.jitter_mean = sim::microseconds(200);
        workload::fault_replication_links(*c, mess);
        workload::Session driver(*c, "driver-d");
        const auto acked = run_sets(driver, "d", 100);
        c->sim().run_until(c->sim().now() + sim::seconds(5));
        std::string fingerprint;
        fingerprint += std::to_string(c->sim().events_executed()) + "|";
        fingerprint += std::to_string(c->sim().trace_digest()) + "|";
        fingerprint += std::to_string(c->master().master_offset()) + "|";
        fingerprint += std::to_string(acked.size()) + "|";
        fingerprint += c->fabric().faults().stats().format() + "|";
        fingerprint += c->nic_kv()->stats().format() + "|";
        fingerprint += c->master().stats().format();
        return fingerprint;
    };
    // Same seed: bit-identical trace and counters. Different seed: different
    // fault pattern (sanity that the fingerprint is actually sensitive).
    EXPECT_EQ(run_once(7), run_once(7));
    EXPECT_NE(run_once(7), run_once(8));
}

TEST(Chaos, DuplicationAndJitterAreHarmless) {
    auto c = make_skv(3, 101);
    DigestReporter audit(*c);
    net::FaultSpec mess;
    mess.dup_prob = 0.05;
    mess.jitter_prob = 0.3;
    mess.jitter_mean = sim::microseconds(500);
    workload::fault_replication_links(*c, mess);

    workload::Session driver(*c, "driver-j");
    const auto acked = run_sets(driver, "j", 150);
    EXPECT_EQ(acked.size(), 150u);
    c->sim().run_until(c->sim().now() + sim::seconds(10));

    EXPECT_GT(c->fabric().faults().stats().counter("dups"), 0u);
    EXPECT_GT(c->fabric().faults().stats().counter("delays"), 0u);
    EXPECT_TRUE(c->converged());
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db()));
    }
}

TEST(Chaos, NoFalseFailoverUnderJitterBelowWaitingTime) {
    auto c = make_skv(3, 202);
    DigestReporter audit(*c);
    // Aggressive jitter, but far below waiting-time (1500ms): the detector
    // must not fire (paper §III-D correctness under slow links).
    net::FaultSpec jitter;
    jitter.jitter_prob = 0.8;
    jitter.jitter_mean = sim::milliseconds(50);
    workload::fault_replication_links(*c, jitter);

    workload::Session driver(*c, "driver-n");
    run_sets(driver, "n", 100);
    c->sim().run_until(c->sim().now() + sim::seconds(12));

    EXPECT_EQ(c->nic_kv()->stats().counter("failures_detected"), 0u);
    EXPECT_EQ(c->nic_kv()->stats().counter("failovers"), 0u);
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 3);
    EXPECT_TRUE(c->converged());
}

TEST(Chaos, AsymmetricPartitionDetectedAndHealed) {
    auto c = make_skv(2, 303);
    DigestReporter audit(*c);
    c->sim().run_until(c->sim().now() + sim::seconds(2));

    // One-directional cut: the NIC can no longer reach slave0 (probes and
    // fan-out die), but slave0 -> NIC still works. RDMA raises no error;
    // only the failure detector can catch this.
    auto& faults = c->fabric().faults();
    const auto nic_ep = c->nic_kv()->endpoint();
    const auto master_ep = c->master().node().ep;
    const auto s0 = c->slave(0).node().ep;
    net::FaultSpec cut;
    cut.blocked = true;
    faults.set_pair(nic_ep, s0, cut);
    faults.set_pair(master_ep, s0, cut);

    c->sim().run_until(c->sim().now() + sim::seconds(4));
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 1);
    EXPECT_GE(c->nic_kv()->stats().counter("failures_detected"), 1u);
    EXPECT_GT(c->fabric().faults().stats().counter("partition_drops"), 0u);

    // Writes continue against the surviving replica set.
    workload::Session driver(*c, "driver-p");
    const auto acked = run_sets(driver, "p", 50);
    EXPECT_EQ(acked.size(), 50u);

    // Heal: the cut slave re-registers on probe silence and is resynced via
    // the backlog partial-resync path.
    faults.clear_pair(nic_ep, s0);
    faults.clear_pair(master_ep, s0);
    c->sim().run_until(c->sim().now() + sim::seconds(12));
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 2);
    EXPECT_GE(c->slave(0).stats().counter("reregistrations"), 1u);
    EXPECT_TRUE(c->converged());
    expect_acked_everywhere(*c, acked);
}

TEST(Chaos, MinSlavesGatingUnderPartitionAndRecovery) {
    auto c = make_skv(3, 404, /*min_slaves=*/3);
    DigestReporter audit(*c);
    c->sim().run_until(c->sim().now() + sim::seconds(2));

    workload::Session before(*c, "driver-a");
    const auto before_acked = run_sets(before, "a", 20);
    EXPECT_EQ(before_acked.size(), 20u);

    // Fully partition one slave; once detected, the write gate closes.
    auto& faults = c->fabric().faults();
    const auto s2 = c->slave(2).node().ep;
    net::FaultSpec cut;
    cut.blocked = true;
    faults.set_endpoint(s2, cut);
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    EXPECT_EQ(c->master().available_slaves(), 2);

    workload::Session gated(*c, "driver-g");
    const auto gated_acked = run_sets(gated, "g", 10);
    EXPECT_EQ(gated_acked.size(), 0u);
    EXPECT_EQ(gated.replies().size() - gated_acked.size(), 10u); // rejected
    EXPECT_GE(c->master().stats().counter("writes_rejected_min_slaves"), 10u);

    // Heal; the slave re-registers, the gate reopens, writes flow again.
    faults.clear_endpoint(s2);
    c->sim().run_until(c->sim().now() + sim::seconds(12));
    EXPECT_EQ(c->master().available_slaves(), 3);
    workload::Session after(*c, "driver-z");
    const auto after_acked = run_sets(after, "z", 10);
    EXPECT_EQ(after_acked.size(), 10u);
    c->sim().run_until(c->sim().now() + sim::seconds(5));
    EXPECT_TRUE(c->converged());
}

TEST(Chaos, LinkFlapsLoseNoAcknowledgedWrites) {
    auto c = make_skv(3, 505);
    DigestReporter audit(*c);
    // 150ms outage every second on the replication links: well under
    // waiting-time, so the detector must hold steady while the reliable
    // layer rides through the flaps.
    net::FaultSpec flap;
    flap.flap_period = sim::seconds(1);
    flap.flap_down = sim::milliseconds(150);
    flap.flap_phase = sim::milliseconds(250);
    workload::fault_replication_links(*c, flap);

    workload::Session driver(*c, "driver-f");
    const auto acked = run_sets(driver, "f", 200, sim::seconds(60));
    EXPECT_EQ(acked.size(), 200u);

    c->sim().run_until(c->sim().now() + sim::seconds(10));
    EXPECT_GT(c->fabric().faults().stats().counter("flap_drops"), 0u);
    EXPECT_EQ(c->nic_kv()->stats().counter("failovers"), 0u);
    EXPECT_TRUE(c->converged());
    expect_acked_everywhere(*c, acked);
}

TEST(Chaos, MasterCrashFailoverStillWorksUnderLoss) {
    auto c = make_skv(2, 606);
    DigestReporter audit(*c);
    net::FaultSpec loss;
    loss.drop_prob = 0.01;
    workload::fault_replication_links(*c, loss);

    workload::Session driver(*c, "driver-m");
    const auto acked = run_sets(driver, "m", 50);
    c->sim().run_until(c->sim().now() + sim::seconds(5));
    ASSERT_TRUE(c->converged());

    // A real crash under background loss: detect, promote a stand-in.
    c->master().crash();
    c->sim().run_until(c->sim().now() + sim::seconds(5));
    EXPECT_FALSE(c->nic_kv()->master_valid());
    EXPECT_EQ(c->nic_kv()->stats().counter("failovers"), 1u);
    int masters = 0;
    for (int i = 0; i < 2; ++i) {
        if (c->slave(i).role() == server::Role::kMaster) ++masters;
    }
    EXPECT_EQ(masters, 1);

    // Master recovery: it re-attaches and the stand-in is demoted, still
    // under loss. Acked pre-crash writes survived on the replicas.
    c->master().recover();
    c->sim().run_until(c->sim().now() + sim::seconds(8));
    EXPECT_TRUE(c->nic_kv()->master_valid());
    masters = 0;
    for (int i = 0; i < 2; ++i) {
        if (c->slave(i).role() == server::Role::kMaster) ++masters;
    }
    EXPECT_EQ(masters, 0);
    expect_acked_everywhere(*c, acked);
}

} // namespace
} // namespace skv::offload
