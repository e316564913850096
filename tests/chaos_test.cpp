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

namespace skv::offload {
namespace {

// A closed-loop SET client over the (clean) client link: the next SET goes
// out only after the previous reply arrived, so "acknowledged" is exact —
// key i was acked iff reply i started with '+'.
class SetDriver {
public:
    SetDriver(Cluster& c, std::string prefix)
        : cluster_(c), prefix_(std::move(prefix)) {
        auto node = c.add_client_host("driver-" + prefix_);
        c.connect_client(node, [this](net::ChannelPtr ch) {
            ch_ = std::move(ch);
        });
        c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    }

    /// Run `n` SETs to completion (bounded by `deadline` of simulated time).
    void run(int n, sim::Duration deadline = sim::seconds(30)) {
        if (!ch_) return;
        total_ = n;
        sent_ = 0;
        ch_->set_on_message([this](std::string reply) {
            if (!reply.empty() && reply[0] == '+') {
                acked_.push_back(current_key_);
            } else {
                ++rejected_;
            }
            send_next();
        });
        const auto stop_at = cluster_.sim().now() + deadline;
        send_next();
        while (sent_ <= total_ && cluster_.sim().now() < stop_at && !done_) {
            if (cluster_.sim().run_until(cluster_.sim().now() +
                                         sim::milliseconds(50)) == 0 &&
                cluster_.sim().events_pending() == 0) {
                break;
            }
        }
    }

    [[nodiscard]] const std::vector<std::string>& acked() const { return acked_; }
    [[nodiscard]] int rejected() const { return rejected_; }
    [[nodiscard]] bool connected() const { return ch_ != nullptr; }

private:
    void send_next() {
        if (sent_ >= total_) {
            done_ = true;
            return;
        }
        current_key_ = prefix_ + std::to_string(sent_++);
        ch_->send(kv::resp::command({"SET", current_key_, "v"}));
    }

    Cluster& cluster_;
    std::string prefix_;
    net::ChannelPtr ch_;
    std::string current_key_;
    std::vector<std::string> acked_;
    int total_ = 0;
    int sent_ = 0;
    int rejected_ = 0;
    bool done_ = false;
};

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

        SetDriver driver(*c, "k");
        ASSERT_TRUE(driver.connected()) << "seed " << seed;
        driver.run(200);
        EXPECT_EQ(driver.acked().size(), 200u) << "seed " << seed;

        // Drain with the faults still active: retransmission must finish
        // the job on its own.
        c->sim().run_until(c->sim().now() + sim::seconds(10));
        EXPECT_TRUE(c->converged()) << "seed " << seed;
        expect_acked_everywhere(*c, driver.acked());
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
        SetDriver driver(*c, "d");
        driver.run(100);
        c->sim().run_until(c->sim().now() + sim::seconds(5));
        std::string fingerprint;
        fingerprint += std::to_string(c->sim().events_executed()) + "|";
        fingerprint += std::to_string(c->sim().trace_digest()) + "|";
        fingerprint += std::to_string(c->master().master_offset()) + "|";
        fingerprint += std::to_string(driver.acked().size()) + "|";
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

    SetDriver driver(*c, "j");
    driver.run(150);
    EXPECT_EQ(driver.acked().size(), 150u);
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

    SetDriver driver(*c, "n");
    driver.run(100);
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
    SetDriver driver(*c, "p");
    driver.run(50);
    EXPECT_EQ(driver.acked().size(), 50u);

    // Heal: the cut slave re-registers on probe silence and is resynced via
    // the backlog partial-resync path.
    faults.clear_pair(nic_ep, s0);
    faults.clear_pair(master_ep, s0);
    c->sim().run_until(c->sim().now() + sim::seconds(12));
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 2);
    EXPECT_GE(c->slave(0).stats().counter("reregistrations"), 1u);
    EXPECT_TRUE(c->converged());
    expect_acked_everywhere(*c, driver.acked());
}

TEST(Chaos, MinSlavesGatingUnderPartitionAndRecovery) {
    auto c = make_skv(3, 404, /*min_slaves=*/3);
    DigestReporter audit(*c);
    c->sim().run_until(c->sim().now() + sim::seconds(2));

    SetDriver before(*c, "a");
    before.run(20);
    EXPECT_EQ(before.acked().size(), 20u);

    // Fully partition one slave; once detected, the write gate closes.
    auto& faults = c->fabric().faults();
    const auto s2 = c->slave(2).node().ep;
    net::FaultSpec cut;
    cut.blocked = true;
    faults.set_endpoint(s2, cut);
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    EXPECT_EQ(c->master().available_slaves(), 2);

    SetDriver gated(*c, "g");
    gated.run(10);
    EXPECT_EQ(gated.acked().size(), 0u);
    EXPECT_EQ(gated.rejected(), 10);
    EXPECT_GE(c->master().stats().counter("writes_rejected_min_slaves"), 10u);

    // Heal; the slave re-registers, the gate reopens, writes flow again.
    faults.clear_endpoint(s2);
    c->sim().run_until(c->sim().now() + sim::seconds(12));
    EXPECT_EQ(c->master().available_slaves(), 3);
    SetDriver after(*c, "z");
    after.run(10);
    EXPECT_EQ(after.acked().size(), 10u);
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

    SetDriver driver(*c, "f");
    driver.run(200, sim::seconds(60));
    EXPECT_EQ(driver.acked().size(), 200u);

    c->sim().run_until(c->sim().now() + sim::seconds(10));
    EXPECT_GT(c->fabric().faults().stats().counter("flap_drops"), 0u);
    EXPECT_EQ(c->nic_kv()->stats().counter("failovers"), 0u);
    EXPECT_TRUE(c->converged());
    expect_acked_everywhere(*c, driver.acked());
}

TEST(Chaos, MasterCrashFailoverStillWorksUnderLoss) {
    auto c = make_skv(2, 606);
    DigestReporter audit(*c);
    net::FaultSpec loss;
    loss.drop_prob = 0.01;
    workload::fault_replication_links(*c, loss);

    SetDriver driver(*c, "m");
    driver.run(50);
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
    expect_acked_everywhere(*c, driver.acked());
}

} // namespace
} // namespace skv::offload
