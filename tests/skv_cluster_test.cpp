#include <gtest/gtest.h>

#include "skv/cluster.hpp"
#include "workload/session.hpp"

namespace skv::offload {
namespace {

TEST(Cluster, BaselineAndSkvBuildTheRightTopology) {
    ClusterConfig base;
    base.n_slaves = 2;
    base.offload = false;
    Cluster cb(base);
    cb.start();
    EXPECT_EQ(cb.nic_kv(), nullptr);
    EXPECT_EQ(cb.smartnic(), nullptr);
    EXPECT_EQ(cb.slave_count(), 2);

    ClusterConfig skv;
    skv.n_slaves = 2;
    skv.offload = true;
    Cluster cs(skv);
    cs.start();
    EXPECT_NE(cs.nic_kv(), nullptr);
    EXPECT_NE(cs.smartnic(), nullptr);
    EXPECT_TRUE(cs.fabric().is_companion(cs.nic_kv()->endpoint()));
}

TEST(Cluster, TcpTransportWorksEndToEnd) {
    ClusterConfig cfg = config_of(System::kTcpRedis);
    cfg.n_slaves = 1;
    Cluster c(cfg);
    c.start();
    workload::Session s(c, "cli");
    ASSERT_TRUE(s.connected());
    s.send({"SET", "k", "v"});
    c.sim().run_until(c.sim().now() + sim::milliseconds(100));
    EXPECT_TRUE(s.replies().at(0).is_ok());
    EXPECT_TRUE(c.converged());
}

TEST(Cluster, ConvergedReflectsOffsets) {
    ClusterConfig cfg;
    cfg.n_slaves = 1;
    cfg.offload = true;
    Cluster c(cfg);
    c.start();
    EXPECT_TRUE(c.converged()); // nothing written yet
    // Write directly through the master's db? No: converged() compares
    // replication offsets, which only move via the command path.
    workload::Session s(c, "cli");
    s.send({"SET", "a", "b"});
    c.sim().run_until(c.sim().now() + sim::milliseconds(100));
    EXPECT_TRUE(c.converged());
    EXPECT_GT(c.master().master_offset(), 0);
}

/// Determinism: two simulations with the same seed produce identical
/// results; a different seed produces a different (but valid) execution.
TEST(Cluster, DeterministicAcrossRuns) {
    auto run_once = [](std::uint64_t seed) {
        ClusterConfig cfg;
        cfg.seed = seed;
        cfg.n_slaves = 3;
        cfg.offload = true;
        Cluster c(cfg);
        c.start();
        workload::Session s(c, "cli");
        for (int i = 0; i < 100; ++i) {
            s.send({"SET", std::string("k").append(std::to_string(i % 10)),
                    std::string("v").append(std::to_string(i))});
        }
        c.sim().run_until(c.sim().now() + sim::milliseconds(200));
        return std::tuple{c.sim().events_executed(),
                          c.master().master_offset(),
                          c.master().node().core->total_busy().ns()};
    };
    const auto a = run_once(77);
    const auto b = run_once(77);
    const auto c = run_once(78);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Cluster, SettleCompletesInitialSyncForAllSlaves) {
    ClusterConfig cfg;
    cfg.n_slaves = 5;
    cfg.offload = true;
    Cluster c(cfg);
    c.start();
    EXPECT_EQ(c.nic_kv()->valid_slaves(), 5);
    EXPECT_EQ(c.master().slave_count(), 5u);
    EXPECT_TRUE(c.converged());
}

TEST(Cluster, AddClientHostCreatesDistinctEndpoints) {
    ClusterConfig cfg;
    cfg.n_slaves = 0;
    Cluster c(cfg);
    c.start();
    const auto a = c.add_client_host("a");
    const auto b = c.add_client_host("b");
    EXPECT_NE(a.ep, b.ep);
    EXPECT_NE(a.core, b.core);
}

} // namespace
} // namespace skv::offload
