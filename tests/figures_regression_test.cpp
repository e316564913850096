#include <gtest/gtest.h>

#include "skv/cluster.hpp"
#include "workload/runner.hpp"

namespace skv {
namespace {

/// Figure-shape regression guards: compact versions of the paper's key
/// experiments with loose bands around the expected shapes, so a change
/// that silently breaks the reproduction fails ctest rather than only
/// being visible in the bench output. (The full sweeps live in bench/.)

using offload::System;

workload::RunResult run(System sys, int n_slaves, int clients,
                        double set_ratio, std::size_t value_bytes = 64) {
    offload::ClusterConfig cfg = offload::config_of(sys);
    cfg.seed = 42;
    cfg.n_slaves = n_slaves;
    offload::Cluster c(cfg);
    c.start();
    workload::RunOptions opts;
    opts.clients = clients;
    opts.spec.set_ratio = set_ratio;
    opts.spec.value_bytes = value_bytes;
    opts.preload = set_ratio < 1.0;
    opts.warmup = sim::milliseconds(200);
    opts.measure = sim::seconds(1);
    return workload::run_workload(c, opts);
}

TEST(FigureRegression, Fig10_TcpCapsFarBelowRdma) {
    const auto tcp = run(System::kTcpRedis, 0, 16, 1.0);
    const auto rdma = run(System::kRdmaRedis, 0, 16, 1.0);
    // Paper: ~130 vs >330 kops/s.
    EXPECT_GT(tcp.throughput_kops, 100.0);
    EXPECT_LT(tcp.throughput_kops, 170.0);
    EXPECT_GT(rdma.throughput_kops, 300.0);
    EXPECT_GT(rdma.throughput_kops / tcp.throughput_kops, 2.0);
    // Tail latency roughly doubles on the kernel path.
    EXPECT_GT(tcp.p99_us / rdma.p99_us, 1.6);
}

TEST(FigureRegression, Fig7_SlavesDegradeTheBaselineMaster) {
    const auto none = run(System::kRdmaRedis, 0, 4, 1.0);
    const auto three = run(System::kRdmaRedis, 3, 4, 1.0);
    EXPECT_LT(three.throughput_kops, none.throughput_kops * 0.92);
    EXPECT_GT(three.p99_us, none.p99_us * 1.25); // paper: tail > +25%
}

TEST(FigureRegression, Fig11_SkvBeatsBaselineOnWrites) {
    const auto base = run(System::kRdmaRedis, 3, 8, 1.0);
    const auto skv = run(System::kSkv, 3, 8, 1.0);
    const double gain = skv.throughput_kops / base.throughput_kops - 1.0;
    // Paper: +14%. Accept a band around it.
    EXPECT_GT(gain, 0.08);
    EXPECT_LT(gain, 0.25);
    EXPECT_LT(skv.mean_us, base.mean_us);   // paper: -14%
    EXPECT_LT(skv.p99_us, base.p99_us);     // paper: -21%
    EXPECT_EQ(base.errors, 0u);
    EXPECT_EQ(skv.errors, 0u);
}

TEST(FigureRegression, Fig13_GetIsAWash) {
    const auto base = run(System::kRdmaRedis, 3, 8, 0.0);
    const auto skv = run(System::kSkv, 3, 8, 0.0);
    // Paper: no difference on the read path.
    EXPECT_NEAR(skv.throughput_kops, base.throughput_kops,
                base.throughput_kops * 0.02);
}

TEST(FigureRegression, Fig14_ThroughputFlatAcrossSlaveFailure) {
    offload::ClusterConfig cfg;
    cfg.seed = 42;
    cfg.n_slaves = 3;
    cfg.offload = true;
    offload::Cluster c(cfg);
    c.start();
    workload::RunOptions opts;
    opts.clients = 8;
    opts.warmup = sim::milliseconds(200);
    opts.measure = sim::seconds(6);
    opts.timeline_bin = sim::milliseconds(500);
    opts.faults.push_back({sim::seconds(2), 1, false});
    opts.faults.push_back({sim::seconds(4), 1, true});
    const auto r = workload::run_workload(c, opts);
    ASSERT_GE(r.timeline_kops.size(), 12u);
    double healthy = 0;
    for (std::size_t i = 0; i < 3; ++i) healthy = std::max(healthy, r.timeline_kops[i]);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_GT(r.timeline_kops[i], healthy * 0.95)
            << "throughput dipped in bin " << i;
    }
    EXPECT_EQ(r.errors, 0u);
    // The crashed slave re-converged after recovery.
    c.sim().run_until(c.sim().now() + sim::seconds(3));
    EXPECT_EQ(c.slave(1).slave_applied_offset(), c.master().master_offset());
}

} // namespace
} // namespace skv
